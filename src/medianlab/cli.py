"""Command-line front end.

Every verb prints one JSON report on stdout (schema 1, byte-stable for
identical inputs) and a short human summary with timing on stderr.  Exit
codes: 0 when the checked property holds or the command is informational,
1 when a property fails and a witness is attached, 2 for usage, format or
budget errors, argparse usage errors included, and 3 for an internal error,
any other exception (its traceback goes to stderr); only `--help` prints
plain text.  One memoised parser binds each leaf verb to its handler, and
`main` and `corpus` turn an exception into an exit code and a JSON error
body the same way (`_failure`).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
import traceback
from pathlib import Path

from . import benzenoid as bz
from . import consensus as cs
from . import formats
from . import hypergraphs as hg
from . import pairing as pr
from . import profiles as pf
from .classify import classify as classify_graph
from .combinatorics import STABLE_SET_CAP
from .errors import BudgetError, FormatError, InputError
from .graph import Graph, generate, generator_names
from .report import jsonable

# Exceptions that mean "usage, format or budget error": exit 2 with a JSON body.
USAGE_ERRORS = (InputError, FormatError, BudgetError, OSError)


def _failure(exc: Exception) -> tuple[dict, int]:
    """Error body and exit code: 2 for a usage error, 3 for anything else,
    an internal error whose traceback goes to stderr."""
    if isinstance(exc, USAGE_ERRORS):
        return {"error": str(exc)}, 2
    traceback.print_exception(exc, file=sys.stderr)
    return {"error": f"internal error: {type(exc).__name__}: {exc}"}, 3


def _read_text(path) -> str:
    """The text of an input file, which must be UTF-8; any other bytes are a
    format error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def load_graph(target: str) -> Graph:
    name = target.partition(":")[0].lower()
    if ":" in target and name in generator_names():
        return generate(target)
    path = Path(target)
    if not path.exists():
        raise InputError(f"no such file or generator: {target!r}")
    return formats.graph_from_text(_read_text(path))


def _maybe_write(args, payload: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(payload)


# -- command handlers; each returns (body, exit_code) ---------------------------


def _report(g: Graph, verdicts, holds: bool = True, **extra) -> tuple[dict, int]:
    """The body of a verb on graph g, made JSON-able, and its exit code:
    1 when the checked property fails, else 0.  Every verb but `corpus`
    ends here, the one place that adds the graph fingerprint."""
    body = {"graph": formats.fingerprint(g), **jsonable({"verdicts": verdicts, **extra})}
    return body, 0 if holds else 1


def cmd_classify(args):
    g = load_graph(args.target)
    return _report(g, classify_graph(g))


def cmd_median(args):
    g = load_graph(args.target)
    profile = pf.Profile.parse(args.profile)
    f = pf.f_vector(g, profile)
    return _report(g, {"median_set": pf.minimizers(f), "min_total_distance": min(f)})


def cmd_verify_connected_medians(args):
    g = load_graph(args.target)
    report = pf.check_unimodal_equals_connected(
        g, args.power, args.support, args.mult, cap=args.cap
    )
    return _report(g, report, report.ok)


def cmd_pairing_check(args):
    g = load_graph(args.target)
    profile = pf.Profile.parse(args.profile)
    hit = pr.has_perfect_pairing(g, profile, cap=args.cap)
    if hit is None:
        return _report(g, {"perfect_pairing": False}, False, witnesses={"profile": profile})
    pairing, vertex = hit
    verdicts = {
        "perfect_pairing": True,
        "pairing": pairing.pairs,
        "median_vertex": vertex,
        "cost": pairing.cost(g),
    }
    return _report(g, verdicts)


def cmd_pairing_search(args):
    g = load_graph(args.target)
    witness = pr.pairing_property_bounded_search(g, args.support, args.mult)
    found = {} if witness is None else {"witnesses": {"profile": witness}}
    return _report(
        g,
        {"unpairable_profile_found": witness is not None},
        witness is None,
        budget={"support": args.support, "mult": args.mult},
        **found,
    )


def cmd_pairing_double(args):
    g = load_graph(args.target)
    result = pr.double_pairing_property(g, cap=args.cap)
    return _report(g, result, result.holds)


def cmd_pairing_local(args):
    g = load_graph(args.target)
    if not 0 <= args.vertex < g.n:
        raise InputError(f"vertex {args.vertex} out of range")
    local = pr.local_graph(g, args.vertex)
    result = pr.matching_stable_set_check(
        local.graph, args.variant, args.support, args.mult, cap=args.cap
    )
    return _report(g, {"local_vertices": local.vertices, **jsonable(result)}, result.holds)


def cmd_construct(args):
    verdicts = {}
    if args.what in ("bn", "bhat"):
        g = generate(f"{args.what}:{args.n}")
    elif args.what == "incidence":
        h = formats.hypergraph_from_text(_read_text(args.hypergraph))
        inc = hg.incidence_graph(h)
        g, verdicts = inc.graph, {"hub": inc.hub, "labels": inc.labels()}
    else:  # counterexample
        kind = "double_pairing" if args.kind == "double" else "pairing"
        cx = hg.build_counterexample(kind)
        g = cx.graph
        verdicts = {
            "kind": cx.kind,
            "vertices": g.n,
            "hub": cx.hub,
            "profile": cx.profile,
            "labels": cx.incidence.labels(),
        }
    text = formats.graph_to_text(g)
    _maybe_write(args, text)
    return _report(g, {**verdicts, "graph_text": text})


def _load_consensus(g: Graph, name: str, max_len: int) -> cs.TabulatedConsensus:
    if name == "med":
        return cs.tabulate_median(g, max_len)
    if name == "l6":
        if g.edges() != cs.c6_graph().edges():
            raise InputError("the l6 rule is defined on cycle:6 only")
        return cs.tabulate_l6(max_len)
    table = formats.table_from_text(g, _read_text(name))
    if table.max_len != max_len:
        raise InputError(
            f"table {name} holds profiles up to length {table.max_len}, "
            f"expected --max-len {max_len}"
        )
    return table


def cmd_consensus_tabulate_med(args):
    g = load_graph(args.target)
    table = cs.tabulate_median(g, args.max_len)
    text = formats.table_to_text(table)
    _maybe_write(args, text)
    return _report(g, {"entries": len(table.table), "table_text": text})


def cmd_consensus_check(args):
    g = load_graph(args.target)
    table = _load_consensus(g, args.function, args.max_len)
    result = cs.check_axiom(table, args.axiom, k=args.k)
    return _report(g, result, result.holds)


def cmd_consensus_l6(args):
    profile = pf.Profile.parse(args.profile)
    g = cs.c6_graph()
    return _report(g, {"l6": cs.l6_eval(profile), "median": pf.median_set(g, profile)})


def cmd_consensus_verify_l6(args):
    report = cs.verify_l6_is_abc(args.max_len)
    return _report(cs.c6_graph(), report, report.ok)


def cmd_consensus_compare(args):
    g = load_graph(args.target)
    left = _load_consensus(g, args.left, args.max_len)
    right = _load_consensus(g, args.right, args.max_len)
    diffs = cs.compare_functions(left, right)
    profiles = [{"profile": key, "left": a, "right": b} for key, a, b in diffs[:50]]
    return _report(
        g, {"divergences": len(diffs)}, not diffs, witnesses={"profiles": profiles}
    )


def cmd_benzenoid_build(args):
    b = formats.cells_from_text(_read_text(args.cells))
    verdicts = {
        "cells": len(b.cells),
        "vertices": b.graph.n,
        "edges": b.graph.edge_count,
        "hexagons": b.hexagons,
        "incomplete_hexagons": bz.incomplete_hexagons(b),
        "graph_text": formats.graph_to_text(b.graph),
    }
    return _report(b.graph, verdicts)


def cmd_benzenoid_embed(args):
    b = formats.cells_from_text(_read_text(args.cells))
    emb = bz.tree_embedding(b)
    verdicts = {"tree_sizes": [t.n for t in emb.trees], "phi": emb.phi, "isometric": True}
    return _report(b.graph, verdicts)


def cmd_benzenoid_verify(args):
    b = formats.cells_from_text(_read_text(args.cells))
    report = bz.verify_benzenoid_properties(b, args.support, args.mult, cap=args.cap)
    return _report(b.graph, report, report.ok)


def _corpus_argv(entry) -> list:
    argv = entry.get("argv") if isinstance(entry, dict) else entry
    if not isinstance(argv, list):
        raise FormatError(
            f"corpus entry {entry!r} is neither a list nor a dict with an 'argv' list"
        )
    return argv


def cmd_corpus(args):
    try:
        manifest = json.loads(_read_text(args.manifest))
    except (ValueError, RecursionError) as exc:
        # bad JSON (JSONDecodeError is a ValueError), an integer too long to
        # convert, or nesting deeper than the decoder's recursion limit
        raise FormatError(str(exc)) from None
    entries = manifest.get("entries", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise FormatError("corpus manifest needs an 'entries' list")
    results = []
    worst = 0
    for entry in entries:
        argv = None
        try:
            argv = _corpus_argv(entry)
            # a --help entry prints its text to stderr, keeping stdout one report
            with contextlib.redirect_stdout(sys.stderr):
                args = build_parser().parse_args([str(a) for a in argv])
                # a corpus inside a corpus could name itself and recurse without end
                if args.handler is cmd_corpus:
                    raise InputError(f"corpus entry {argv!r} nests a corpus run")
                body, code = args.handler(args)
        except SystemExit:  # --help
            body, code = {"error": f"unusable command line {argv!r}"}, 2
        except Exception as exc:
            body, code = _failure(exc)
        results.append({"argv": argv, "exit": code, "report": body})
        worst = max(worst, code)
    body = {"verdicts": {"entries": len(results), "exit": worst}, "runs": results}
    return body, worst


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting, so they share the JSON error
    path; subparsers inherit this class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _leaf(sub, name, handler, **kwargs) -> argparse.ArgumentParser:
    q = sub.add_parser(name, **kwargs)
    q.set_defaults(handler=handler)
    return q


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process-wide parser, built on first use; parsing never changes it."""
    parser = _Parser(
        prog="medianlab",
        description="median sets, pairings and consensus checks on finite graphs",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = _leaf(sub, "classify", cmd_classify, help="recognize graph classes")
    p.add_argument("target")

    p = _leaf(sub, "median", cmd_median, help="median set of a profile")
    p.add_argument("target")
    p.add_argument("--profile", required=True)

    p = _leaf(sub, "verify-connected-medians", cmd_verify_connected_medians)
    p.add_argument("target")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--support", type=int, required=True)
    p.add_argument("--mult", type=int, required=True)
    p.add_argument("--cap", type=int, default=pf.PROFILE_CAP)

    p = sub.add_parser("pairing")
    psub = p.add_subparsers(dest="sub", required=True)
    q = _leaf(psub, "check", cmd_pairing_check)
    q.add_argument("target")
    q.add_argument("--profile", required=True)
    q.add_argument("--cap", type=int, default=pr.B_MATCHING_NODE_CAP)
    q = _leaf(psub, "search", cmd_pairing_search)
    q.add_argument("target")
    q.add_argument("--support", type=int, required=True)
    q.add_argument("--mult", type=int, required=True)
    q = _leaf(psub, "double", cmd_pairing_double)
    q.add_argument("target")
    q.add_argument("--cap", type=int, default=STABLE_SET_CAP)
    q = _leaf(psub, "local", cmd_pairing_local)
    q.add_argument("target")
    q.add_argument("--vertex", type=int, required=True)
    q.add_argument("--variant", choices=("double", "single"), default="double")
    q.add_argument("--support", type=int, default=None)
    q.add_argument("--mult", type=int, default=None)
    q.add_argument("--cap", type=int, default=STABLE_SET_CAP)

    p = sub.add_parser("construct")
    csub = p.add_subparsers(dest="what", required=True)
    for name in ("bn", "bhat"):
        q = _leaf(csub, name, cmd_construct)
        q.add_argument("--n", type=int, required=True)
        q.add_argument("--out")
    q = _leaf(csub, "incidence", cmd_construct)
    q.add_argument("hypergraph")
    q.add_argument("--out")
    q = _leaf(csub, "counterexample", cmd_construct)
    q.add_argument("--kind", choices=("pairing", "double"), required=True)
    q.add_argument("--out")

    p = sub.add_parser("consensus")
    csub = p.add_subparsers(dest="sub", required=True)
    q = _leaf(csub, "tabulate-med", cmd_consensus_tabulate_med)
    q.add_argument("target")
    q.add_argument("--max-len", type=int, required=True)
    q.add_argument("--out")
    q = _leaf(csub, "check", cmd_consensus_check)
    q.add_argument("target")
    q.add_argument("--axiom", required=True, choices=cs.AXIOMS)
    q.add_argument("--max-len", type=int, required=True)
    q.add_argument("--function", default="med", help="med, l6, or a table file")
    q.add_argument("--k", type=int, default=None, help="size parameter for Ek")
    q = _leaf(csub, "l6", cmd_consensus_l6)
    q.add_argument("--profile", required=True)
    q = _leaf(csub, "verify-l6", cmd_consensus_verify_l6)
    q.add_argument("--max-len", type=int, default=6)
    q = _leaf(csub, "compare", cmd_consensus_compare)
    q.add_argument("target")
    q.add_argument("--max-len", type=int, required=True)
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)

    p = sub.add_parser("benzenoid")
    bsub = p.add_subparsers(dest="sub", required=True)
    for name, handler in (("build", cmd_benzenoid_build),
                          ("embed", cmd_benzenoid_embed)):
        q = _leaf(bsub, name, handler)
        q.add_argument("cells")
    q = _leaf(bsub, "verify", cmd_benzenoid_verify)
    q.add_argument("cells")
    q.add_argument("--support", type=int, required=True)
    q.add_argument("--mult", type=int, required=True)
    q.add_argument("--cap", type=int, default=bz.VERIFY_PROFILE_CAP)

    p = _leaf(sub, "corpus", cmd_corpus)
    p.add_argument("manifest")

    return parser


def run(argv):
    """Dispatch one command line; returns (report body, exit code)."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    try:
        body, code = run(argv)
    except Exception as exc:
        body, code = _failure(exc)
        print(json.dumps({"schema": 1, "command": argv, **body}))
        print(f"error: {body['error']}", file=sys.stderr)
        return code
    report = {"schema": 1, "command": argv, **body}
    print(json.dumps(report, sort_keys=True))
    elapsed = time.monotonic() - started
    print(
        f"{' '.join(argv)}: exit {code} ({elapsed:.2f}s)",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
