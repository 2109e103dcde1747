"""The benchmark's workloads: job slots, the inputs behind them, and how
each job's output is judged.

A workload is a list of slots.  A fixed slot has one input; a seeded slot
has VARIANTS inputs, each generated from the slot's name and the variant
number alone.  A run's seed picks one variant per slot and the order of
the jobs, so every seed runs the same mix of job kinds and sizes while the
graphs, profiles and demands differ.  reference.json holds the digest of
every variant's output as the program produced it when the benchmark was
written, so any seed can be checked.

A job is one call into the public API, or one `cli.main(argv)` call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import gen

VARIANTS = 8
WORKDIR = ".perfbench_work"  # relative to the repository root, the cwd of every run


class Job:
    """One unit of closed-loop work.

    `call` runs the program and returns its raw result; `canon` turns that
    into JSON-able data whose digest is compared with the reference;
    `validate`, when present, re-checks a certificate independently of the
    reference.  CLI jobs (`cli`) return (exit code, stdout) and must keep
    the exit-code contract; `contract_only` ones are judged by that
    contract alone (they have no reference output).
    """

    __slots__ = ("key", "call", "canon", "validate", "cli", "contract_only")

    def __init__(self, key, call, canon, validate=None, cli=False, contract_only=False):
        self.key = key
        self.call = call
        self.canon = canon
        self.validate = validate
        self.cli = cli
        self.contract_only = contract_only


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Setup:
    """Per-run state built before the first job: the loaded program, the
    graphs built up front (memoised per generator spec) and the files that
    CLI jobs read."""

    def __init__(self, ml):
        self.ml = ml
        self._specs = {}

    def spec_graph(self, spec):
        if spec not in self._specs:
            self._specs[spec] = self.ml.graph.generate(spec)
        return self._specs[spec]

    def write(self, name, text):
        path = Path(WORKDIR) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path.as_posix()


# -- lp_polytope ------------------------------------------------------------------

MA_SPECS = ("kmn:2,3", "cycle:8", "path:6", "hypercube:3", "bn:4", "grid:2,3")
# One vertex per automorphism orbit of the two largest graphs: every vertex
# of bhat:4 would take 8.5 s a pass, and every vertex of grid:3,3 7.5 s,
# leaving too few passes in a run to take a median over.
ORBITS = {"grid:3,3": (0, 1, 4), "bhat:4": (0, 8)}
MSP_SPECS = ("kmn:2,3", "cycle:8", "path:6", "hypercube:3", "grid:3,3", "bn:4")
FRACTIONAL_SLOTS = 200
UNIFORM_SPECS = (
    "cycle:6", "cycle:7", "cycle:8", "path:6", "kmn:2,3", "kmn:3,3", "grid:2,3",
    "grid:2,4", "grid:3,3", "hypercube:3", "bn:4", "bhat:4",
)
SPEC_ORDER = {
    "kmn:2,3": 5, "kmn:3,3": 6, "cycle:6": 6, "cycle:7": 7, "cycle:8": 8, "path:6": 6,
    "hypercube:3": 8, "bn:4": 8, "bhat:4": 10, "grid:2,3": 6, "grid:2,4": 8, "grid:3,3": 9,
}


def _canon_violation(v):
    if v is None:
        return {"violation": None}
    return {
        "stable_set": sorted(v.stable_set),
        "point": [str(x) for x in v.point],
        "optimum": str(v.optimum),
    }


def _ma_job(key, ctx, spec, u):
    g = ctx.spec_graph(spec)
    pr = ctx.ml.pairing
    return Job(key, lambda: pr.ma_violation_search(g, u), _canon_violation)


def _msp_job(key, ctx, spec, u):
    local = ctx.ml.pairing.local_graph(ctx.spec_graph(spec), u)
    pr = ctx.ml.pairing
    return Job(
        key,
        lambda: pr.matching_stable_set_check(local.graph, "double"),
        lambda r: r.as_dict(),
    )


def _dpp_job(key, ctx):
    cx = ctx.ml.hypergraphs.build_counterexample("double_pairing")
    pr = ctx.ml.pairing
    return Job(key, lambda: pr.double_pairing_property(cx.graph), lambda r: r.as_dict())


# LP size, and with it a fractional job's cost, follows the edge count m of
# A_u.  Each slot fixes a range of m (the ranges in the proportions that
# random draws give) so that every seed gets the same spread of job costs.
M_RANGES = ((5, 10),) * 8 + ((10, 15),) * 5 + ((15, 20),) * 4 + ((20, 25),) * 2 + ((25, 40),)


def _fractional_input(slot_index, variant):
    """The slot fixes the graph family, the range of m and the demand kind;
    the variant draws the graph, the base vertex u and the demand."""
    rng = gen.rng_for("frac", slot_index, variant)
    family = slot_index % 3
    lo, hi = M_RANGES[(slot_index // 6) % len(M_RANGES)]
    for _ in range(10_000):
        n = rng.randint(6, 10)
        if family == 0:
            n, edges = gen.random_tree(rng, n)
        elif family == 1:
            n, edges = gen.random_bipartite(rng, n, 0.25)
        else:
            n, edges = gen.random_nonbipartite(rng, n, 0.2)
        u = rng.randrange(n)
        if lo <= len(gen.between_pairs(n, edges, u)) < hi:
            break
    else:
        raise RuntimeError(f"no fractional input for slot {slot_index} in range {lo}..{hi}")
    if (slot_index // 3) % 2 == 0:
        demand = gen.feasible_demand(rng, n, edges, u)
    else:
        demand = gen.random_demand(rng, n)
    return n, edges, u, demand


def _seeded_fractional_job(key, ctx, slot_index, variant):
    n, edges, u, demand = _fractional_input(slot_index, variant)
    return _fractional_job(key, ctx, ctx.ml.graph.Graph(n, edges), u, demand)


def _fractional_job(key, ctx, g, u, demand):
    n = g.n
    pr = ctx.ml.pairing

    def call():
        aux = pr.auxiliary_graph(g, u)
        return aux, pr.has_fractional_perfect_b_matching(aux, demand)

    def canon(raw):
        aux, res = raw
        return {
            "aux": [list(e) for e in aux.edges],
            "feasible": res.feasible,
            "disabling_set": None if res.feasible else sorted(res.disabling_set),
        }

    def validate(raw):
        """A 'yes' must carry an exact degree certificate on A_u plus the
        loop at u; a 'no' a stable set S with b(S) > b(N(S))."""
        aux, res = raw
        allowed = set(aux.edges) | {(u, u)}
        if res.feasible:
            load = dict.fromkeys(range(n), Fraction(0))
            for (a, b), x in res.certificate.items():
                if (a, b) not in allowed or x <= 0:
                    return False
                load[a] += x
                load[b] += x
            return all(load[v] == demand.get(v, 0) for v in range(n))
        s = res.disabling_set
        adj = aux.adjacency()
        if u in s or any(adj[v] & s for v in s):
            return False
        hood = set().union(*(adj[v] for v in s))
        return sum(demand.get(v, 0) for v in s) > sum(demand.get(v, 0) for v in hood)

    return Job(key, call, canon, validate)


def lp_polytope_slots():
    slots = []
    for spec in MA_SPECS:
        for u in range(SPEC_ORDER[spec]):
            slots.append((f"ma/{spec}/{u}", 1, lambda k, c, v, s=spec, u=u: _ma_job(k, c, s, u)))
    for spec, orbits in ORBITS.items():
        for u in orbits:
            slots.append((f"ma/{spec}/{u}", 1, lambda k, c, v, s=spec, u=u: _ma_job(k, c, s, u)))
    for spec in MSP_SPECS:
        for u in range(SPEC_ORDER[spec]):
            slots.append((f"msp/{spec}/{u}", 1, lambda k, c, v, s=spec, u=u: _msp_job(k, c, s, u)))
    slots.append(("dpp/counterexample", 1, lambda k, c, v: _dpp_job(k, c)))
    # A fractional perfect matching of A_u (demand 1 everywhere) for every
    # vertex of small named graphs: fixed jobs spread over the same cost
    # range as the seeded ones, which keeps the median steady across seeds.
    for spec in UNIFORM_SPECS:
        for u in range(SPEC_ORDER[spec]):
            slots.append((
                f"frac-uniform/{spec}/{u}",
                1,
                lambda k, c, v, s=spec, u=u: _fractional_job(
                    k, c, c.spec_graph(s), u, dict.fromkeys(range(SPEC_ORDER[s]), 1)
                ),
            ))
    for i in range(FRACTIONAL_SLOTS):
        slots.append((f"frac/{i}", VARIANTS, lambda k, c, v, i=i: _seeded_fractional_job(k, c, i, v)))
    return slots


# -- recognize --------------------------------------------------------------------

RECOGNIZE_FIXED = ("grid:6,6", "grid:4,8", "hypercube:5", "bhat:8", "bn:8")
ANCHOR_DIAMETER = {11: 6, 17: 7}
GRID_SHAPES = {
    6: ((2, 3), (3, 2)),
    8: ((2, 4), (4, 2)),
    10: ((2, 5), (5, 2)),
    12: ((2, 6), (3, 4), (4, 3), (6, 2)),
    15: ((3, 5), (5, 3)),
    16: ((2, 8), (4, 4), (8, 2)),
    18: ((2, 9), (3, 6), (6, 3), (9, 2)),
    20: ((4, 5), (5, 4), (2, 10), (10, 2)),
    24: ((4, 6), (6, 4), (3, 8), (8, 3)),
}


def _classify_job(key, ctx, g):
    cl = ctx.ml.classify
    return Job(key, lambda: cl.classify(g), lambda r: r.as_dict())


def _recognize_graph(ctx, family, size, dup, variant):
    ml = ctx.ml
    rng = gen.rng_for("recognize", family, size, dup, variant)
    if family == "grid":
        m, k = GRID_SHAPES[size][variant]
        return ctx.spec_graph(f"grid:{m},{k}")
    if family == "benzenoid":
        return ml.benzenoid.build_benzenoid(gen.random_benzenoid(rng, size)).graph
    if family == "tree":
        n, edges = gen.random_tree(rng, size)
    elif family == "anchor-tree":
        n, edges = gen.random_tree(rng, size, ANCHOR_DIAMETER[size])
    elif family == "bipartite":
        n, edges = gen.random_bipartite(rng, size, 0.15)
    else:
        n, edges = gen.random_nonbipartite(rng, size, 0.15)
    return ml.graph.Graph(n, edges)


def recognize_slots():
    slots = [
        (f"fixed/{spec}", 1, lambda k, c, v, s=spec: _classify_job(k, c, c.spec_graph(s)))
        for spec in RECOGNIZE_FIXED
    ]
    sized = [("grid", a, len(shapes)) for a, shapes in GRID_SHAPES.items()]
    sized += [("tree", n, VARIANTS) for n in range(10, 21)]
    sized += [("benzenoid", c, VARIANTS) for c in range(2, 14) for _ in (0, 1)]
    sized += [("bipartite", n, VARIANTS) for n in range(8, 21) for _ in (0, 1)]
    sized += [("nonbipartite", n, VARIANTS) for n in range(8, 21) for _ in (0, 1)]
    # Every triple scan runs to the end on a tree, so a tree's cost is set
    # mostly by its order and diameter.  Blocks of trees with both fixed put
    # many jobs of similar cost at the median and at the 90th percentile, so
    # the seed's draw of the other families moves those quantiles little.
    sized += [("anchor-tree", 11, VARIANTS)] * 30 + [("anchor-tree", 17, VARIANTS)] * 20
    seen = {}
    for family, size, count in sized:
        dup = seen.get((family, size), 0)
        seen[(family, size)] = dup + 1
        slots.append((
            f"{family}/{size}/{dup}",
            count,
            lambda k, c, v, f=family, s=size, d=dup: _classify_job(
                k, c, _recognize_graph(c, f, s, d, v)
            ),
        ))
    return slots


# -- cli_sweep --------------------------------------------------------------------

CLI_SPECS = (
    ("cycle:6", 6), ("cycle:7", 7), ("cycle:8", 8), ("path:7", 7), ("grid:2,4", 8),
    ("grid:3,3", 9), ("hypercube:3", 8), ("kmn:2,3", 5), ("kmn:3,3", 6), ("bn:4", 8),
    ("bhat:4", 10), ("complete:5", 5),
)
SMALL_SPECS = ("cycle:6", "cycle:7", "hypercube:3", "grid:3,3", "kmn:2,3", "path:7")
CONSENSUS_SPECS = ("cycle:6", "cycle:5", "path:5", "grid:2,3", "kmn:2,3")
AXIOMS = ("A", "B", "C", "T", "Tminus", "T2", "Ek")
# The two command lines that crash the seed program (an IndexError and a
# RecursionError, each leaving with exit 1 and no report).  They are judged
# by the exit-code contract only, so they fail until the program is fixed.
CRASHES = (
    ("crash/median-out-of-range", ["median", "cycle:6", "--profile", "9"]),
    ("crash/pairing-deep", ["pairing", "check", "cycle:6", "--profile", "0:1500 3:1500"]),
)


def _canon_cli(raw):
    code, out = raw
    return {"exit": code, "stdout": out}


def _cli_job(key, ctx, argv, contract_only=False):
    cli = ctx.ml.cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return Job(key, call, _canon_cli, cli=True, contract_only=contract_only)


def _cli_argv(ctx, slot, i, variant):
    """Command line of one seeded CLI slot.  The slot fixes the verb, the
    graph and the sizes; the variant draws profiles, graphs and cell sets.
    Files the command reads are written here, during set-up."""
    rng = gen.rng_for("cli", slot, i, variant)
    spec, n = CLI_SPECS[i % len(CLI_SPECS)]
    if slot == "median":
        return ["median", spec, "--profile",
                gen.random_profile(rng, n, rng.randint(1, 5), 12, even=False)]
    if slot == "pcheck":
        return ["pairing", "check", spec, "--profile",
                gen.random_profile(rng, n, rng.randint(1, 4), 12, even=True)]
    if slot == "gfile":
        family = (i // 2) % 3
        n = 6 + 2 * ((i // 6) % 5)
        if family == 0:
            n, edges = gen.random_tree(rng, n)
        elif family == 1:
            n, edges = gen.random_bipartite(rng, n, 0.2)
        else:
            n, edges = gen.random_nonbipartite(rng, n, 0.15)
        path = ctx.write(f"graph-{i}-{variant}.txt", gen.graph_text(n, edges))
        if i % 2:
            return ["pairing", "check", path, "--profile",
                    gen.random_profile(rng, n, rng.randint(1, 4), 12, even=True)]
        return ["median", path, "--profile",
                gen.random_profile(rng, n, rng.randint(1, 5), 12, even=False)]
    if slot == "l6eval":
        return ["consensus", "l6", "--profile",
                gen.random_profile(rng, 6, rng.randint(1, 4), 3, even=False)]
    cells = gen.random_benzenoid(rng, 2 + i % 7)
    path = ctx.write(f"{slot}-{i}-{variant}.cells", gen.cells_text(cells))
    if slot == "bzverify":
        return ["benzenoid", "verify", path, "--support", "2", "--mult", "1"]
    return ["benzenoid", slot[2:], path]


SEEDED_CLI = (
    ("median", 60), ("pcheck", 60), ("gfile", 30), ("l6eval", 6),
    ("bzbuild", 10), ("bzembed", 10), ("bzverify", 10),
)


def _fixed_cli():
    """(key, argv) of the CLI jobs whose input is their parameters alone."""
    fixed = []
    vcm = (
        ("cycle:6", 2, 3, 2), ("cycle:7", 1, 3, 2), ("hypercube:3", 1, 3, 2),
        ("grid:3,3", 1, 2, 3), ("kmn:2,3", 1, 3, 2), ("path:7", 2, 3, 2),
        ("cycle:6", 1, 2, 2), ("hypercube:3", 2, 2, 2), ("grid:3,3", 2, 2, 2),
        ("cycle:7", 2, 2, 2),
    )
    for i, (spec, power, support, mult) in enumerate(vcm):
        fixed.append((f"vcm/{i}", ["verify-connected-medians", spec, "--power", str(power),
                                   "--support", str(support), "--mult", str(mult)]))
    for i in range(10):
        spec = SMALL_SPECS[i % len(SMALL_SPECS)]
        fixed.append((f"psearch/{i}", ["pairing", "search", spec,
                                       "--support", str(2 + i % 2), "--mult", "2"]))
    for i in range(21):
        spec = CONSENSUS_SPECS[i % len(CONSENSUS_SPECS)]
        axiom = AXIOMS[i % len(AXIOMS)]
        argv = ["consensus", "check", spec, "--axiom", axiom, "--max-len", str(3 + (i // 7) % 2)]
        if axiom == "Ek":
            argv += ["--k", str(1 + i % 2)]
        if spec == "cycle:6" and i % 2:
            argv += ["--function", "l6"]
        fixed.append((f"axiom/{i}", argv))
    for i in range(6):
        spec = CONSENSUS_SPECS[i % len(CONSENSUS_SPECS)]
        fixed.append((f"tabulate/{i}", ["consensus", "tabulate-med", spec, "--max-len", str(3 + i % 2)]))
    fixed += [
        ("verify-l6", ["consensus", "verify-l6", "--max-len", "4"]),
        ("construct/pairing", ["construct", "counterexample", "--kind", "pairing"]),
        ("construct/double", ["construct", "counterexample", "--kind", "double"]),
        # manifest paths are relative to the repository root, the run's cwd
        ("corpus", ["corpus", "manifests/acceptance.json"]),
    ]
    return fixed


def cli_sweep_slots():
    slots = []
    for slot, count in SEEDED_CLI:
        for i in range(count):
            slots.append((
                f"{slot}/{i}",
                VARIANTS,
                lambda k, c, v, s=slot, i=i: _cli_job(k, c, _cli_argv(c, s, i, v)),
            ))
    for key, argv in _fixed_cli():
        slots.append((key, 1, lambda k, c, v, a=argv: _cli_job(k, c, a)))
    for key, argv in CRASHES:
        slots.append((key, 1, lambda k, c, v, a=argv: _cli_job(k, c, a, contract_only=True)))
    return slots


WORKLOADS = {
    "lp_polytope": lp_polytope_slots,
    "recognize": recognize_slots,
    "cli_sweep": cli_sweep_slots,
}


def choose(workload, seed):
    """(slot key, variant) pairs of one run, in the seed's job order."""
    rng = random.Random(seed)
    picks = [(key, rng.randrange(count), make) for key, count, make in WORKLOADS[workload]()]
    rng.shuffle(picks)
    return picks


def build_jobs(ml, workload, seed):
    """Build every input and the Graphs behind them; returns the job list."""
    ctx = Setup(ml)
    return [make(f"{key}#{variant}", ctx, variant) for key, variant, make in choose(workload, seed)]


def all_variant_jobs(ml, workload):
    """Every (slot, variant) job, for recording the reference outputs."""
    ctx = Setup(ml)
    for key, count, make in WORKLOADS[workload]():
        for variant in range(count):
            yield make(f"{key}#{variant}", ctx, variant)
