"""Every report shape the CLI prints, byte for byte, and the one encoder
behind them.

`tests/data/report_golden.json` holds argv, exit code and stdout for each
leaf verb, exit-1 witness shapes included; its inputs live under
`tests/data/report_inputs` and are named repo-relative, since stdout echoes
the command.  Re-record it with

    PYTHONPATH=src python tests/test_reports.py

only when a report is meant to change.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from medianlab.cli import main
from medianlab.consensus import AxiomResult
from medianlab.profiles import Profile
from medianlab.report import jsonable

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "report_golden.json"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_report_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 53
    assert sum(entry["exit"] == 1 for entry in golden) >= 17
    for entry in golden:
        code, out = _run(entry["argv"])
        assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]


def test_axiom_witness_sets_print_sorted():
    # a frozenset iterates in hash-table order: {1, 8} comes out as 8, 1
    result = AxiomResult("B", False, ((1, 8), frozenset({1, 8})))
    assert result.as_dict() == {"axiom": "B", "holds": False, "witness": [[1, 8], [1, 8]]}
    assert "note" not in AxiomResult("C", True).as_dict()


def test_jsonable_conversions():
    data = {"p": Profile.parse("0:2 3"), "s": {9, 1, 8}, "t": (1, (2, frozenset({8, 1})))}
    assert jsonable(data) == {"p": "0:2 3", "s": [1, 8, 9], "t": [1, [2, [1, 8]]]}
    assert jsonable([True, "x", 3, None]) == [True, "x", 3, None]


def record():
    os.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())
    for entry in golden:
        entry["exit"], entry["stdout"] = _run(entry["argv"])
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    record()
