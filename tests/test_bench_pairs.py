"""The summary arithmetic of ``scripts/bench_pairs.py``."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _result(ops_per_s, op_p50_ms, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
        },
    }


def test_summary_of_alternating_pairs():
    parent = [(100.0, 3.0), (110.0, 2.0), (90.0, 4.0), (120.0, 2.5), (100.0, 3.5)]
    change = [(150.0, 1.0), (100.0, 2.0), (180.0, 2.0), (160.0, 1.5), (140.0, 1.0)]
    runs = [
        {"seed": 10 + i, "parent": _result(*p), "change": _result(*c, failed=i == 2)}
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["pairs"] == 5
    assert summary["failed_ops"] == {"parent": 0, "change": 1}
    assert summary["all_correct"] is True
    ops = summary["ops_per_s"]
    # inclusive quartiles of 90, 100, 100, 110, 120 and 100, 140, 150, 160, 180
    assert ops["parent"] == {"q1": 100.0, "median": 100.0, "q3": 110.0}
    assert ops["change"] == {"q1": 140.0, "median": 150.0, "q3": 160.0}
    assert ops["change_better_pairs"] == 4
    assert ops["change_vs_parent"] == 0.5
    p50 = summary["op_p50_ms"]
    assert p50["parent"] == {"q1": 2.5, "median": 3.0, "q3": 3.5}
    assert p50["change"] == {"q1": 1.0, "median": 1.5, "q3": 2.0}
    # lower is better here, and the tie at 2.0 counts for neither side
    assert p50["change_better_pairs"] == 4
    assert p50["change_vs_parent"] == -0.5


def test_quartiles_interpolate_and_round():
    assert bench_pairs.quartiles([1.0, 2.0, 4.0, 8.0]) == {"q1": 1.75, "median": 3.0, "q3": 5.0}
    assert bench_pairs.quartiles([1 / 3, 2 / 3]) == {"q1": 0.4167, "median": 0.5, "q3": 0.5833}


def test_an_incorrect_run_shows():
    runs = [
        {"seed": 1, "parent": _result(1.0, 1.0), "change": _result(1.0, 1.0, correct=False)},
        {"seed": 2, "parent": _result(1.0, 1.0), "change": _result(1.0, 1.0)},
    ]
    assert bench_pairs.summarize(runs, END_TO_END)["all_correct"] is False


def test_the_parent_runs_first_in_even_seeded_pairs():
    assert bench_pairs.run_order(2600) == ("parent", "change")
    assert bench_pairs.run_order(2601) == ("change", "parent")


def test_fewer_than_two_pairs_are_refused():
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--parent", "a", "--change", "b", "--first-seed", "1",
                                "--pairs", "1", "--out", "x.json"])
