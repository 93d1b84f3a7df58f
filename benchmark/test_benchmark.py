"""Tests of the benchmark itself: every reference check must reject a
corrupted output, and a short run of each workload must complete.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from sgident import checker, monoids  # noqa: E402
from sgident.semirings import semiring_from_spec  # noqa: E402
from sgident.words import Identity  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def report_text(monoid, spec, n, w, v):
    report = checker.run_check(monoid, Identity(w, v), n, semiring_from_spec(spec))
    return json.dumps(report.to_dict())


def with_verdict(text, outcome):
    report = json.loads(text)
    report["verdict"]["outcome"] = outcome
    return json.dumps(report)


# -- truths -----------------------------------------------------------------------------


def test_subsequence_counts_enumerate_index_combinations():
    counts = reference.subsequence_counts("aabb", 2)
    assert counts["ab"] == 4 and counts["ba"] == 0 and counts["a"] == 2


def test_law_instances_hold_and_one_power_less_fails():
    for n, q in ((3, "abcd"), (4, "bca"), (4, "aab")):
        w, v = "a" + q * n + "b", "a" + q * (n + 1) + "b"
        assert reference.expected_verdict("ut", "bool", n, w, v) == "holds"
        assert reference.simon_congruent(w, v, n - 1)
        w, v = "a" + q * (n - 1) + "b", "a" + q * n + "b"
        assert reference.expected_verdict("ut", "bool", n, w, v) == "fails"


def test_truncated_nat_counts_wrap():
    # p q^3 r and p q^6 r agree in U_3(nat:2,3) but not in U_4(nat:2,3)
    w, v = "a" + "ab" * 3 + "b", "a" + "ab" * 6 + "b"
    assert reference.expected_verdict("u", "nat:2,3", 3, w, v) == "holds"
    assert reference.expected_verdict("u", "nat:2,3", 4, w, v) == "fails"


def test_adjan_instances_are_recognised():
    w, v = workloads._adjan("ab", "c")
    assert reference.adjan_instance(w, v)
    assert reference.expected_verdict("ut", "interval01", 2, w, v) == "not-fails"
    assert not reference.adjan_instance(v, w)


def test_family_sizes_from_the_formula_and_the_literature():
    assert [reference.expected_size("catalanU", n) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert reference.expected_size("gossip", 4) == 189


# -- corrupted outputs are rejected ----------------------------------------------------------


def test_report_check_accepts_right_verdicts():
    for args in (
        ("ut", "bool", 3, "aabab", "aababab"),
        ("u", "nat:2,3", 4, "a" + "ab" * 3 + "b", "a" + "ab" * 6 + "b"),
        ("r", "minplus01inf", 3, "abab", "abba"),
        ("ut", "lattice:diamond", 3, "ab", "ba"),
    ):
        assert reference.check_report(report_text(*args), *args) == []


@pytest.mark.parametrize(
    "args",
    [
        ("ut", "bool", 3, "a" + "ab" * 3 + "b", "a" + "ab" * 4 + "b"),
        ("ut", "bool", 3, "a" + "ab" * 2 + "b", "a" + "ab" * 3 + "b"),
        ("u", "nat:2,3", 3, "abab", "abba"),
        ("r", "interval01", 3, "abab", "baba"),
    ],
)
def test_flipped_verdict_is_rejected(args):
    text = report_text(*args)
    outcome = json.loads(text)["verdict"]["outcome"]
    flipped = with_verdict(text, "fails" if outcome == "holds" else "holds")
    assert reference.check_report(flipped, *args)


@pytest.mark.parametrize(
    "args",
    [
        ("ut", "bool", 3, "a" + "ab" * 2 + "b", "a" + "ab" * 3 + "b"),
        ("u", "nat:2,3", 4, "a" + "ab" * 3 + "b", "a" + "ab" * 6 + "b"),
        ("r", "minplus01inf", 3, "aab", "aba"),
        ("r", "interval01", 4, "abab", "baba"),
        ("ut", "lattice:diamond", 2, "ab", "ba"),
    ],
)
def test_witness_with_one_entry_changed_is_rejected(args):
    report = json.loads(report_text(*args))
    witness = report["verdict"]["witness"]
    assert reference.check_report(json.dumps(report), *args) == []
    # break the path the witness runs along: the first step of the
    # distinguishing entry becomes zero in every image that carries it
    arith = reference.Arith(args[1])
    zero = {"bool": "0", "lattice:diamond": "0", "minplus01inf": "inf"}.get(args[1], "0")
    i, _ = witness["entry"]
    broken = False
    for letter, text in witness["images"].items():
        rows = [row.split() for row in text.split(";")]
        if arith.parse(rows[i - 1][i]) != arith.zero:
            rows[i - 1][i] = zero
            witness["images"][letter] = "; ".join(" ".join(r) for r in rows)
            broken = True
            break
    assert broken
    assert reference.check_report(json.dumps(report), *args)


def test_witness_outside_the_monoid_is_rejected():
    args = ("u", "nat:2,3", 3, "abab", "abba")
    report = json.loads(report_text(*args))
    images = report["verdict"]["witness"]["images"]
    letter = sorted(images)[0]
    rows = [row.split() for row in images[letter].split(";")]
    rows[1][0] = "1"  # below the diagonal
    images[letter] = "; ".join(" ".join(r) for r in rows)
    assert reference.check_report(json.dumps(report), *args)


def closure_data(name, n, spec):
    S = semiring_from_spec(spec) if name.endswith("_S") else None
    M = monoids.family(name, n, S)
    return M, workloads._closure_capture(name, n, spec)(M)


@pytest.mark.parametrize(
    "family", [("gossip", 3, "bool"), ("catalanU", 4, "bool"), ("gossip_S", 3, "minplus01inf")]
)
def test_closure_missing_one_element_is_rejected(family):
    _, data = closure_data(*family)
    assert reference.check_closure(data) == []
    for drop in (0, len(data["elements"]) - 1):
        cut = dict(data)
        cut["elements"] = data["elements"][:drop] + data["elements"][drop + 1:]
        cut["words"] = data["words"][:drop] + data["words"][drop + 1:]
        assert reference.check_closure(cut)


def test_table_with_one_entry_changed_is_rejected():
    M, data = closure_data("oneWayGossip", 3, "bool")
    table = M.mult_table().copy()
    assert reference.check_table(data, table) == []
    table[5, 7] = (table[5, 7] + 1) % len(M)
    assert reference.check_table(data, table)


def test_bruteforce_results_are_checked():
    M, data = closure_data("gossip", 3, "bool")
    holds = ("a" + "ab" * 2 + "b", "a" + "ab" * 3 + "b")
    fails = ("a" + "ab" + "b", "a" + "ab" * 2 + "b")
    result = monoids.brute_force_identity(Identity(*holds), M)
    assert reference.check_bruteforce(data, *holds, {"holds": result.assignments_checked}) == []
    assert reference.check_bruteforce(data, *holds, {"holds": result.assignments_checked - 1})
    capture = workloads._bruteforce({"M": M}, None, ("gossip", 3), *fails).capture
    found = capture(monoids.brute_force_identity(Identity(*fails), M))
    assert reference.check_bruteforce(data, *fails, found) == []
    assert reference.check_bruteforce(data, *fails, {"holds": len(M) ** 2})
    moved = dict(found, fails=dict(found["fails"], a=0), matrices=dict(found["matrices"]))
    moved["matrices"]["a"] = data["elements"][0]
    assert reference.check_bruteforce(data, *fails, moved)


# -- runs ------------------------------------------------------------------------------------


def run_benchmark(cwd, workload, trace):
    command = [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "workload, trace",
    [("decide-finite", 1), ("decide-interval", 0), ("closure-oracle", 1)],
)
def test_smoke_run_completes(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_run_without_sources_fails(tmp_path):
    (tmp_path / "benchmark").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "benchmark" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = run_benchmark(tmp_path, "decide-finite", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_same_seed_same_inputs():
    labels = [op.label for op in workloads.build("closure-oracle", 5, 1)]
    assert labels == [op.label for op in workloads.build("closure-oracle", 5, 1)]
    assert labels != [op.label for op in workloads.build("closure-oracle", 6, 1)]
    seconds = SPEC["run_seconds"]
    for workload in workloads.WORKLOADS:
        rounds = workloads.rounds_for(workload, seconds)
        assert rounds >= 2
        one_round = workloads.build(workload, 5, 1)
        assert len(workloads.build(workload, 5, seconds)) == rounds * len(one_round)
