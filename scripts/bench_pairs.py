"""Run the benchmark in alternating pairs on two commits and summarise them.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --first-seed 2601 --pairs 10 --out BENCH_26.json

Each commit is extracted with ``git archive`` into a fresh directory, so no
bytecode cache or untracked file of the working tree takes part, and every
run has ``PYTHONDONTWRITEBYTECODE=1``.  For each workload and each seed of
``first_seed .. first_seed + pairs - 1``, both commits run their own
``benchmark/run.py --workload W --seed S --seconds T --trace 0``, unchanged,
one after the other: the parent first when the seed is even, the change
first when it is odd.  The workloads and the run length T are the change's
``BENCHMARK.json`` ``workloads`` and ``run_seconds``.

The summary of a workload gives, per end-to-end metric of the change's
``BENCHMARK.json``, each side's median and inclusive quartiles, the pairs in
which the change is better (ties count for neither side), and the change's
median relative to the parent's; and the failed operations per side and
whether every run was correct.  It goes under ``summary_seeds_<first>_<last>``
next to the SHAs, the Python and numpy versions and the method, with every
run's metrics under ``runs_seeds_<first>_<last>``.  An output file that
already holds batches of the same two commits gains this one, and
``summary_all_pairs`` is recomputed over the runs of every batch.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--first-seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", help="the gain claimed, as text")
    parser.add_argument("--note", help="what the pairs show, as text")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    return args


def run_order(seed: int) -> tuple:
    """The sides of a pair in running order: the parent first on even seeds."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: list, end_to_end: list) -> dict:
    """One workload's summary from its runs, each ``{"seed", "parent",
    "change"}`` with a side's ``run.py`` result (``correct``, ``failed``,
    ``metrics``)."""
    summary = {
        "pairs": len(runs),
        "failed_ops": {side: sum(run[side]["failed"] for run in runs) for side in SIDES},
        "all_correct": all(run[side]["correct"] for run in runs for side in SIDES),
    }
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        sign = -1 if metric["better"] == "lower" else 1
        better = sum(
            sign * (change - parent) > 0
            for parent, change in zip(values["parent"], values["change"])
        )
        medians = [statistics.median(values[side]) for side in SIDES]
        summary[name] = {
            **{side: quartiles(values[side]) for side in SIDES},
            "change_better_pairs": better,
            "change_vs_parent": round(medians[1] / medians[0] - 1, 4),
        }
    return summary


def git(*args) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(sha: str, into: Path) -> Path:
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", sha], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "benchmark/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(command)} in {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    record = {}
    if args.out.exists():
        record = json.loads(args.out.read_text())
        if (record.get("parent"), record.get("change")) != (shas["parent"], shas["change"]):
            sys.exit(f"error: {args.out} holds pairs of other commits")
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    label = f"seeds_{seeds[0]}_{seeds[-1]}"
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        checkouts = {side: extract(shas[side], Path(work) / side) for side in SIDES}
        config = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        seconds = config["run_seconds"]
        workloads = [w["name"] for w in config["workloads"]]
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for seed in seeds:
                run = {"seed": seed}
                for side in run_order(seed):
                    run[side] = run_once(checkouts[side], workload, seed, seconds)
                runs[workload].append(run)
                print(f"{workload} seed {seed}: "
                      + ", ".join(f"{side} {run[side]['metrics']['ops_per_s']['value']:.1f} ops/s"
                                  for side in SIDES), file=sys.stderr)
    method = (
        f"python3 benchmark/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0, "
        "in fresh git archive copies of both commits (PYTHONDONTWRITEBYTECODE=1), one pair "
        "per seed and workload, the parent first in even-seeded pairs and the change first "
        "in odd ones; quartiles by statistics.quantiles(method='inclusive'); written by "
        "scripts/bench_pairs.py"
    )
    record.update({
        **shas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "method": method,
        "claim": args.claim if args.claim is not None else record.get("claim"),
        "note": args.note if args.note is not None else record.get("note"),
        f"summary_{label}": {w: summarize(runs[w], config["end_to_end"]) for w in workloads},
        f"runs_{label}": runs,
    })
    every = {}
    for key, batch in record.items():
        if key.startswith("runs_"):
            for workload, batch_runs in batch.items():
                every.setdefault(workload, []).extend(batch_runs)
    record["summary_all_pairs"] = {
        w: summarize(every[w], config["end_to_end"]) for w in sorted(every)
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
