"""Run one benchmark workload against the sgident sources of this checkout.

    python3 benchmark/run.py --workload decide-finite --seed 1 --seconds 20 --trace 0

The workload's seeded list of operations runs once, in order, in this one
process and thread; each operation starts when the previous one returns.
``--seconds`` fixes how many rounds the list holds (see
``workloads.ROUND_SECONDS``); nothing is cut off when time runs out.  After
the timed loop every output is judged by ``reference``, which shares no
code with sgident.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Per-operation times (and, traced, the spans) go to ``.bench_out/``.
"""

import os

# one thread: numpy must not fan out on the two cores the host offers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("decide-finite", "decide-interval", "closure-oracle")
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workloads():
    """Import sgident from this checkout's ``src`` and nowhere else."""
    if not (SRC / "sgident" / "__init__.py").is_file():
        sys.exit(f"error: no sgident sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import sgident

    if Path(sgident.__file__).resolve().parent != SRC / "sgident":
        sys.exit(f"error: sgident imported from {sgident.__file__}, not {SRC}")
    import workloads

    return workloads


def measure_setup(args) -> float:
    """Median, over fresh interpreters, of the time from starting the process
    to having sgident imported and the inputs built."""
    samples = []
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        probe = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if probe.returncode != 0:
            sys.exit(f"error: set-up probe failed: {probe.stderr.strip()}")
        samples.append(float(probe.stdout.split()[-1]) - started)
    return statistics.median(samples)


def run_ops(ops, tracer) -> list:
    durations = []
    perf = time.perf_counter
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i
        with tracer.span("op") if tracer else nullcontext():
            start = perf()
            try:
                output = op.run(tracer)
            except Exception as exc:  # an operation that raises is counted as failed
                durations.append(perf() - start)
                op.problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                durations.append(perf() - start)
                op.data = op.capture(output)
                del output
        if op.release:
            op.release()
    return durations


def judge(ops) -> int:
    """Run the reference checks; returns how many outputs were wrong."""
    wrong = 0
    for op in ops:
        if op.problems:
            continue
        try:
            op.problems = op.check(op.data)
        except Exception as exc:  # malformed output the check cannot read
            op.problems = [f"check raised {type(exc).__name__}: {exc}"]
        wrong += bool(op.problems)
    return wrong


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_workloads()
    ops = workloads.build(args.workload, args.seed, args.seconds)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup_s = measure_setup(args)
    try:
        durations = run_ops(ops, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    judged = time.perf_counter()
    wrong = judge(ops)
    print(f"reference checks took {time.perf_counter() - judged:.2f} s", file=sys.stderr)
    failed = sum(1 for op in ops if op.problems)
    done = [d for d, op in zip(durations, ops) if op.data is not None]
    ops_per_s = len(done) / sum(done) if done else 0.0

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_s": ops_per_s,
        "ops": [
            {"kind": op.kind, "label": op.label, "seconds": d, "problems": op.problems}
            for op, d in zip(ops, durations)
        ],
    }
    if tracer:
        metrics = tracing.layer_metrics(tracer)
        record["trace_data"] = tracer.dump()
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(done or durations) * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    for op in ops:
        if op.problems:
            print(f"FAILED {op.kind} {op.label}: {'; '.join(op.problems)}", file=sys.stderr)
    print(f"{len(ops)} operations, {failed} failed, {ops_per_s:.4f} ops/s", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
