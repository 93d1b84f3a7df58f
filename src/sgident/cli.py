"""Command-line front end.

Subcommands: ``check`` (identity verdict as a JSON report), ``witness``
(falsifying morphism as matrix text), ``closure`` (family enumeration dump),
``poly`` (embedding polynomial rendering), ``verify`` (acceptance suites).

Exit codes: 0 success, 1 the identity fails (a valid mathematical answer, so
pipelines can branch on it), 2 usage error, 3 internal-consistency error,
meaning a fact the mathematics guarantees failed to verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .acceptance import SUITES, run_suite
from .checker import run_check
from .errors import (
    AlgebraError,
    BudgetExceededError,
    ClosureCapExceeded,
    InternalConsistencyError,
)
from .matrices import format_matrix
from .monoids import FAMILY_NAMES, family
from .polynomials import build_f, build_f_canonical
from .semirings import semiring_from_spec
from .words import Identity, check_word

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3

SEED_ENV = "SGIDENT_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _emit(text: str, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader stopped early (``| head``).  What is still buffered goes
        # to os.devnull, so the flush at interpreter exit cannot raise again,
        # and the command keeps its own exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _add_output(parser):
    parser.add_argument("--output", default=None, help="write the result to a file instead of stdout")


def _add_check_args(parser):
    parser.add_argument("--monoid", required=True, choices=("ut", "u", "r"))
    parser.add_argument("--n", required=True, type=int)
    parser.add_argument("--semiring", required=True, help="bool | nat | nat:<i>,<p> | maxplus | minplus01inf | interval01 | lattice:diamond")
    parser.add_argument("--budget", type=int, default=4096, help="samples per u for ut checks over nat, instances without a tropical shape and finite carriers past the exhaustive cap; the tropical instances and finite carriers within the cap are decided exactly and do not read it")
    parser.add_argument("--verify-samples", type=int, default=1000, help="random morphisms backing a holds verdict on the reflexive monoid")
    parser.add_argument("identity", help="identity as <word>=<word> over a-z")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: $SGIDENT_SEED or 0)")
    _add_output(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgident",
        description="Semigroup identity checking in triangular, reflexive, and gossip matrix monoids over exact semirings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide an identity and emit a report")
    _add_check_args(p_check)
    p_check.add_argument("--format", choices=("json", "text"), default="json")
    p_check.add_argument(
        "--stable-output",
        action="store_true",
        help="omit timing so identical argv and seed give byte-identical output",
    )

    p_witness = sub.add_parser("witness", help="print the falsifying morphism, if any")
    _add_check_args(p_witness)

    p_closure = sub.add_parser("closure", help="enumerate a monoid family")
    p_closure.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_closure.add_argument("--n", required=True, type=int)
    p_closure.add_argument("--semiring", default=None)
    p_closure.add_argument("--s-sample", default=None, help="comma-separated call weights for the weighted families")
    p_closure.add_argument("--element-cap", type=int, default=None)
    p_closure.add_argument("--index-bound", choices=("n", "n-1"), default="n")
    p_closure.add_argument("--max-n", type=int, default=None, help="override the per-family n bound")
    _add_output(p_closure)

    p_poly = sub.add_parser("poly", help="print an embedding polynomial")
    p_poly.add_argument("--u", required=True, help="the subword (may be empty: '')")
    p_poly.add_argument("--w", required=True)
    p_poly.add_argument("--rho", default=None, help="comma-separated path vertices (default 1..|u|+1)")
    p_poly.add_argument("--n", type=int, default=None, help="vertex range bound when --rho is given")
    _add_output(p_poly)

    p_verify = sub.add_parser("verify", help="run an acceptance suite")
    p_verify.add_argument("suite", choices=tuple(sorted(SUITES)) + ("all",))
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    _add_output(p_verify)

    return parser


def _run_check(args):
    """The report for the identity, monoid, instance, seed and counts of a
    ``check`` or ``witness`` command line."""
    seed = args.seed if args.seed is not None else _default_seed()
    S = semiring_from_spec(args.semiring)
    return run_check(
        args.monoid, Identity.parse(args.identity), args.n, S,
        seed=seed, budget=args.budget, verify_samples=args.verify_samples,
    )


def _cmd_check(args) -> int:
    report = _run_check(args)
    if args.format == "json":
        payload = report.to_dict(stable=args.stable_output)
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        lines = [
            f"identity: {report.identity}",
            f"monoid: {args.monoid}  n: {args.n}  semiring: {report.semiring}",
            f"outcome: {report.verdict.outcome}  ({report.verdict.criterion})",
        ]
        if report.verdict.distinguishing_u is not None:
            lines.append(f"distinguishing u: {report.verdict.distinguishing_u}")
        _emit("\n".join(lines), args.output)
    return EXIT_FAILS if report.verdict.is_fails else EXIT_OK


def _cmd_witness(args) -> int:
    report = _run_check(args)
    ident, verdict = report.identity, report.verdict
    if not verdict.is_fails:
        _emit(
            f"identity {ident} does not fail in {args.monoid}_{args.n}({report.semiring}) "
            f"(outcome: {verdict.outcome}); no witness",
            args.output,
        )
        return EXIT_OK
    lines = [
        f"identity: {ident}",
        f"monoid: {args.monoid}  n: {args.n}  semiring: {report.semiring}",
        f"distinguishing u: {verdict.distinguishing_u or ''}",
        f"entry: {verdict.witness_entry[0]} {verdict.witness_entry[1]}",
    ]
    for letter, image in verdict.witness.images.items():
        lines.append(f"{letter} = {format_matrix(image)}")
    _emit("\n".join(lines), args.output)
    return EXIT_FAILS


def _cmd_closure(args) -> int:
    S = semiring_from_spec(args.semiring) if args.semiring else None
    sample = None
    if args.s_sample is not None:
        if S is None:
            raise AlgebraError("--s-sample needs --semiring")
        sample = tuple(S.parse_value(part) for part in args.s_sample.split(","))
    result = family(
        args.family,
        args.n,
        S,
        s_sample=sample,
        element_cap=args.element_cap,
        index_bound=args.index_bound,
        max_n=args.max_n,
    )
    header = f"family={args.family} n={args.n} semiring={result.semiring.name}"
    if sample is not None:
        header += " s_sample=" + ",".join(result.semiring.format_value(v) for v in sample)
    header += f" count={len(result)}"
    lines = [header]
    for idx, element in enumerate(result.elements):
        lines.append(f"{format_matrix(element)}\t{result.witness_word(idx)}")
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def _cmd_poly(args) -> int:
    u = check_word(args.u)
    w = check_word(args.w, allow_empty=False)
    if args.n is not None and args.rho is None:
        raise ValueError("--n bounds the vertices of --rho; pass --rho with it")
    if args.rho is not None:
        rho = tuple(int(part) for part in args.rho.split(","))
        n = args.n if args.n is not None else max(rho)
        poly = build_f(u, rho, w, n)
    else:
        poly = build_f_canonical(u, w)
    _emit(poly.render(), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    results = []
    for name in names:
        for outcome, elapsed_s in run_suite(name):
            results.append({
                "suite": name, "check": outcome.name, "ok": outcome.ok,
                "detail": outcome.detail, "elapsed_s": elapsed_s,
            })
            all_ok = all_ok and outcome.ok
    if args.format == "json":
        _emit(json.dumps({"results": results, "ok": all_ok}, indent=2), args.output)
    else:
        lines = [
            f"{'PASS' if r['ok'] else 'FAIL'} {r['suite']}/{r['check']}: {r['detail']}"
            for r in results
        ]
        lines.append(f"{'PASS' if all_ok else 'FAIL'} overall")
        _emit("\n".join(lines), args.output)
    return EXIT_OK if all_ok else EXIT_INCONSISTENT


_COMMANDS = {
    "check": _cmd_check,
    "witness": _cmd_witness,
    "closure": _cmd_closure,
    "poly": _cmd_poly,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ClosureCapExceeded as exc:
        print(f"closure cap exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
