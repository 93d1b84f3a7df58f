"""Compare the ``--stable-output`` check reports of two commits over a fixed plan.

    python3 scripts/stable_sweep.py --parent HEAD~1 --change HEAD

Each commit is extracted with ``git archive`` (``bench_pairs.extract``) and
runs the whole plan in a fresh interpreter of its own, with its ``src`` first
on ``PYTHONPATH``.  Every report is the text that ``sgident check --format
json --stable-output`` prints for it (seed 0, the default budget and
``verify_samples``).  The plan:

* ``ut`` on the identity corpus at n = 2..4 over bool, lattice:diamond,
  nat, nat:2,3, maxplus, minplus01inf and interval01 (over nat the u that
  the forms leave open are sampled, over interval01 a fails takes its
  witness from the hull as a max-times point);
* ``u`` on the corpus at n = 2..6 over bool, nat, nat:2,3 and
  lattice:diamond;
* ``r`` on the corpus at n = 2..6 over interval01 and minplus01inf;

and seeded long words (``long_words``), past the corpus's 8 letters:

* ``u`` over nat and nat:2,3 at n = 6..8 on a 40-letter ``w=w`` and
  ``w=rev(w)``;
* ``ut`` over bool and lattice:diamond at n = 5 on
  ``a(abc)^e c=a(abc)^(e+1) c`` for e = 7, 8;
* ``r`` over minplus01inf at n = 6 on a 160-letter ``w=w``.

Prints the number of reports and the first that differs, and exits 1 when
one does.
"""

import argparse
import difflib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import extract, git

PLAN = (
    ("ut", ("bool", "lattice:diamond", "nat", "nat:2,3", "maxplus", "minplus01inf", "interval01"),
     range(2, 5)),
    ("u", ("bool", "nat", "nat:2,3", "lattice:diamond"), range(2, 7)),
    ("r", ("interval01", "minplus01inf"), range(2, 7)),
)


def long_words() -> tuple:
    """The long-word cases as ``(monoid, specs, ns, identities)``; the
    words over {a, b, c, d} are drawn from ``random.Random(40)``."""
    from sgident.words import Identity

    rng = random.Random(40)
    w40, w160 = ("".join(rng.choice("abcd") for _ in range(k)) for k in (40, 160))
    laws = [Identity("a" + "abc" * e + "c", "a" + "abc" * (e + 1) + "c") for e in (7, 8)]
    return (
        ("u", ("nat", "nat:2,3"), range(6, 9), [Identity(w40, w40), Identity(w40, w40[::-1])]),
        ("ut", ("bool", "lattice:diamond"), (5,), laws),
        ("r", ("minplus01inf",), (6,), [Identity(w160, w160)]),
    )


def emit() -> None:
    """Print the plan's reports as one JSON list of ``[label, text]``, with
    the sgident found first on ``sys.path``."""
    from sgident.checker import corpus, run_check
    from sgident.semirings import semiring_from_spec

    out = []
    cases = [(monoid, specs, ns, corpus()) for monoid, specs, ns in PLAN]
    for monoid, specs, ns, identities in cases + list(long_words()):
        for spec in specs:
            S = semiring_from_spec(spec)
            for ident in identities:
                for n in ns:
                    report = run_check(monoid, ident, n, S)
                    payload = json.dumps(report.to_dict(stable=True), indent=2, sort_keys=True)
                    out.append([f"{monoid} {ident} n={n} {spec}", payload])
    json.dump(out, sys.stdout)


def reports(checkout: Path) -> list:
    scripts = Path(__file__).resolve().parent
    env = {
        **os.environ,
        "PYTHONPATH": f"{checkout / 'src'}{os.pathsep}{scripts}",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    command = [sys.executable, "-c", "import stable_sweep; stable_sweep.emit()"]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: the plan failed in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    args = parser.parse_args(argv)
    shas = [git("rev-parse", rev) for rev in (args.parent, args.change)]
    with tempfile.TemporaryDirectory(prefix="stable_sweep_") as work:
        parent, change = (
            reports(extract(sha, Path(work) / side))
            for sha, side in zip(shas, ("parent", "change"))
        )
    print(f"{len(parent)} reports of {shas[0][:10]} against {len(change)} of {shas[1][:10]}")
    for (label, old), (_, new) in zip(parent, change):
        if old != new:
            print(f"first differing report: {label}")
            diff = difflib.unified_diff(
                old.splitlines(), new.splitlines(), "parent", "change", lineterm=""
            )
            print("\n".join(list(diff)[:60]))
            return 1
    if len(parent) != len(change):
        print("the plans differ in length")
        return 1
    print("0 differing reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
