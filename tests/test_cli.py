import errno
import importlib.resources
import json
import os
import sys
from pathlib import Path

import jsonschema
import pytest

from sgident.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    ref = importlib.resources.files("sgident") / "schemas" / "check_report.schema.json"
    return json.loads(ref.read_text())


def test_check_holds_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "u", "--n", "3", "--semiring", "bool", "abab=abba"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["outcome"] == "holds"


def test_check_fails_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "u", "--n", "3", "--semiring", "nat", "abab=abba"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"]["outcome"] == "fails"
    assert payload["verdict"]["distinguishing_u"] == "ab"


def test_one_element_carrier_with_more_variables_than_numpy_axes(capsys):
    # 22 letters give 66 variables at |u| = 2; the carrier of nat:0,1 is {0},
    # so there is one assignment and the identity holds
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "ut", "--n", "3", "--semiring", "nat:0,1",
        "abcdefghijklmnopqrstuv=vutsrqponmlkjihgfedcba",
    )
    assert code == 0
    assert json.loads(out)["verdict"]["outcome"] == "holds"


def test_one_element_carrier_satisfies_every_reflexive_identity(capsys):
    # over nat:0,1 zero is one, so every matrix is the zero matrix
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "r", "--n", "3", "--semiring", "nat:0,1", "ab=ba"
    )
    assert code == 0
    assert json.loads(out)["verdict"]["outcome"] == "holds"
    code, out, _ = run_cli(
        capsys, "witness", "--monoid", "r", "--n", "3", "--semiring", "nat:0,1", "ab=ba"
    )
    assert code == 0 and "no witness" in out


@pytest.mark.parametrize("monoid", ["ut", "u", "r"])
def test_dimension_cap_is_checked_before_the_verdict(monoid, capsys):
    # ab=ab holds and ab=ba fails; both are refused the same way
    for identity in ("ab=ab", "ab=ba"):
        code, out, err = run_cli(
            capsys, "check", "--monoid", monoid, "--n", "9", "--semiring", "bool", identity
        )
        assert code == 2 and out == "" and "n=9 above the dimension cap 8" in err


def test_reports_validate_against_the_schema(capsys):
    schema = load_schema()
    reports = []
    for argv in (
        ("check", "--monoid", "u", "--n", "3", "--semiring", "bool", "--stable-output", "abab=abba"),
        ("check", "--monoid", "ut", "--n", "2", "--semiring", "nat:2,3", "xy=yx"),
        ("check", "--monoid", "r", "--n", "4", "--semiring", "interval01", "abab=abba"),
        ("check", "--monoid", "ut", "--n", "3", "--semiring", "bool", "--stable-output", "abab=abba"),
        ("check", "--monoid", "ut", "--n", "3", "--semiring", "bool", "abab=abba"),
    ):
        _, out, _ = run_cli(capsys, *argv)
        reports.append(json.loads(out))
        jsonschema.validate(reports[-1], schema)
    # work counters for ut only, and never under --stable-output
    assert ["counters" in report for report in reports] == [False, True, False, False, True]
    # the count of u that embed in neither side for ut only, and kept under
    # --stable-output
    assert ["u_words_unembedded" in report for report in reports] == [False, True, False, True, True]
    for report in reports:
        swapped = {**report, "monoid": "u" if report["monoid"] == "ut" else "ut"}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(swapped, schema)
    # the empty u is settled by its forms; the sides separate at u = a,
    # whose two polynomials are built to find the witness
    assert reports[-1]["verdict"]["distinguishing_u"] == "a"
    assert reports[-1]["counters"] == {
        "u_examined": 2, "settled_by_forms": 1, "polynomials_built": 2,
    }


def test_stable_output_is_byte_identical(capsys):
    argv = (
        "check", "--monoid", "r", "--n", "3", "--semiring", "minplus01inf",
        "--seed", "7", "--stable-output", "abab=abba",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, expected, argv",
    [
        # settled exactly at u = x and at u = y, whatever the budget
        ("check_ut2_interval01_adjan_budget64.json", 0, (
            "--semiring", "interval01", "--budget", "64", "xyyxxyxyyx=xyyxyxxyyx",
        )),
        # fails at u = a, with the witness of the hull's separating direction
        ("check_ut2_maxplus_ab_ba.json", 1, ("--semiring", "maxplus", "ab=ba")),
        # fails at u = a, the witness again from the separating direction
        ("check_ut2_maxplus_aabab_abaab.json", 1, ("--semiring", "maxplus", "aabab=abaab")),
    ],
)
def test_sampled_checks_keep_their_bytes(golden, expected, argv, capsys):
    # over the tropical instances neither --budget nor --seed moves these bytes
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "ut", "--n", "2", "--stable-output", *argv
    )
    assert code == expected
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("closure_catalanU4.txt", ("--family", "catalanU", "--n", "4")),
        ("closure_doubleCatalan4.txt", ("--family", "doubleCatalan", "--n", "4")),
        ("closure_gossip3.txt", ("--family", "gossip", "--n", "3")),
        ("closure_oneWayGossip3.txt", ("--family", "oneWayGossip", "--n", "3")),
        ("closure_gossipS3_bool.txt", ("--family", "gossip_S", "--n", "3", "--semiring", "bool")),
        ("closure_gossipS3_minplus01inf.txt", (
            "--family", "gossip_S", "--n", "3", "--semiring", "minplus01inf",
        )),
        ("closure_oneWayGossipS3_diamond_bound_n-1.txt", (
            "--family", "oneWayGossip_S", "--n", "3", "--semiring", "lattice:diamond",
            "--index-bound", "n-1",
        )),
    ],
)
def test_closures_keep_their_bytes(golden, argv, capsys):
    # element order, witness words and labels of the call families
    code, out, _ = run_cli(capsys, "closure", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "golden, expected, argv",
    [
        # holds: u = x and u = y settled by the hull
        ("check_ut2_maxplus_adjan.json", 0, ("--n", "2", "--semiring", "maxplus")),
        ("check_ut2_minplus01inf_adjan.json", 0, ("--n", "2", "--semiring", "minplus01inf")),
        # fails at u = xx, with the witness built from the hull's separating
        # direction
        ("check_ut3_maxplus_adjan.json", 1, ("--n", "3", "--semiring", "maxplus")),
        ("check_ut3_minplus01inf_adjan.json", 1, ("--n", "3", "--semiring", "minplus01inf")),
        ("check_ut3_interval01_adjan.json", 1, ("--n", "3", "--semiring", "interval01")),
    ],
)
def test_tropical_adjan_checks_keep_their_bytes(golden, expected, argv, capsys):
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "ut", *argv, "--stable-output", "xyyxxyxyyx=xyyxyxxyyx"
    )
    assert code == expected
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "golden, expected, identity",
    [
        # 4^12 assignments at each u of length 3; holds
        ("check_ut4_diamond_abbcabcabcabcac_over_cap.json", 0, (
            "lattice:diamond", "abbcabcabcabcac=abbcabcabcabcabcac",
        )),
        # 2^24 assignments at u = aaa, where the identity fails; the witness
        # is the first falsifying assignment in C order
        ("check_ut4_bool_six_letter_law_over_cap.json", 1, (
            "bool", "a" + "abcdef" * 3 + "f=a" + "abcdef" * 4 + "f",
        )),
    ],
)
def test_lattice_checks_past_the_exhaustive_cap_keep_their_bytes(golden, expected, identity, capsys):
    spec, text = identity
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "ut", "--n", "4", "--semiring", spec, "--stable-output", text
    )
    assert code == expected
    assert out == (GOLDEN / golden).read_text()


def test_finite_check_past_the_exhaustive_cap_keeps_its_bytes(capsys):
    # a(aab)^2c = a(aab)^8c: at |u| = 2 there are 5^9 assignments, so each u
    # is sampled; none of 4096 samples separates u = aa, ab, ac, and sample
    # 41 separates u = ba
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "ut", "--n", "3", "--semiring", "nat:2,3",
        "--stable-output", "a" + "aab" * 2 + "c=a" + "aab" * 8 + "c",
    )
    assert code == 1
    assert out == (GOLDEN / "check_ut3_nat23_aab_law_over_cap.json").read_text()


@pytest.mark.parametrize(
    "golden, expected, argv",
    [
        # fails at u = ab, whose multiplicities are 3 and 2
        ("check_u3_nat_abab_abba.json", 1, ("--monoid", "u", "--semiring", "nat", "abab=abba")),
        # (ab)^2 = (ab)^3 holds, and 1000 reflexive trials agree
        ("check_r3_interval01_abab_ababab.json", 0, (
            "--monoid", "r", "--semiring", "interval01", "abab=ababab",
        )),
    ],
)
def test_unit_and_reflexive_checks_keep_their_bytes(golden, expected, argv, capsys):
    # u and r reports list only subwords, so of the ut report changes only
    # report_version reaches them
    code, out, _ = run_cli(capsys, "check", "--n", "3", "--stable-output", *argv)
    assert code == expected
    assert out == (GOLDEN / golden).read_text()


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "check", "--monoid", "u", "--n", "3", "--semiring", "nope", "x=x")[0] == 2
    assert run_cli(capsys, "check", "--monoid", "u", "--n", "3", "--semiring", "bool", "x==")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "verify", "word-oracles", "--jobs", "2")[0] == 2
    # only check and witness draw random numbers
    assert run_cli(capsys, "closure", "--family", "gossip", "--n", "3", "--seed", "5")[0] == 2
    code, _, err = run_cli(
        capsys, "closure", "--family", "gossip", "--n", "4", "--element-cap", "10"
    )
    assert code == 2 and "cap" in err
    # closure options the family does not read
    for argv, message in (
        (("--family", "gossip", "--semiring", "maxplus"), "no semiring maxplus"),
        (("--family", "catalanU", "--semiring", "bool", "--s-sample", "1"), "no weight sample"),
        (("--family", "gossip", "--index-bound", "n-1"), "no index bound"),
        (("--family", "catalanU_S", "--semiring", "minplus01inf", "--index-bound", "n-1"),
         "no index bound"),
        (("--family", "reflexiveBool", "--element-cap", "5"), "no element cap"),
        (("--family", "convexBool", "--element-cap", "5"), "no element cap"),
    ):
        code, out, err = run_cli(capsys, "closure", "--n", "3", *argv)
        assert code == 2 and out == "" and message in err, argv
    # --n bounds the vertices of --rho and means nothing without it
    code, out, err = run_cli(capsys, "poly", "--u", "a", "--w", "ab", "--n", "1")
    assert code == 2 and out == "" and "--rho" in err
    # sample counts below zero are refused, not echoed back in the report
    code, out, err = run_cli(
        capsys, "check", "--monoid", "r", "--n", "3", "--semiring", "bool",
        "--verify-samples", "-5", "abab=abba",
    )
    assert code == 2 and out == "" and "verify_samples" in err
    code, out, err = run_cli(
        capsys, "check", "--monoid", "ut", "--n", "2", "--semiring", "minplus01inf",
        "--budget", "-1", "xyyxxyxyyx=xyyxyxxyyx",
    )
    assert code == 2 and out == "" and "budget" in err
    # also where the monoid does not read the count: the report would echo it
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "u", "--n", "3", "--semiring", "bool",
        "--budget", "-1", "abab=abba",
    )
    assert code == 2 and out == ""


def test_non_integer_seed_from_the_environment_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("SGIDENT_SEED", "abc")
    code, out, err = run_cli(
        capsys, "check", "--monoid", "u", "--n", "3", "--semiring", "bool", "abab=abba"
    )
    assert code == 2 and out == "" and "SGIDENT_SEED" in err
    monkeypatch.setenv("SGIDENT_SEED", "5")
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "u", "--n", "3", "--semiring", "bool", "abab=abba"
    )
    assert code == 0 and json.loads(out)["seed"] == 5


def test_witness_output(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--monoid", "u", "--n", "3", "--semiring", "nat", "abab=abba"
    )
    assert code == 1
    assert "distinguishing u: ab" in out
    assert "entry: 1 3" in out
    assert "a = " in out and "b = " in out
    code, out, _ = run_cli(
        capsys, "witness", "--monoid", "u", "--n", "3", "--semiring", "bool", "abab=abba"
    )
    assert code == 0
    assert "no witness" in out


def test_closure_dump(capsys):
    code, out, _ = run_cli(capsys, "closure", "--family", "catalanU", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family=catalanU n=4 semiring=bool count=14"
    assert len(lines) == 15
    assert lines[1].endswith("\t-")  # the identity carries the empty witness word
    # dumps are stable across runs
    _, again, _ = run_cli(capsys, "closure", "--family", "catalanU", "--n", "4")
    assert out == again


def test_closure_weighted_family(capsys):
    code, out, _ = run_cli(
        capsys, "closure", "--family", "gossip_S", "--n", "2",
        "--semiring", "minplus01inf", "--s-sample", "0,1",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "s_sample=0,1" in header and "semiring=minplus01inf" in header


# weights that min-plus codes cannot hold (1/5 is no multiple of 1/12, and
# 2^59 has no finite code below INF_CODE) take the product path; pinned
@pytest.mark.parametrize(
    "weight", ["1/5", "576460752303423488"],
)
def test_closure_over_weights_without_codes_keeps_its_bytes(weight, capsys):
    code, out, _ = run_cli(
        capsys, "closure", "--family", "gossip_S", "--n", "2",
        "--semiring", "minplus01inf", "--s-sample", f"0,{weight}",
    )
    assert code == 0
    assert out == (
        f"family=gossip_S n=2 semiring=minplus01inf s_sample=0,{weight} count=3\n"
        "0 inf; inf 0\t-\n"
        "0 0; 0 0\t1<>2:0\n"
        f"0 {weight}; {weight} 0\t1<>2:{weight}\n"
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("closure", "--family", "catalanU", "--n", "4"), 0),
        (("check", "--monoid", "u", "--n", "3", "--semiring", "bool", "abab=abba"), 0),
        (("check", "--monoid", "u", "--n", "3", "--semiring", "nat", "abab=abba"), 1),
    ],
)
def test_closed_pipe_keeps_the_exit_code(argv, expected, capsys, monkeypatch):
    # stdout is a pipe whose reader has gone, as under `sgident ... | head -1`:
    # every write to it raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(list(argv))
        monkeypatch.undo()
    assert code == expected
    assert capsys.readouterr().err == ""


# sgident poly arguments and the exact output
POLY_OUTPUTS = [
    (("--u", "ab", "--w", "abab"), "x(a,1)*x(b,1) + x(a,2)*x(b,2) + x(a,3)*x(b,3)"),
    (("--u", "", "--w", "aab"), "x(a,1)^2*x(b,1)"),
    (("--u", "a", "--w", "aa", "--rho", "2,4", "--n", "4"), "x(a,2) + x(a,4)"),
    # a letter of u absent from w, and u longer than w
    (("--u", "ac", "--w", "abab"), "0"),
    (("--u", "aaa", "--w", "aa"), "0"),
    # the empty u over a word with repeated letters
    (("--u", "", "--w", "abba"), "x(a,1)^2*x(b,1)^2"),
    # a path with gaps
    (("--u", "ab", "--w", "abab", "--rho", "1,3,6", "--n", "6"),
     "x(a,1)*x(b,1) + x(a,3)*x(b,3) + x(a,6)*x(b,6)"),
    # a 20-letter w: exponents past 15
    (("--u", "b", "--w", "a" * 17 + "bab"), "x(a,1)^17*x(a,2)*x(b,2) + x(a,1)^18*x(b,1)"),
]


def test_poly_output(capsys):
    for argv, want in POLY_OUTPUTS:
        code, out, _ = run_cli(capsys, "poly", *argv)
        assert (code, out.strip()) == (0, want), argv


def test_negative_seeds_run_the_reflexive_spot_check(capsys, monkeypatch):
    argv = ("check", "--monoid", "r", "--n", "3", "--semiring", "interval01",
            "--stable-output", "abab=abba")
    code, out, err = run_cli(capsys, *argv, "--seed", "-4")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["seed"] == -4
    assert report["verdict"]["sampling"] == {"trials": 1000, "agreements": 1000}
    monkeypatch.setenv("SGIDENT_SEED", "-4")
    code, env_out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and env_out == out


def test_seed_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("SGIDENT_SEED", "99")
    _, out, _ = run_cli(
        capsys, "check", "--monoid", "u", "--n", "3", "--semiring", "bool",
        "--stable-output", "abab=abba",
    )
    assert json.loads(out)["seed"] == 99
    monkeypatch.delenv("SGIDENT_SEED")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "check", "--monoid", "u", "--n", "3", "--semiring", "bool",
        "--output", str(target), "abab=abba",
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"]["outcome"] == "holds"


@pytest.mark.parametrize("argv", [
    ("check", "--monoid", "u", "--n", "3", "--semiring", "bool", "ab=ab"),
    ("closure", "--family", "gossip", "--n", "2"),
])
@pytest.mark.parametrize("where, reason", [
    ("no/such/dir/x.json", errno.ENOENT), ("", errno.EISDIR),
])
def test_unwritable_output_is_a_usage_error(argv, where, reason, tmp_path, capsys):
    # exit 1 would say the identity fails; this one holds
    target = str(tmp_path / where)
    code, out, err = run_cli(capsys, *argv, "--output", target)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: {os.strerror(reason)}\n"


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "semiring-axioms")
    assert code == 0
    assert "PASS semiring-axioms/axioms[bool]" in out
    assert out.strip().endswith("PASS overall")
    code, out, _ = run_cli(capsys, "verify", "word-oracles", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and all(r["ok"] for r in payload["results"])
    assert all(
        isinstance(r["elapsed_s"], float) and r["elapsed_s"] >= 0 for r in payload["results"]
    )
