import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgident
from sgident import checker
from sgident.checker import (
    HOLDS,
    Verdict,
    assert_balanced_guard,
    check_Rn,
    check_Un,
    check_Un_idempotent,
    check_UT,
    path_morphism,
    requires_balanced,
    run_check,
    same_variety_Un,
)
from sgident.errors import InternalConsistencyError, UnsupportedStructureError
from sgident.matrices import (
    MorphismTable,
    is_unitriangular,
    matrix_from_payloads,
    random_reflexive_codes,
)
from sgident.monoids import BruteForceHolds, brute_force_identity, enumerate_unitriangular
from sgident.polynomials import EmbeddingForms, build_f_canonical, functionally_equivalent
from sgident.semirings import (
    BOOL,
    DIAMOND,
    INTERVAL01,
    MAXPLUS,
    MINPLUS01INF,
    NAT,
    SplitMix64,
    semiring_from_spec,
)
from sgident.words import (
    CountRows,
    Identity,
    PresenceRows,
    scattered_multiplicity,
    subword_set,
    words_up_to,
)

ABAB = Identity.parse("abab=abba")
ADJAN = Identity.parse("xyyxxyxyyx=xyyxyxxyyx")


def test_unitriangular_check_examples():
    assert check_Un(ABAB, 3, BOOL).is_holds
    nat_verdict = check_Un(ABAB, 3, NAT)
    assert nat_verdict.is_fails and nat_verdict.distinguishing_u == "ab"
    by_u = {e["u"]: e for e in nat_verdict.evidence}
    assert by_u["ab"]["lhs_multiplicity"] == 3
    assert by_u["ab"]["rhs_multiplicity"] == 2
    bool4 = check_Un(ABAB, 4, BOOL)
    assert bool4.is_fails
    # the shortest separating subword at this size has length 3
    assert len(bool4.distinguishing_u) == 3


def test_unitriangular_idempotent_check_matches():
    assert check_Un_idempotent(ABAB, 3).is_holds
    assert check_Un_idempotent(ABAB, 4).is_fails
    assert check_Un_idempotent(Identity.parse("x=xx"), 2).is_holds
    assert check_Un_idempotent(Identity.parse("x=xx"), 3).is_fails
    with pytest.raises(UnsupportedStructureError):
        check_Un_idempotent(ABAB, 3, NAT)


def test_triangular_check_examples():
    assert check_UT(Identity.parse("xy=yx"), 1, BOOL).is_holds
    assert check_UT(Identity.parse("xy=yx"), 1, NAT).is_holds
    assert check_UT(Identity.parse("xy=yx"), 2, BOOL).is_fails
    assert check_UT(ABAB, 3, BOOL).is_fails  # diagonal freedom separates the sides
    assert check_UT(Identity.parse("abab=abab"), 3, BOOL).is_holds


@pytest.mark.parametrize("spec", ["nat:250,6", "nat:200,100"])
def test_triangular_check_over_truncated_naturals_with_256_values_or_more(spec):
    # 256 values still fit uint8 codes, 300 take uint16
    S = semiring_from_spec(spec)
    verdict = check_UT(Identity.parse("ab=ba"), 2, S)
    assert verdict.is_fails and verdict.distinguishing_u == "a"
    assert S.tables.code_dtype == (np.uint8 if S.tables.size <= 256 else np.uint16)


def test_triangular_check_over_the_tropical_instance():
    # Adjan's identity holds in UT_2 over the tropical semiring, and every u
    # but the empty word is settled by the exact hull decision, at any budget
    for S in (MAXPLUS, MINPLUS01INF, INTERVAL01):
        for budget in (0, 256):
            verdict = check_UT(ADJAN, 2, S, budget=budget)
            assert verdict.is_holds and verdict.sampling is None
            methods = {e["u"]: e["method"] for e in verdict.evidence}
            assert {u: m for u, m in methods.items() if u} == {"x": "hull", "y": "hull"}
        failing = check_UT(ADJAN, 3, S, budget=256)
        assert failing.is_fails and failing.distinguishing_u == "xx"
        methods = {e["u"]: e.get("method") for e in failing.evidence}
        assert (methods["x"], methods["y"]) == ("hull", "hull")
    assert check_UT(ADJAN, 2, BOOL).is_holds


def _embedding_us_oracle(ident, n):
    return [
        u for u in words_up_to(ident.alphabet, n - 1, include_empty=True)
        if scattered_multiplicity(u, ident.lhs) or scattered_multiplicity(u, ident.rhs)
    ]


def test_ut_walk_gives_the_u_that_embed_in_a_side_in_words_up_to_order(identity_corpus):
    # every reduction walks the same u, and a side's row is None exactly
    # where u does not embed in that side
    rng = random.Random(31)
    for ident in rng.sample(identity_corpus, 40):
        sides = (ident.lhs, ident.rhs)
        for n in (1, 2, 3, 4, 5):
            for rows in (PresenceRows, CountRows, lambda w: EmbeddingForms(w, ident.alphabet, n)):
                walked = list(checker._embedding_us(ident, n, [rows(side) for side in sides]))
                assert [u for _, u, _, _ in walked] == _embedding_us_oracle(ident, n), (ident, n)
                order = words_up_to(ident.alphabet, n - 1, include_empty=True)
                assert [index for index, *_ in walked] == [order.index(u) for _, u, _, _ in walked]
                for _, u, *found in walked:
                    assert [row is not None for row in found] == [
                        scattered_multiplicity(u, side) > 0 for side in sides
                    ]


def test_u_evidence_and_r_report_list_the_subwords_of_either_side_shortest_first(
    identity_corpus, monkeypatch,
):
    # the order of the subword-set union that the walk replaced; the r report
    # takes its list from the verdict's walk, so an r check walks once (the
    # walk's third argument is its pair of row builders)
    walks = []
    embedding_us = checker._embedding_us
    monkeypatch.setattr(
        checker, "_embedding_us", lambda *args: walks.append(args) or embedding_us(*args)
    )
    for ident in identity_corpus:
        for n in (2, 3, 4, 5):
            k = n - 1
            union = sorted(
                subword_set(ident.lhs, k) | subword_set(ident.rhs, k),
                key=lambda u: (len(u), u),
            )
            verdict = check_Un(ident, n, NAT)
            us = [e["u"] for e in verdict.evidence]
            assert us == union[: len(us)], (ident, n)
            assert verdict.is_fails or us == union
            walks.clear()
            report = run_check("r", ident, n, MINPLUS01INF, verify_samples=0)
            assert report.u_words == union, (ident, n)
            assert [args[:2] for args in walks] == [(ident, n)]


@pytest.mark.parametrize("text, n, listed, unembedded", [
    # a 6-letter w=w check in UT_6, shaped as the benchmark's
    ("aefjcifeacji=aefjcifeacji", 6, 1344, 7987),
    ("abab=abab", 4, 11, 4),
    ("xxy=xxy", 3, 5, 2),
])
def test_ut_holds_lists_every_embedding_u_and_counts_the_rest(text, n, listed, unembedded):
    ident = Identity.parse(text)
    verdict = check_UT(ident, n, BOOL)
    assert verdict.is_holds
    us = [e["u"] for e in verdict.evidence]
    assert us == _embedding_us_oracle(ident, n)
    assert (len(us), verdict.unembedded) == (listed, unembedded)
    assert verdict.counters["u_examined"] == listed
    assert listed + unembedded == len(words_up_to(ident.alphabet, n - 1, include_empty=True))


def test_ut_fails_counts_the_unembedded_u_up_to_the_failing_one():
    # xx embeds in neither side and comes before the failing xy; the u after
    # xy are not examined, embedding or not
    verdict = check_UT(Identity.parse("yxyy=yyxy"), 4, BOOL)
    assert verdict.is_fails and verdict.distinguishing_u == "xy"
    assert [e["u"] for e in verdict.evidence] == ["", "x", "y", "xy"]
    assert verdict.unembedded == 1
    report = run_check("ut", Identity.parse("yxyy=yyxy"), 4, BOOL).to_dict(stable=True)
    assert (report["u_words_examined"], report["u_words_unembedded"]) == (["", "x", "y", "xy"], 1)


def test_fails_witnesses_reverify_by_multiplication():
    cases = [
        (check_Un(ABAB, 3, NAT), ABAB),
        (check_Un(ABAB, 4, BOOL), ABAB),
        (check_Un_idempotent(Identity.parse("x=xx"), 3), Identity.parse("x=xx")),
        (check_UT(Identity.parse("xy=yx"), 2, BOOL), Identity.parse("xy=yx")),
        (check_UT(ABAB, 3, NAT, budget=512), ABAB),
    ]
    for verdict, ident in cases:
        assert verdict.is_fails
        phi = verdict.witness
        i, j = verdict.witness_entry
        assert phi.apply(ident.lhs).entry(i, j) != phi.apply(ident.rhs).entry(i, j)


def test_one_row_witness_entry_is_the_entry_of_the_full_image(identity_corpus):
    # the re-check in _fails carries row 1 only; over every failing u and r
    # check of the corpus its entry is that of the full n x n image
    failing = 0
    for n in range(2, 7):
        for ident in identity_corpus:
            for verdict in (
                check_Un(ident, n, NAT),
                check_Rn(ident, n, INTERVAL01, verify_samples=0),
            ):
                if not verdict.is_fails:
                    continue
                failing += 1
                phi, (i, j) = verdict.witness, verdict.witness_entry
                assert (i, j) == (1, len(verdict.distinguishing_u) + 1)
                for side in (ident.lhs, ident.rhs):
                    assert phi.image_entry(side, i, j) == phi.apply(side).entry(i, j)
    assert failing > 1000


def test_unitriangular_witness_lands_in_the_unit_diagonal_monoid():
    verdict = check_Un(ABAB, 3, NAT)
    for image in verdict.witness.images.values():
        assert is_unitriangular(image)


def test_path_morphism_length_guard():
    with pytest.raises(ValueError):
        path_morphism("abc", "abc", 3, BOOL)


def test_reflexive_check():
    assert check_Rn(ABAB, 3, MINPLUS01INF).is_holds
    verdict = check_Rn(ABAB, 4, INTERVAL01)
    assert verdict.is_fails
    i, j = verdict.witness_entry
    phi = verdict.witness
    assert phi.apply(ABAB.lhs).entry(i, j) != phi.apply(ABAB.rhs).entry(i, j)
    assert check_Rn(ABAB, 3, BOOL, verify_samples=200).sampling["agreements"] == 200
    with pytest.raises(UnsupportedStructureError):
        check_Rn(ABAB, 3, NAT)
    with pytest.raises(UnsupportedStructureError):
        check_Rn(ABAB, 3, MAXPLUS)  # idempotent but without a top element


def test_negative_sample_counts_are_rejected():
    with pytest.raises(ValueError):
        check_Rn(ABAB, 3, BOOL, verify_samples=-5)
    with pytest.raises(ValueError):
        check_Rn(ABAB, 4, BOOL, verify_samples=-1)  # a fails verdict too
    with pytest.raises(ValueError):
        check_UT(ADJAN, 2, MINPLUS01INF, budget=-1)
    with pytest.raises(ValueError):
        functionally_equivalent(
            build_f_canonical("x", ADJAN.lhs), build_f_canonical("x", ADJAN.rhs),
            MINPLUS01INF, budget=-1,
        )
    # zero is a count, not an error: no samples, no spot-check
    assert check_Rn(ABAB, 3, MINPLUS01INF, verify_samples=0).sampling is None


@pytest.mark.parametrize("check, S", [
    (check_UT, BOOL), (check_Un, BOOL), (check_Un_idempotent, BOOL), (check_Rn, MINPLUS01INF),
])
@pytest.mark.parametrize("text", ["ab=ab", "ab=ba"])
def test_checkers_refuse_n_above_the_dimension_cap_whatever_the_verdict(check, S, text):
    with pytest.raises(ValueError, match="n=9 above the dimension cap 8"):
        check(Identity.parse(text), 9, S)


def test_spot_check_names_the_first_separating_trial(monkeypatch):
    """A holds verdict forced onto a failing identity: the spot-check raises
    and names the first trial whose sides differ, as one product per trial
    finds it: the same numpy stream drawn one trial at a time, each decoded
    into matrices.  That trial lies past the first chunk."""
    ident, n, seed = Identity.parse("babab=bababaab"), 5, 4
    assert check_Un_idempotent(ident, n, BOOL).is_fails
    gen = SplitMix64(seed)
    first = None
    for trial in range(1000):
        codes = random_reflexive_codes(BOOL, n, ident.alphabet, 1, gen)
        phi = MorphismTable({
            s: matrix_from_payloads(BOOL, [[BOOL.carrier.values[c] for c in row] for row in a[0].tolist()])
            for s, a in codes.items()
        })
        if phi.apply(ident.lhs) != phi.apply(ident.rhs):
            first = trial
            break
    assert first == 408 and first > checker._TRIAL_CHUNK
    monkeypatch.setattr(
        checker, "check_Un_idempotent", lambda *_: Verdict(HOLDS, "subword-sets", [])
    )
    with pytest.raises(InternalConsistencyError, match=r"\(trial 408\)$"):
        check_Rn(ident, n, BOOL, seed=seed)


@pytest.mark.parametrize("S", [BOOL, DIAMOND, MINPLUS01INF, INTERVAL01], ids=lambda S: S.name)
def test_spot_check_chunks_keep_the_trials(S, monkeypatch):
    """Trials drawn and multiplied a chunk at a time are those of one
    unchunked run, with chunk sizes that put trials on both sides of every
    boundary and leave a short last chunk; a disagreement names its trial
    by its index in the whole run."""
    ident, n, trials = Identity.parse("abb=bab"), 3, 300
    monkeypatch.setattr(checker, "_TRIAL_CHUNK", trials)
    whole = checker._spot_check(ident, n, S, trials, seed=4)
    assert 0 < whole.sum() < trials
    for chunk in (1, 7, 64):
        monkeypatch.setattr(checker, "_TRIAL_CHUNK", chunk)
        assert checker._spot_check(ident, n, S, trials, seed=4).tolist() == whole.tolist()
    assert checker._spot_check(ident, n, S, 0, seed=4).size == 0
    monkeypatch.setattr(
        checker, "check_Un_idempotent", lambda *_: Verdict(HOLDS, "subword-sets", [])
    )
    # one trial per chunk: the first separating trial sits in chunk `first`
    monkeypatch.setattr(checker, "_TRIAL_CHUNK", 1)
    first = int(np.argmin(whole))
    with pytest.raises(InternalConsistencyError, match=rf"\(trial {first}\)$"):
        check_Rn(ident, n, S, verify_samples=trials, seed=4)


def test_reflexive_check_agrees_with_the_idempotent_criterion(identity_corpus):
    rng = random.Random(13)
    for ident in rng.sample(identity_corpus, 30):
        a = check_Rn(ident, 3, BOOL, verify_samples=50).outcome
        b = check_Un_idempotent(ident, 3).outcome
        assert a == b


def test_monotonicity_in_n(identity_corpus):
    rng = random.Random(17)
    for ident in rng.sample(identity_corpus, 40):
        failed = False
        for n in (2, 3, 4):
            verdict = check_Un(ident, n, BOOL)
            if failed:
                assert verdict.is_fails, ident
            failed = failed or verdict.is_fails


def test_triangular_holds_implies_unit_diagonal_holds(identity_corpus):
    trunc = semiring_from_spec("nat:2,3")
    rng = random.Random(19)
    for ident in rng.sample(identity_corpus, 60):
        for S in (BOOL, trunc):
            if check_UT(ident, 3, S).is_holds:
                assert check_Un(ident, 3, S).is_holds, (ident, S.name)


def test_unit_diagonal_checker_agrees_with_brute_force(identity_corpus):
    monoid = enumerate_unitriangular(3, BOOL)
    rng = random.Random(23)
    for ident in rng.sample(identity_corpus, 60):
        expected = isinstance(brute_force_identity(ident, monoid), BruteForceHolds)
        assert check_Un(ident, 3, BOOL).is_holds == expected, ident


def test_cross_instance_verdicts_coincide_for_matching_arithmetic(identity_corpus):
    aligned = (BOOL, INTERVAL01, MINPLUS01INF, DIAMOND, MAXPLUS)
    rng = random.Random(29)
    for ident in rng.sample(identity_corpus, 50):
        outcomes = {check_Un(ident, 3, S).outcome for S in aligned}
        assert len(outcomes) == 1, ident


def test_tropical_checks_do_not_read_the_budget_or_the_seed(identity_corpus):
    # the hull decides every u and builds every witness, so neither the
    # budget nor the seed can move a report
    fails = 0
    for ident in identity_corpus:
        if ident.lhs == ident.rhs:
            continue
        for n in (2, 3):
            for S in (MAXPLUS, MINPLUS01INF, INTERVAL01):
                unsampled = check_UT(ident, n, S, budget=0)
                sampled = check_UT(ident, n, S, budget=4096, seed=7)
                assert unsampled.to_dict() == sampled.to_dict(), (ident, n, S.name)
                fails += unsampled.is_fails
    assert fails


def test_requires_balanced_declarations():
    assert requires_balanced(NAT)
    assert requires_balanced(MAXPLUS)
    assert requires_balanced(MINPLUS01INF)
    assert requires_balanced(INTERVAL01)
    assert not requires_balanced(BOOL)
    assert not requires_balanced(DIAMOND)
    assert not requires_balanced(semiring_from_spec("nat:2,3"))


def test_balanced_guard():
    xx = Identity.parse("x=xx")
    verdict = check_UT(xx, 2, NAT)
    assert verdict.is_fails
    assert_balanced_guard(xx, 2, NAT, verdict, monoid="ut")  # fails: nothing to guard
    assert_balanced_guard(ABAB, 3, NAT, check_Un(ABAB, 3, NAT), monoid="u")
    # a fabricated holds verdict on an unbalanced identity must trip the guard
    from sgident.checker import Verdict, HOLDS
    from sgident.errors import InternalConsistencyError

    fake = Verdict(HOLDS, "subword-multiplicities")
    with pytest.raises(InternalConsistencyError):
        assert_balanced_guard(xx, 2, NAT, fake, monoid="u")
    # over an idempotent instance an unbalanced identity may genuinely hold
    assert check_Un(xx, 2, MAXPLUS).is_holds
    assert_balanced_guard(xx, 2, MAXPLUS, check_Un(xx, 2, MAXPLUS), monoid="u")


def test_same_variety():
    assert same_variety_Un(BOOL, INTERVAL01)
    assert same_variety_Un(BOOL, MAXPLUS)
    assert not same_variety_Un(NAT, BOOL)
    assert same_variety_Un(
        semiring_from_spec("nat:2,3"), semiring_from_spec("nat:2,3")
    )
    assert not same_variety_Un(semiring_from_spec("nat:2,3"), semiring_from_spec("nat:1,3"))


def test_run_check_reports():
    report = run_check("u", ABAB, 3, BOOL, seed=1)
    payload = report.to_dict()
    assert payload["verdict"]["outcome"] == "holds"
    assert payload["identity"] == "abab=abba"
    assert "elapsed_ms" in payload
    assert "elapsed_ms" not in report.to_dict(stable=True)
    # only ut reports count the u that embed in neither side
    assert "u_words_unembedded" not in payload
    fails = run_check("r", ABAB, 4, INTERVAL01)
    assert "u_words_unembedded" not in fails.to_dict()
    assert fails.verdict.is_fails
    witness = fails.verdict.to_dict()["witness"]
    assert set(witness["images"]) == {"a", "b"}
    with pytest.raises(ValueError):
        run_check("m", ABAB, 3, BOOL)


def test_tropical_checks_import_no_solver_or_numpy_random():
    # the hull decision runs its own exact simplex: scipy and sympy are test
    # oracles only, and numpy.random alone costs about 6 MB of resident memory
    script = (
        "import sys, sgident\n"
        "from sgident.checker import check_UT\n"
        "from sgident.semirings import INTERVAL01\n"
        "ident = sgident.Identity.parse('xyyxxyxyyx=xyyxyxxyyx')\n"
        "assert check_UT(ident, 2, INTERVAL01).is_holds\n"
        "print(sorted(m for m in ('scipy', 'sympy', 'numpy.random') if m in sys.modules))\n"
    )
    src = str(Path(sgident.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
