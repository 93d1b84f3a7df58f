"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines."""

from sgident import acceptance


def _report(number, outcome):
    status = "PASS" if outcome.ok else "FAIL"
    print(f"{status} criterion {number:>2} [{outcome.name}]: {outcome.detail}")
    assert outcome.ok, f"criterion {number} ({outcome.name}): {outcome.detail}"


def test_criterion_01_catalan_counts():
    _report(1, acceptance.criterion_catalan_counts())


def test_criterion_02_presentation_relations():
    _report(2, acceptance.criterion_presentation())


def test_criterion_03_walk_entry_oracle():
    _report(3, acceptance.criterion_walk_entries())


def test_criterion_04_block_chain_oracle():
    _report(4, acceptance.criterion_block_chains())


def test_criterion_05_reflexive_aperiodicity():
    _report(5, acceptance.criterion_aperiodicity())


def test_criterion_06_checker_equivalence():
    _report(6, acceptance.criterion_checker_equivalence())


def test_criterion_07_triangular_oracle():
    _report(7, acceptance.criterion_triangular_oracle())


def test_criterion_08_monogenic_variety_consistency():
    _report(8, acceptance.criterion_monogenic_variety())


def test_criterion_09_balanced_guard():
    _report(9, acceptance.criterion_balanced_guard())


def test_criterion_10_upper_profile_homomorphism():
    _report(10, acceptance.criterion_upper_profile())


def test_criterion_11_gossip_transfer():
    _report(11, acceptance.criterion_transfer())


def test_criterion_12_inclusion_chain():
    _report(12, acceptance.criterion_inclusions())


def test_criterion_13_gossip_transfer_n4():
    _report(13, acceptance.criterion_transfer_n4())


def test_criterion_14_table_vs_products():
    _report(14, acceptance.criterion_table_products())


def test_criterion_15_exhaustive_kernel():
    _report(15, acceptance.criterion_exhaustive_kernel())


def test_criterion_16_batched_products():
    _report(16, acceptance.criterion_batched_products())


def test_criterion_17_sampled_kernel():
    _report(17, acceptance.criterion_sampled_kernel())


def test_criterion_18_lattice_decision():
    _report(18, acceptance.criterion_lattice_decision())


def test_criterion_19_packed_closure():
    _report(19, acceptance.criterion_packed_closure())


def test_criterion_20_hull_vs_sampled():
    _report(20, acceptance.criterion_hull_vs_sampled())


def test_criterion_21_embedding_forms():
    _report(21, acceptance.criterion_embedding_forms())


def test_law_suites_hold():
    for outcome in [*acceptance.suite_semiring_axioms(), *acceptance.suite_word_oracles()]:
        status = "PASS" if outcome.ok else "FAIL"
        print(f"{status} {outcome.name}: {outcome.detail}")
        assert outcome.ok, f"{outcome.name}: {outcome.detail}"
