"""Acceptance battery: one test per named end-to-end check.

The checks themselves live in orthograph.acceptance so the CLI selftest
runs the identical code.
"""

from __future__ import annotations

from orthograph import acceptance
from orthograph.cli import main


def test_kneser_chromatic_law():
    acceptance.check_kneser_chromatic()


def test_local_chromatic_of_kneser_thirds():
    acceptance.check_local_chromatic_kneser()


def test_schrijver_local_equality():
    acceptance.check_schrijver_local_equality()


def test_pair_system_local_equality():
    acceptance.check_pair_system_local_equality()


def test_bipartite_iff_local_dimension_two():
    acceptance.check_bipartite_local_dimension_two()


def test_petersen_local_dimension_three():
    acceptance.check_petersen_local_dimension()


def test_schrijver_local_dimension_four():
    acceptance.check_schrijver_local_dimension()


def test_gadget_lemma_exhaustive_with_negative_control():
    acceptance.check_gadget_lemma()


def test_reduction_equivalence_random_formulas():
    acceptance.check_reduction_equivalence()


def test_vector_family_constructions():
    acceptance.check_vector_families()


def test_compression_pipeline_c5():
    acceptance.check_compression_pipeline()


def test_index_coding_round_trip():
    acceptance.check_index_coding_round_trip()


def test_minrank_oracles_agree():
    acceptance.check_minrank_oracles()


def test_run_all_reports_success(capsys):
    assert acceptance.run_all()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(acceptance.CRITERIA)
    assert all(line.startswith("PASS") for line in lines)


def test_run_all_reports_a_failing_check(monkeypatch, capsys):
    def fails():
        raise AssertionError("refuted")

    monkeypatch.setattr(acceptance, "CRITERIA", [("passes", lambda: "fine"), ("fails", fails)])
    assert not acceptance.run_all()
    passed, failed = capsys.readouterr().out.strip().splitlines()
    assert passed.startswith("PASS passes (") and passed.endswith("): fine")
    assert failed.startswith("FAIL fails (") and failed.endswith("): refuted")
    assert main(["selftest"]) == 1
