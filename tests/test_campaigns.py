import json
import math

import numpy as np
import pytest

from osb import families
from osb.campaigns import (
    lower_constant,
    run_lemmas,
    run_verify_lp,
    run_verify_main,
)
from osb.corpus import single_matrix_corpus
from osb.errors import HypothesisError
from osb.families import (
    FamilySpec,
    check_marginals,
    family_for_cell,
    full_mapping_family,
    pairwise_constant,
    symmetric_group,
)
from osb.matrices import Matrix, order_map, reduce_to_top
from osb.orderstats import expected_top_sum
from osb.reports import summarize

from oracles import zero_matrix

MAP = FamilySpec("map")
SYM = FamilySpec("sym")


def test_zero_matrix_passes_with_both_sides_zero():
    corpus = single_matrix_corpus(zero_matrix(2, 2))
    reports = run_verify_main(corpus, MAP)
    assert reports and all(r.status == "pass" for r in reports)
    assert all(r.lhs == 0.0 and r.rhs == 0.0 for r in reports)


def test_lower_constant_values():
    from fractions import Fraction
    assert lower_constant(Fraction(2)) == 1.0 / 800.0
    assert lower_constant(Fraction(1)) == 1.0 / 288.0
    assert lower_constant(Fraction(0)) == 1.0 / 32.0


def test_reduce_toggle_lowers_the_expectation_side():
    rng = np.random.default_rng(55)
    a = Matrix(rng.uniform(0, 1, (3, 3)))
    corpus = single_matrix_corpus(a)
    plain = run_verify_main(corpus, SYM)
    reduced = run_verify_main(corpus, SYM, reduce_top=True)
    fam = symmetric_group(3)
    for r in reduced:
        if r.check_id != "thm1.1/lower":
            continue
        assert r.status == "pass" and r.inputs["reduced"] is True
        ell = r.inputs["ell"]
        want = expected_top_sum(
            reduce_to_top(a, order_map(a), ell), fam, ell).value
        assert r.rhs == pytest.approx(want, abs=1e-12)
    plain_by_ell = {r.inputs["ell"]: r.rhs for r in plain
                    if r.check_id == "thm1.1/lower"}
    for r in reduced:
        if r.check_id == "thm1.1/lower":
            assert r.rhs <= plain_by_ell[r.inputs["ell"]] + 1e-12


def test_sized_family_spec_restricts_cells(small_corpus):
    reports = run_verify_main(small_corpus, FamilySpec("map", n=2, N=3))
    cells = {r.inputs["cell"] for r in reports}
    assert cells == {"2x3"}


def test_file_family_spec_runs_on_matching_cell(small_corpus, tmp_path):
    maps = [[1, 2], [2, 1]]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"n": 2, "N": 2, "maps": maps}))
    reports = run_verify_main(small_corpus, FamilySpec("file", path=str(path)))
    assert reports and {r.inputs["cell"] for r in reports} == {"2x2"}
    assert all(r.status == "pass" for r in reports)


def test_file_family_is_loaded_once_per_campaign(small_corpus, tmp_path,
                                                 monkeypatch):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"n": 2, "N": 2, "maps": [[1, 2], [2, 1]]}))
    calls = []
    load = families.load_family

    def counted(p):
        calls.append(p)
        return load(p)

    monkeypatch.setattr(families, "load_family", counted)
    spec = FamilySpec("file", path=str(path))
    assert len(small_corpus.cells) > 1
    run_verify_main(small_corpus, spec)
    assert calls == [str(path)]
    # the spec keeps its family: later campaigns and cells do not read again
    run_lemmas(small_corpus, spec)
    assert [family_for_cell(spec, 2, 2) for _ in range(3)] == [spec.file_family] * 3
    assert family_for_cell(spec, 3, 3) is None
    assert calls == [str(path)]


def test_file_family_is_certified_once_per_campaign(small_corpus, tmp_path,
                                                    monkeypatch):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"n": 2, "N": 2, "maps": [[1, 2], [2, 1]]}))
    calls = []
    compute = families._compute_certificate

    def counted(family):
        calls.append(family.descriptor())
        return compute(family)

    monkeypatch.setattr(families, "_compute_certificate", counted)
    for run in (run_verify_main, run_lemmas,
                lambda c, s: run_verify_lp(c, s, [1.5, 3.0])):
        calls.clear()
        spec = FamilySpec("file", path=str(path))
        assert run(small_corpus, spec)
        assert len(calls) == 1


def test_ell_range_is_clamped(small_corpus):
    reports = run_verify_main(small_corpus, SYM, ell_range=(2, 9))
    ells = {(r.inputs["cell"], r.inputs["ell"]) for r in reports}
    assert all(e >= 2 for _, e in ells)
    assert ("1x1", 1) not in ells


def test_family_check_combines_both_certificates():
    family = symmetric_group(3)
    cert = check_marginals(family)
    assert cert is pairwise_constant(family)
    assert cert.marginals_uniform is True
    assert float(cert.pairwise_bound) == 1.5
    assert cert.argmax_pair is not None


def test_mc_campaign_reports_stderr(small_corpus):
    reports = run_verify_main(small_corpus, MAP, samples=20000, seed=4)
    assert reports and all(r.mode == "mc" for r in reports)
    assert summarize(reports)["failed"] == 0


def test_lemma_aggregation_structure(small_corpus):
    reports = run_lemmas(small_corpus, MAP, ell_range=(1, 1))
    sample = [r for r in reports if r.check_id == "lemma3.2"][0]
    assert sample.inputs["instances"] > 1
    assert "worst_case" in sample.extra
    assert sample.extra["worst_case"]["m"] >= 1


def test_lp_campaign_emits_min_ratio_per_exponent(small_corpus):
    reports = run_verify_lp(small_corpus, MAP, [1.0, 2.0])
    mins = [r for r in reports if r.check_id == "thm1.2/lower-min-ratio"]
    assert {r.inputs["p"] for r in mins} == {1.0, 2.0}
    per_matrix = [r for r in reports if r.check_id == "thm1.2/lower-ratio"
                  and r.status == "pass" and r.inputs["p"] == 2.0]
    floor = min(r.lhs for r in per_matrix)
    agg = next(r for r in mins if r.inputs["p"] == 2.0)
    assert agg.lhs == floor


def test_campaign_hypothesis_abort_attaches_certificate(small_corpus, tmp_path):
    path = tmp_path / "biased.json"
    path.write_text(json.dumps({"n": 2, "N": 2, "maps": [[1, 2]]}))
    with pytest.raises(HypothesisError) as err:
        run_verify_main(small_corpus, FamilySpec("file", path=str(path)))
    assert err.value.certificate is not None
    assert err.value.certificate.marginals_uniform is False
