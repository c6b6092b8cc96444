import hashlib
import json
import math

import numpy as np
import pytest

from osb import campaigns, families, interpolation, orderstats
from osb.campaigns import (
    lower_constant,
    run_lemmas,
    run_verify_lp,
    run_verify_main,
)
from osb.corpus import CorpusSpec, generate_corpus, single_matrix_corpus
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
from osb.reports import reports_to_json, summarize

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


def test_lp_campaign_aggregates_only_what_it_checked(small_corpus):
    # no cell fits map:9:9, so nothing is checked and nothing aggregated;
    # a zero matrix is checked, and its aggregate is vacuous
    assert run_verify_lp(small_corpus, FamilySpec("map", n=9, N=9), [1.0, 2.0]) == []
    reports = run_verify_lp(single_matrix_corpus(zero_matrix(2, 2)), MAP, [1.0, 2.0])
    mins = [r for r in reports if r.check_id == "thm1.2/lower-min-ratio"]
    assert len(reports) == 6 and [r.status for r in mins] == ["vacuous"] * 2
    assert mins[0].extra["note"] == "no nonzero matrix produced a ratio"


def test_campaign_hypothesis_abort_attaches_certificate(small_corpus, tmp_path):
    path = tmp_path / "biased.json"
    path.write_text(json.dumps({"n": 2, "N": 2, "maps": [[1, 2]]}))
    with pytest.raises(HypothesisError) as err:
        run_verify_main(small_corpus, FamilySpec("file", path=str(path)))
    assert err.value.certificate is not None
    assert err.value.certificate.marginals_uniform is False


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("p_list", [[2.0], [1.0, 1.5, 2.0, 3.0], [3.0, 400.0, 1.0]])
def test_exact_lp_passes_once_per_matrix(small_corpus, monkeypatch, p_list):
    # one estimator call per matrix.  Every family of the small corpus is
    # enumerated as one run: its path index is built once per cell, from one
    # member block, and no call walks the runs.  map:6:5 puts a prefix
    # before each run: each call walks the run groups once and builds no
    # member block.
    calls = {}
    _count_calls(monkeypatch, orderstats, "iter_member_arrays", calls)
    _count_calls(monkeypatch, families, "_member_block", calls)
    _count_calls(monkeypatch, interpolation, "_member_runs", calls)
    _count_calls(monkeypatch, interpolation, "expected_lp_norm", calls)
    _count_calls(monkeypatch, campaigns, "verify_lp_bounds", calls)
    reports = run_verify_lp(small_corpus, MAP, p_list)
    matrices = sum(len(cell.matrices) for cell in small_corpus)
    assert calls == {"_member_block": len(small_corpus.cells),
                     "expected_lp_norm": matrices, "verify_lp_bounds": matrices}
    assert len(reports) == matrices * 2 * len(p_list) + len(p_list)
    calls.clear()
    runs = generate_corpus([CorpusSpec(cells=((6, 5),), matrices_per_cell=2, seed=3)],
                           seed=3)
    run_verify_lp(runs, MAP, p_list)
    assert calls == {"_member_runs": 2, "expected_lp_norm": 2, "verify_lp_bounds": 2}


@pytest.mark.parametrize("samples", [1000, 65536, 2 * 65536 + 5])
@pytest.mark.parametrize("p_list", [[2.0], [1.0, 1.5, 2.0, 3.0]])
def test_mc_lp_draws_once_per_matrix(monkeypatch, samples, p_list):
    corpus = generate_corpus([CorpusSpec(cells=((2, 2), (8, 8)), matrices_per_cell=2,
                                         seed=3)], seed=3)
    calls = {}
    _count_calls(monkeypatch, orderstats, "sample_array", calls)
    run_verify_lp(corpus, SYM, p_list, samples=samples, seed=1)
    chunks = -(-samples // 65536)
    assert calls == {"sample_array": 4 * chunks}


class TestLpReportBytes:
    """sha256 of the ``run_verify_lp`` JSON on a small corpus: map:5:5 and
    sym:7 enumerate blocks above the crossover of the lp block sum, sym:5
    blocks below it; at 4096 draws map:5:5 and sym:5 look each draw up and
    sym:7 computes each.  p = 400 scales every uniform and every 9-holding
    path.  Recorded before every p of a matrix came from one pass."""

    PINNED = {
        ("map:5:5", None): "482098bac8432befa1bddc8bb78f2c13c9575ffcd9e71e7f18c342d4d761e0ea",
        ("map:5:5", 4096): "306bda6a51cc4f397c5b70950559fab453f0dacc7956c61cef3d6fc44639b32f",
        ("sym", None): "401e08c5c42aef3a36db3d751db57ad7d9648c0a967cf8bb7a3fb137b1d0ca54",
        ("sym", 4096): "ac549e416ed41e5206adc53ac85a33b636d62519299ae88803ceaca6b633d6be",
    }

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(
            [CorpusSpec(cells=((5, 5), (7, 7)), matrices_per_cell=2, distribution=d,
                        seed=11) for d in ("uniform", "integer", "sparse")], seed=11)

    @pytest.mark.parametrize("spec,samples", list(PINNED))
    def test_lp_report_bytes_are_pinned(self, corpus, spec, samples):
        family = FamilySpec("map", n=5, N=5) if spec == "map:5:5" else SYM
        reports = run_verify_lp(corpus, family, (1.0, 1.5, 2.0, 3.0, 400.0),
                                samples=samples, seed=5)
        text = reports_to_json(reports)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[spec, samples]


class TestTopSumReportBytes:
    """sha256 of the ``run_verify_main`` JSON and of the ``mixed_k_curve``
    knots (float hex, one line per matrix) on map:6:5 and map:7:5, whose
    exact top sums read the enumeration runs: 5 and 25 runs of 3,125 rows
    behind a prefix, the latter cut by a block end.  Recorded while every
    block was gathered and sorted."""

    PINNED = {
        ("verify-main", 6): "41ffeccec79b67b0be680ce4e41095d3861a28a55eb80d68345b9716f20a4e70",
        ("knots", 6): "dcfe38e544d2e86bedc1b18672e094652af85c3b086198ee2b49f3752341a074",
        ("verify-main", 7): "1dda92553eb5c4bc56b11440e392a0897bb8c68cc46234069adfee21fe977617",
        ("knots", 7): "817d46117d1127db37495c098191f2ae762c503e6d2cfe58da804cb8519f076d",
    }

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(
            [CorpusSpec(cells=((6, 5), (7, 5)), matrices_per_cell=2, distribution=d,
                        seed=13) for d in ("uniform", "integer", "sparse")], seed=13)

    @pytest.mark.parametrize("what,n", list(PINNED))
    def test_top_sum_bytes_are_pinned(self, corpus, what, n):
        assert families._map_table_width(n, 5) < n  # a prefix before each run
        spec = FamilySpec("map", n=n, N=5)
        if what == "verify-main":
            text = reports_to_json(run_verify_main(corpus, spec))
        else:
            text = "\n".join(
                " ".join(k.hex() for k in interpolation.mixed_k_curve(a, family).knots)
                for cell, family in campaigns._iter_cell_families(corpus, spec)
                for _, a in cell.matrices)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[what, n]
