"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line; run `pytest tests/test_acceptance.py -v -s`
to see them live.  Criteria 1-3, 5, and 8 walk the full default corpus
(shapes {1..5}^2, 70 matrices per cell) with the built-in families fitted per
cell; criterion 9 performs 20 x 1000 seeded Monte Carlo runs at 1e5 draws and
dominates the runtime of the module.
"""

import math
import time

import numpy as np
import pytest

from osb.campaigns import run_lemmas, run_verify_lp, run_verify_main
from osb.corpus import CorpusSpec, default_corpus, generate_corpus
from osb.families import FamilySpec, full_mapping_family, symmetric_group
from osb.interpolation import interpolation_norm, k_functional
from osb.matrices import Matrix, order_map
from osb.orderstats import (
    expected_top_sum,
    expected_top_sum_mc,
    lemma_suite,
)
from osb.reports import canonical_json, reports_to_json, summarize

from oracles import extreme_point_matrices, hinge_norm_batch, k_functional_oracle

SYM = FamilySpec("sym")
MAP = FamilySpec("map")


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} [{name}]: PASS ({detail})")


def _assert_all_pass(reports, what):
    failures = [r for r in reports if r.status == "fail"]
    assert not failures, (
        f"{what}: {len(failures)} failures, first: "
        f"{failures[0].check_id} {dict(failures[0].inputs)} margin={failures[0].margin}"
    )


@pytest.fixture(scope="module")
def main_campaign(corpus):
    t0 = time.time()
    reports = run_verify_main(corpus, MAP) + run_verify_main(corpus, SYM)
    return reports, time.time() - t0


@pytest.fixture(scope="module")
def lp_campaign(corpus):
    ps = [1.0, 1.5, 2.0, 3.0]
    return run_verify_lp(corpus, MAP, ps) + run_verify_lp(corpus, SYM, ps)


def test_criterion_1_two_sided_bounds(corpus, main_campaign):
    reports, elapsed = main_campaign
    _assert_all_pass(reports, "thm1.1 campaign")
    sides = {r.check_id for r in reports}
    assert {"thm1.1/lower", "thm1.1/upper"} <= sides
    lower = [r for r in reports if r.check_id == "thm1.1/lower"]
    upper = [r for r in reports if r.check_id == "thm1.1/upper"]
    # every corpus matrix contributes all ell in 1..n for both family kinds
    expected_rows = sum(
        len(c.matrices) * c.n * (2 if c.n == c.N else 1) for c in corpus
    )
    assert len(lower) == len(upper) == expected_rows
    assert all(r.mode == "exact" for r in reports)
    assert elapsed < 300.0, f"campaign took {elapsed:.1f}s, budget is 300s"
    _report(1, "two-sided top-sum bounds, exact constants",
            f"{len(reports)} checks over {corpus.total_matrices()} matrices, "
            f"{elapsed:.1f}s")


def test_criterion_2_example_constants(main_campaign):
    reports, _ = main_campaign
    examples = [r for r in reports if r.check_id == "thm1.1/example-lower"]
    assert examples, "example-constant line missing"
    _assert_all_pass(examples, "example constants")
    by_const = {round(1.0 / r.constant) for r in examples}
    assert by_const == {800, 288}
    sym_rows = [r for r in examples if str(r.inputs["family"]).startswith("sym")]
    map_rows = [r for r in examples if str(r.inputs["family"]).startswith("map")]
    assert all(round(1.0 / r.constant) == 800 for r in sym_rows)
    assert all(round(1.0 / r.constant) == 288 for r in map_rows)
    _report(2, "example constants 1/800 and 1/288",
            f"{len(sym_rows)} permutation rows, {len(map_rows)} mapping rows")


def test_criterion_3_lemma_suite(corpus):
    reports = run_lemmas(corpus, MAP) + run_lemmas(corpus, SYM)
    _assert_all_pass(reports, "lemma suite")
    checked = sum(r.inputs.get("instances", 1) for r in reports)

    # tightness: the first-moment tail bound is attained on the
    # two-permutation family at the identity pattern with m = 2
    identity = Matrix.from_rows([[1, 0], [0, 1]])
    instance = lemma_suite(identity, symmetric_group(2), 1)
    tight = [r for r in instance
             if r.check_id == "lemma3.1" and r.inputs["m"] == 2]
    assert len(tight) == 1 and abs(tight[0].margin) < 1e-12
    assert tight[0].status == "pass"
    _report(3, "tail-inequality suite + Paley-Zygmund",
            f"{checked} instances, equality margin {tight[0].margin}")


def test_criterion_4_orlicz_sandwich():
    rng = np.random.default_rng(20240901)
    tol = 1e-9
    vectors_per_length = 1000
    checked = 0
    for n in range(1, 51):
        X = rng.uniform(0.0, 10.0, (vectors_per_length, n))
        top_sums = np.sort(X, axis=1)[:, ::-1].cumsum(axis=1)
        tiled = np.repeat(X, n, axis=0)
        js = np.tile(np.arange(1, n + 1), vectors_per_length)
        norms = hinge_norm_batch(tiled, js, tol=tol).reshape(vectors_per_length, n)
        slack = tol * np.maximum(1.0, norms) + 1e-12
        assert (norms >= 0.5 * top_sums - slack).all(), f"lower bound failed at n={n}"
        assert (norms <= top_sums + slack).all(), f"upper bound failed at n={n}"
        checked += vectors_per_length * n

    # homogeneity and triangle inequality at 1e-9 on 1000 random pairs
    pairs = 1000
    width = 24
    X = rng.uniform(0.0, 10.0, (pairs, width))
    Y = rng.uniform(0.0, 10.0, (pairs, width))
    lengths = rng.integers(1, width + 1, pairs)
    mask = np.arange(width)[None, :] < lengths[:, None]
    X *= mask
    Y *= mask
    js = rng.integers(1, width + 1, pairs)
    c = 3.7
    nx = hinge_norm_batch(X, js)
    ny = hinge_norm_batch(Y, js)
    ncx = hinge_norm_batch(c * X, js)
    nxy = hinge_norm_batch(X + Y, js)
    assert (np.abs(ncx - c * nx) <= 1e-9 * np.maximum(1.0, c * nx)).all()
    assert (nxy <= nx + ny + 1e-9 * np.maximum(1.0, nx + ny)).all()
    _report(4, "factor-2 sandwich + norm axioms",
            f"{checked} sandwich instances, {pairs} homogeneity/triangle pairs")


def test_criterion_5_expectation_upper_bound(corpus):
    worst = -math.inf
    checked = 0
    for cell in corpus:
        families = [full_mapping_family(cell.n, cell.N)]
        if cell.n == cell.N:
            families.append(symmetric_group(cell.n))
        flat = np.array([a.entries.ravel() for _, a in cell.matrices])
        for family in families:
            per_k = [expected_top_sum(a, family, cell.n).per_k
                     for _, a in cell.matrices]
            for ell in range(1, cell.n + 1):
                expect = np.array([math.fsum(pk[:ell]) for pk in per_k])
                norms = hinge_norm_batch(
                    flat, np.full(len(per_k), ell * cell.N))
                margin = (2.0 / cell.N) * norms - expect
                assert (margin >= -1e-12).all(), \
                    f"upper bound failed on cell {cell.n}x{cell.N}, ell={ell}"
                worst = max(worst, float(-margin.max()))
                checked += len(per_k)

    # equality on the bumped-entry unit-sphere matrices
    worst_eq = 0.0
    eq_checked = 0
    for n in range(1, 6):
        for N in range(1, 6):
            families = [full_mapping_family(n, N)]
            if n == N:
                families.append(symmetric_group(n))
            for family in families:
                for ell in range(1, n + 1):
                    for pt in extreme_point_matrices(n, N, ell):
                        e = expected_top_sum(pt, family, ell).value
                        worst_eq = max(worst_eq, abs(e - 2.0 / N))
                        eq_checked += 1
    assert worst_eq <= 1e-12
    _report(5, "expectation below (2/N) x hinge norm",
            f"{checked} corpus checks, {eq_checked} extreme points, "
            f"max |E - 2/N| = {worst_eq:.2e}")


def test_criterion_6_k_functional_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        x = rng.uniform(0.0, 10.0, n)
        t = float(rng.uniform(0.0, n + 2.0))
        gap = abs(k_functional(x, t) - k_functional_oracle(x, t))
        worst = max(worst, gap)
    assert worst <= 1e-9
    _report(6, "K-functional closed form vs decomposition oracle",
            f"1000 cases, max gap {worst:.2e}")


def test_criterion_7_interpolation_quadrature():
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 5.0):
        for n in (1, 2, 5, 12):
            for c in (0.3, 1.0, 8.0):
                x = np.zeros(n)
                x[n // 2] = c
                want = c * (p / (p - 1.0)) ** (1.0 / p)
                got = interpolation_norm(x, p)
                worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-8
    _report(7, "quadrature vs closed-form interpolation norm",
            f"max relative error {worst:.2e}")


def test_criterion_8_lp_bounds(lp_campaign):
    reports = lp_campaign
    _assert_all_pass(reports, "thm1.2 campaign")
    upper = [r for r in reports if r.check_id == "thm1.2/upper"]
    assert upper and all(r.constant == 1.0 for r in upper)
    p1 = [r for r in upper if r.inputs["p"] == 1.0]
    assert p1 and max(abs(r.margin) for r in p1) <= 1e-12
    mins = [r for r in reports if r.check_id == "thm1.2/lower-min-ratio"]
    assert mins and all(r.status in ("pass", "vacuous") for r in mins)
    floor = min(r.lhs for r in mins if r.status == "pass")
    assert floor > 0.0
    _report(8, "lp upper bound + positive lower ratio",
            f"{len(upper)} upper checks, {len(p1)} exact p=1 equalities, "
            f"corpus-minimum ratio {floor:.6f}")


def test_criterion_9_monte_carlo_consistency(corpus):
    cells = {(c.n, c.N): dict(c.matrices) for c in corpus}
    case_shapes = [
        (2, 2, "sym"), (3, 3, "sym"), (4, 4, "sym"), (5, 5, "sym"),
        (2, 2, "map"), (3, 3, "map"), (2, 3, "map"), (3, 2, "map"),
        (4, 5, "map"), (5, 4, "map"),
    ]
    runs = 1000
    samples = 100_000
    t0 = time.time()
    results = []
    for n, N, kind in case_shapes:
        family = symmetric_group(n) if kind == "sym" else full_mapping_family(n, N)
        for mid in ("u00", "u01"):
            a = cells[(n, N)][mid]
            ell = (n + 1) // 2
            exact = expected_top_sum(a, family, ell).value
            hits = 0
            for seed in range(runs):
                r = expected_top_sum_mc(a, family, ell, samples, seed)
                if abs(r.value - exact) <= 4.0 * r.stderr:
                    hits += 1
            results.append((n, N, kind, mid, hits))
            assert hits >= 0.99 * runs, \
                f"case {n}x{N} {kind} {mid}: only {hits}/{runs} within 4 stderr"
    total = sum(h for *_, h in results)
    _report(9, "Monte Carlo 4-stderr consistency",
            f"{len(results)} cases x {runs} runs, {total}/{len(results) * runs} "
            f"within bound, {time.time() - t0:.0f}s")


def test_criterion_10_reproducibility(corpus):
    first = reports_to_json(run_verify_main(corpus, MAP, seed=5))
    second = reports_to_json(run_verify_main(corpus, MAP, seed=5))
    assert first.encode() == second.encode()

    lp_a = reports_to_json(run_verify_lp(corpus, SYM, [1.0, 2.0], seed=5))
    lp_b = reports_to_json(run_verify_lp(corpus, SYM, [1.0, 2.0], seed=5))
    assert lp_a.encode() == lp_b.encode()

    sub = generate_corpus(
        [CorpusSpec(cells=((2, 2), (3, 2)), matrices_per_cell=5,
                    distribution="uniform", seed=9)], seed=9)
    lm_a = reports_to_json(run_lemmas(sub, MAP))
    lm_b = reports_to_json(run_lemmas(sub, MAP))
    assert lm_a.encode() == lm_b.encode()

    from osb.families import check_marginals
    cert_a = canonical_json(check_marginals(symmetric_group(4)).to_json_obj())
    cert_b = canonical_json(check_marginals(symmetric_group(4)).to_json_obj())
    assert cert_a == cert_b

    from osb.corpus import corpus_to_json
    corpus_a = corpus_to_json(default_corpus(seed=13))
    corpus_b = corpus_to_json(default_corpus(seed=13))
    assert corpus_a.encode() == corpus_b.encode()
    _report(10, "byte-identical reruns",
            f"verify-main {len(first)} bytes, verify-lp {len(lp_a)} bytes, "
            f"lemmas {len(lm_a)} bytes")
