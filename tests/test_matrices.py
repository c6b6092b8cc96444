import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osb.corpus import (
    CorpusSpec,
    corpus_to_json,
    default_corpus,
    generate_corpus,
    parse_corpus_json,
)
from osb.errors import DomainError, FormatError
from osb.matrices import (
    Matrix,
    OrderMap,
    order_map,
    parse_matrix_csv,
    parse_matrix_json,
    reduce_to_top,
)

from oracles import (
    averaged_top_matrix,
    compatible_with,
    in_ordered_class,
    indicator_matrix,
    oracle_generate_matrix,
    values_along,
    zero_matrix,
)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda N: st.lists(
                st.lists(st.floats(0, 100, allow_nan=False), min_size=N, max_size=N),
                min_size=n, max_size=n,
            )
        )
    ).map(Matrix.from_rows)


class TestRearrangement:
    def test_symmetric_example(self):
        m = Matrix.from_rows([[1, 0], [0, 1]])
        assert m.rearrangement.tolist() == [1, 1, 0, 0]

    def test_direct_sort_example(self):
        m = Matrix.from_rows([[3, 1], [2, 2]])
        assert m.rearrangement.tolist() == [3, 2, 2, 1]

    def test_zero_matrix(self):
        assert zero_matrix(3, 3).rearrangement.tolist() == [0.0] * 9

    @given(small_matrices())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, m):
        rng = np.random.default_rng(0)
        shuffled = m.entries[rng.permutation(m.rows)][:, rng.permutation(m.cols)]
        assert Matrix(shuffled).rearrangement.tolist() == \
            m.rearrangement.tolist()

    def test_abs_at_construction(self):
        m = Matrix.from_rows([[-3, 1]])
        assert m.entries.tolist() == [[3, 1]]

    def test_top_sum(self):
        m = Matrix.from_rows([[3, 1], [2, 2]])
        assert m.top_sum(2) == 5.0
        assert m.top_sum(0) == 0.0
        with pytest.raises(DomainError):
            m.top_sum(5)


class TestOrderMap:
    def test_tie_break_example(self):
        h = order_map(Matrix.from_rows([[1, 0], [0, 1]]))
        assert h.pairs == ((1, 1), (2, 2), (1, 2), (2, 1))

    def test_value_order_example(self):
        h = order_map(Matrix.from_rows([[3, 1], [2, 2]]))
        assert h.pairs == ((1, 1), (2, 1), (2, 2), (1, 2))

    @given(small_matrices())
    @settings(max_examples=50, deadline=None)
    def test_compatibility_invariant(self, m):
        h = order_map(m)
        assert compatible_with(h, m)
        assert values_along(h, m)[0] == m.rearrangement[0]

    def test_ordered_class_membership(self):
        m = Matrix.from_rows([[3, 1], [2, 2]])
        h = order_map(m)
        member = indicator_matrix(h, 2)
        assert in_ordered_class(h, member, 1)
        assert not in_ordered_class(h, Matrix.from_rows([[0, 1], [1, 0]]), 1)

    @pytest.mark.parametrize("pairs", [
        ((1, 1), (5, 5)), ((1, 1), (1, 1)), ((1, 1),), ((1, 1), (1, 2), (1, 1)),
    ])
    def test_pairs_must_be_the_grid_positions(self, pairs):
        with pytest.raises(DomainError, match="every position exactly once"):
            OrderMap(1, 2, pairs)


class TestAveragedMatrix:
    def test_identity_example(self):
        m = Matrix.from_rows([[1, 0], [0, 1]])
        out = averaged_top_matrix(m, order_map(m), 1)
        assert out.entries.tolist() == [[1, 0], [0, 1]]

    def test_average_value_example(self):
        m = Matrix.from_rows([[3, 1], [2, 2]])
        out = averaged_top_matrix(m, order_map(m), 1)
        assert out.entries.tolist() == [[2.5, 0], [2.5, 0]]

    def test_zero_matrix(self):
        m = zero_matrix(2, 3)
        out = averaged_top_matrix(m, order_map(m), 2)
        assert not out.entries.any()

    @given(small_matrices(), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_mass_identity(self, m, ell):
        ell = min(ell, m.rows)
        out = averaged_top_matrix(m, order_map(m), ell)
        assert out.entries.sum() == pytest.approx(
            m.top_sum(ell * m.cols), abs=1e-9)

    def test_ell_out_of_range(self):
        m = zero_matrix(2, 2)
        with pytest.raises(DomainError):
            averaged_top_matrix(m, order_map(m), 3)


class TestIndicatorMatrix:
    def test_full_range_is_all_ones(self):
        h = order_map(Matrix.from_rows([[3, 1], [2, 2]]))
        assert indicator_matrix(h, 4).entries.tolist() == [[1, 1], [1, 1]]

    def test_singleton(self):
        h = order_map(Matrix.from_rows([[3, 1], [2, 2]]))
        assert indicator_matrix(h, 1).entries.tolist() == [[1, 0], [0, 0]]

    def test_top_two_positions(self):
        h = order_map(Matrix.from_rows([[3, 1], [2, 2]]))
        assert indicator_matrix(h, 2).entries.tolist() == [[1, 0], [1, 0]]

    def test_rearrangement_is_step(self):
        h = order_map(Matrix.from_rows([[3, 1], [2, 2]]))
        assert indicator_matrix(h, 3).rearrangement.tolist() == [1, 1, 1, 0]

    def test_m_out_of_range(self):
        h = order_map(zero_matrix(2, 2))
        with pytest.raises(DomainError):
            indicator_matrix(h, 5)


class TestReduceToTop:
    def test_keeps_largest(self):
        m = Matrix.from_rows([[3, 1], [2, 2]])
        out = reduce_to_top(m, order_map(m), 1)
        assert out.entries.tolist() == [[3, 0], [2, 0]]


class TestFileFormats:
    def test_json_round_trip(self):
        text = '{"rows": 2, "cols": 2, "entries": [[1, 0.5], [2, 3]]}'
        m = parse_matrix_json(text)
        assert m.entries.tolist() == [[1, 0.5], [2, 3]]

    def test_json_rejects_ragged(self):
        with pytest.raises(FormatError):
            parse_matrix_json('{"rows": 2, "cols": 2, "entries": [[1], [2, 3]]}')

    def test_json_rejects_bad_dims(self):
        with pytest.raises(FormatError):
            parse_matrix_json('{"rows": -2, "cols": 2, "entries": []}')

    @pytest.mark.parametrize("rows,cols", [(True, 1), (1, True), (1.0, 1)])
    def test_json_rejects_dims_that_are_not_integers(self, rows, cols):
        text = json.dumps({"rows": rows, "cols": cols, "entries": [[1.0]]})
        with pytest.raises(FormatError, match="rows/cols must be integers"):
            parse_matrix_json(text)

    @pytest.mark.parametrize("seed", [1.9, True, False, "5", None])
    def test_corpus_seed_must_be_an_integer(self, seed):
        text = json.dumps({"seed": seed, "cells": []})
        with pytest.raises(FormatError, match="corpus seed must be an integer"):
            parse_corpus_json(text)

    @pytest.mark.parametrize("mid", [{"a": 1}, True, 5, 1.5, None, ["u00"]])
    def test_corpus_ids_must_be_strings(self, mid):
        # str() would report {"a": 1} as "{'a': 1}" and true as "True"
        text = json.dumps({"cells": [{"n": 1, "N": 1, "matrices": [
            {"id": "u00", "entries": [[1.0]]}, {"id": mid, "entries": [[2.0]]}]}]})
        with pytest.raises(FormatError, match="matrix id .* in cell 1x1 is not a string"):
            parse_corpus_json(text)

    def test_corpus_ids_default_when_absent(self):
        text = json.dumps({"cells": [{"n": 1, "N": 1, "matrices": [
            {"id": "x", "entries": [[1.0]]}, {"entries": [[2.0]]}]}]})
        assert [mid for mid, _ in parse_corpus_json(text).cells[0].matrices] == ["x", "m01"]

    def test_corpus_seed_defaults_to_zero(self):
        assert parse_corpus_json('{"seed": 5, "cells": []}').seed == 5
        assert parse_corpus_json('{"cells": []}').seed == 0

    def test_json_rejects_nan(self):
        with pytest.raises(FormatError):
            parse_matrix_json('{"rows": 1, "cols": 1, "entries": [[NaN]]}')

    def test_csv_parse(self):
        m = parse_matrix_csv("1,2\n3,4\n")
        assert m.entries.tolist() == [[1, 2], [3, 4]]

    def test_csv_rejects_ragged(self):
        with pytest.raises(FormatError):
            parse_matrix_csv("1,2\n3\n")

    def test_csv_rejects_empty(self):
        with pytest.raises(FormatError):
            parse_matrix_csv("\n")

    def test_digest_is_stable(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[1, 2], [3, 4]])
        assert a.digest() == b.digest()
        assert a.digest() != Matrix.from_rows([[1, 2], [3, 5]]).digest()

    def test_json_write_read_round_trip(self):
        import json as _json
        from osb.matrices import matrix_to_json_obj
        a = Matrix.from_rows([[0.25, 1.75], [2.0, 0.0]])
        b = parse_matrix_json(_json.dumps(matrix_to_json_obj(a)))
        assert b.entries.tolist() == a.entries.tolist()


class TestCorpusDraw:
    """Each cell's matrices come from one mixer pass over all their streams;
    every matrix must be the one drawn on its own, bit for bit."""

    CELLS = ((1, 1), (1, 7), (6, 1), (5, 5))

    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 123456789, 20141124])
    @pytest.mark.parametrize("distribution", ["uniform", "integer", "sparse"])
    @pytest.mark.parametrize("per_cell", [0, 1, 50])
    def test_every_matrix_matches_the_oracle(self, seed, distribution, per_cell):
        spec = CorpusSpec(cells=self.CELLS, matrices_per_cell=per_cell,
                          distribution=distribution, seed=seed)
        corpus = generate_corpus([spec], seed=seed)
        assert [(c.n, c.N) for c in corpus] == sorted(self.CELLS)
        prefix = distribution[0]
        for cell in corpus:
            assert [mid for mid, _ in cell.matrices] == [
                f"{prefix}{i:02d}" for i in range(per_cell)]
            for i, (_, m) in enumerate(cell.matrices):
                want = oracle_generate_matrix(spec, cell.n, cell.N, i).entries
                assert m.entries.shape == want.shape
                assert m.entries.tobytes() == want.tobytes()

    def test_default_corpus_bytes_pinned(self):
        # sha256 of corpus_to_json(default_corpus()) as drawn a matrix at a time
        text = corpus_to_json(default_corpus())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "59b75af97a1c70aead65aced12e9b086a5a2b038bc2a416d46b65dde5b5cc2cc")
