import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from osb import families, rng
from osb.errors import DomainError, FormatError, HypothesisError, ResourceError
from osb.families import (
    FamilySpec,
    check_marginals,
    explicit_family,
    family_for_cell,
    full_mapping_family,
    iter_member_arrays,
    load_family,
    pairwise_constant,
    parse_family_spec,
    require_uniform_marginals,
    sample_array,
    symmetric_group,
)

from oracles import (
    all_mappings,
    all_permutations,
    brute_pairwise_constant,
    brute_worst_marginal_deviation,
    oracle_explicit_descriptor,
    oracle_member_blocks,
    oracle_pairwise_argmax,
    oracle_sample_array,
    oracle_sample_mappings,
    oracle_sample_permutations,
    oracle_words,
)


class TestConstruction:
    @pytest.mark.parametrize("n,size", [(1, 1), (3, 6), (4, 24)])
    def test_symmetric_sizes(self, n, size):
        assert symmetric_group(n).size == size

    @pytest.mark.parametrize("n,N,size", [(2, 2, 4), (3, 2, 8), (1, 5, 5)])
    def test_mapping_sizes(self, n, N, size):
        assert full_mapping_family(n, N).size == size

    def test_enumeration_matches_oracle(self):
        got = sorted(map(tuple, np.vstack(list(
            iter_member_arrays(symmetric_group(3)))).tolist()))
        assert got == sorted(all_permutations(3))
        got = sorted(map(tuple, np.vstack(list(
            iter_member_arrays(full_mapping_family(2, 3)))).tolist()))
        assert got == sorted(all_mappings(2, 3))

    def test_chunked_enumeration_is_the_same_multiset(self, monkeypatch):
        fam = full_mapping_family(3, 3)
        monkeypatch.setattr(families, "MEMBER_BLOCK_ROWS", 7)
        whole = np.vstack(list(iter_member_arrays(fam)))
        assert whole.shape == (27, 3)
        assert sorted(map(tuple, whole.tolist())) == sorted(all_mappings(3, 3))

    def test_enumeration_cap(self):
        with pytest.raises(ResourceError):
            list(iter_member_arrays(symmetric_group(4), cap=10))
        with pytest.raises(ResourceError):
            list(iter_member_arrays(symmetric_group(13)))

    def test_malformed_env_cap_is_domain_error(self, monkeypatch):
        monkeypatch.setenv("OSB_ENUM_CAP", "x")
        with pytest.raises(DomainError, match="OSB_ENUM_CAP.*'x'"):
            next(iter_member_arrays(symmetric_group(2)))


_BLOCK_FAMILIES = (
    [symmetric_group(n) for n in range(1, 10)]
    + [full_mapping_family(n, N) for n, N in
       [(1, 1), (1, 5), (4, 1), (2, 3), (5, 5), (3, 70), (1, 5000), (6, 7), (7, 8)]]
)
_CHUNKS = (1, 7, 5040, 5041, 65536)


class TestMemberBlocks:
    """The table-driven blocks against the generators they replaced.  Small
    chunks are paired only with families of at most 50,000 blocks."""

    @pytest.mark.parametrize("fam,chunk", [
        (fam, chunk) for fam in _BLOCK_FAMILIES for chunk in _CHUNKS
        if fam.size <= 50_000 * chunk
    ], ids=lambda x: x.descriptor() if isinstance(x, families.MapFamily) else str(x))
    def test_blocks_equal_the_oracle_block_for_block(self, fam, chunk, monkeypatch):
        monkeypatch.setattr(families, "MEMBER_BLOCK_ROWS", chunk)
        got = iter_member_arrays(fam)
        want = oracle_member_blocks(fam, chunk)
        for g, w in itertools.zip_longest(got, want):
            assert g is not None and w is not None
            assert g.shape == w.shape and g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)

    def test_explicit_blocks_are_list_order_slices(self, monkeypatch):
        fam = explicit_family(all_permutations(4)[::-1] * 3, 4, 4)
        for chunk in (1, 7, 72):
            monkeypatch.setattr(families, "MEMBER_BLOCK_ROWS", chunk)
            blocks = list(iter_member_arrays(fam))
            want = list(oracle_member_blocks(fam, chunk))
            assert len(blocks) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(blocks, want))

    @pytest.mark.parametrize("n", [64, 65, 200])
    def test_maps_to_one_value_of_any_length(self, n):
        # numpy arrays have at most 64 axes, so the table is not built from
        # np.indices over n axes
        fam = full_mapping_family(n, 1)
        assert [b.tolist() for b in iter_member_arrays(fam)] == [[[1] * n]]
        assert sample_array(fam, 3, 4).tolist() == [[1] * n] * 4

    def test_cached_tables_are_read_only(self):
        for table in (families._permutation_table(7), families._mapping_table(8, 4)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 99

    def test_a_caller_cannot_corrupt_later_enumerations(self, monkeypatch):
        for fam in (symmetric_group(8), full_mapping_family(5, 6)):
            with monkeypatch.context() as m:
                m.setattr(families, "MEMBER_BLOCK_ROWS", 5041)
                for block in iter_member_arrays(fam):
                    block[:] = 0
            for g, w in zip(iter_member_arrays(fam), oracle_member_blocks(fam)):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("fam,table_rows", [
        (full_mapping_family(7, 8), 4096),  # 16 runs fill each block
        (full_mapping_family(7, 5), 3125),  # runs cut at block boundaries
        (symmetric_group(9), 5040),  # every run has its own table
        (full_mapping_family(1, 5000), 5000),  # one run, no prefix
    ], ids=lambda x: x.descriptor() if isinstance(x, families.MapFamily) else str(x))
    def test_runs_of_one_table_form_one_group(self, fam, table_rows):
        blocks = list(families._member_runs(fam))
        for i, groups in enumerate(blocks):
            rows_in = [p.shape[0] * rows.shape[0] for p, rows in groups]
            assert sum(rows_in) == min(65536, fam.size - 65536 * i)
            for (p, rows), (_, following) in zip(groups, groups[1:]):
                assert following is not rows  # a group ends where its table does
            for p, rows in groups:
                assert p.dtype == np.int64 and p.shape[1] + rows.shape[1] == fam.n
                # only a run that a block boundary cuts is shorter than a table
                assert rows.shape[0] == table_rows or (p.shape[0] == 1 and (
                    rows is groups[0][1] or rows is groups[-1][1]))
        if table_rows == 4096:
            assert all(len(groups) == 1 and groups[0][0].shape[0] == 16 for groups in blocks)
        if fam.kind == families.KIND_SYMMETRIC:
            assert all(p.shape[0] == 1 for groups in blocks for p, _ in groups)

    def test_cap_raises_before_the_first_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(families, "_group_runs", no_blocks)
        monkeypatch.setattr(families, "_member_block", no_blocks)
        for fam in (symmetric_group(4), full_mapping_family(3, 3)):
            with pytest.raises(ResourceError):
                next(iter_member_arrays(fam, cap=fam.size - 1))


class TestDescriptor:
    def test_descriptor_strings(self):
        assert symmetric_group(3).descriptor() == "sym:3"
        assert full_mapping_family(2, 3).descriptor() == "map:2:3"
        # sha256 of "2:2:1,2;2,1", first 8 hex digits
        fam = explicit_family([[1, 2], [2, 1]], 2, 2)
        assert fam.descriptor() == "explicit:c8a76a34"

    @pytest.mark.parametrize("n,N,size", [
        (1, 1, 1), (1, 9, 20), (3, 10, 7), (2, 99, 50), (4, 100, 300),
        (3, 1000, 30), (2, 9999, 40), (5, 12345, 10), (2, 2**70, 6),
    ])
    def test_explicit_descriptor_equals_the_string_payload(self, n, N, size):
        # 1 to 5 digits, n = 1, and values up to the int64 range
        gen = np.random.default_rng(size)
        top = min(N, 2**63 - 1)
        members = gen.integers(1, top, (size, n), endpoint=True)
        members[0, 0] = top
        fam = explicit_family(members, n, N)
        assert fam.descriptor() == oracle_explicit_descriptor(fam)

    def test_explicit_descriptor_of_duplicate_members(self):
        fam = explicit_family([[3, 10, 1]] * 4 + [[10, 10, 10], [3, 10, 1]], 3, 10)
        assert fam.descriptor() == oracle_explicit_descriptor(fam)
        assert fam.descriptor() != explicit_family([[3, 10, 1]] * 5, 3, 10).descriptor()

    @pytest.mark.parametrize("piece", [1, 2, 3, 6, 7])
    def test_explicit_descriptor_is_hashed_in_pieces(self, piece, monkeypatch):
        # seven members in pieces of `piece` members: one, several, and a
        # last piece that is full or short
        members = np.random.default_rng(piece).integers(1, 12, (7, 3), endpoint=True)
        want = oracle_explicit_descriptor(explicit_family(members, 3, 12))
        monkeypatch.setattr(families, "MEMBER_BLOCK_ROWS", piece)
        assert explicit_family(members, 3, 12).descriptor() == want

    def test_explicit_payload_is_hashed_once_per_object(self, monkeypatch):
        calls = []
        sha256 = families.hashlib.sha256

        def counted(data):
            calls.append(data)
            return sha256(data)

        monkeypatch.setattr(families.hashlib, "sha256", counted)
        fam = explicit_family(all_permutations(3), 3, 3)
        for _ in range(3):
            fam.descriptor()
            check_marginals(fam)
            pairwise_constant(fam)
        assert len(calls) == 1
        twin = explicit_family(all_permutations(3), 3, 3)
        assert twin.descriptor() == fam.descriptor() and len(calls) == 2


class TestLoadFamily:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"n": 2, "N": 2, "maps": [[1, 2], [2, 1]]}))
        fam = load_family(str(path))
        assert fam.size == 2 and fam.n == 2 and fam.N == 2

    def test_measure_equal_to_builtin(self, tmp_path):
        path = tmp_path / "sym2.json"
        path.write_text(json.dumps({"n": 2, "N": 2, "maps": [[1, 2], [2, 1]]}))
        fam = load_family(str(path))
        builtin = symmetric_group(2)
        assert sorted(map(tuple, np.vstack(list(iter_member_arrays(fam))).tolist())) \
            == sorted(map(tuple, np.vstack(list(iter_member_arrays(builtin))).tolist()))
        assert pairwise_constant(fam).pairwise_bound == \
            pairwise_constant(builtin).pairwise_bound

    def test_rejects_out_of_range_values(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "N": 2, "maps": [[1, 3]]}))
        with pytest.raises(FormatError):
            load_family(str(path))

    def test_rejects_ragged_and_empty(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"n": 2, "N": 2, "maps": [[1]]}))
        with pytest.raises(FormatError):
            load_family(str(path))
        path.write_text(json.dumps({"n": 2, "N": 2, "maps": []}))
        with pytest.raises(FormatError):
            load_family(str(path))

    @pytest.mark.parametrize("maps", [
        [[1, 0]], [[True, 1]], [[1.0, 2]], [[1, "2"]], [[1, None]],
        [[1, 2**70]], [[1, -2**70]], [[[1], 2]],
    ])
    def test_rejects_values_that_are_not_integers_in_range(self, tmp_path, maps):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "N": 2, "maps": maps}))
        with pytest.raises(FormatError):
            load_family(str(path))

    @pytest.mark.parametrize("maps,message", [
        ([[True, 1]], "map value True is not an integer"),
        ([[1, 2], [1, False]], "map value False is not an integer"),
        ([[1, 1.0]], "map value 1.0 is not an integer"),
        ([[1, "a"]], "map value 'a' is not an integer"),
        ([[1, [2]]], "map value [2] is not an integer"),
        ([[[1, 2]]], "map value [1, 2] is not an integer"),
        ([[1, None]], "map value None is not an integer"),
        ([[1, {}]], "map value {} is not an integer"),
        ([[1, 2**63]], "map values must be integers in 1..2"),
        ([[1, -2**63 - 1]], "map values must be integers in 1..2"),
        ([[1, 2**70]], "map values must be integers in 1..2"),
        ([[1, 3]], "map values must be integers in 1..2"),
        ([[1], [1, 2]], "each map must list 2 values"),
        ([[1, 2], 5], "each map must list 2 values"),
        ([1, 2], "each map must list 2 values"),
        ([[1, 2, 1]], "each map must list 2 values"),
    ])
    def test_a_bad_map_value_is_named_whichever_way_the_maps_convert(
            self, tmp_path, maps, message):
        # the maps are converted once; the value scan that names the first
        # non-integer runs only for a table that is not 2-d int64, or a
        # text with true or false in it
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "N": 2, "maps": maps}))
        with pytest.raises(FormatError) as err:
            load_family(str(path))
        assert str(err.value) == message

    def test_a_true_elsewhere_in_the_text_loads_the_same_family(self, tmp_path):
        maps = [list(p) for p in itertools.permutations(range(1, 5))]
        path = tmp_path / "fam.json"
        for extra in ({}, {"note": "true or false", "flag": True}):
            path.write_text(json.dumps({"n": 4, "N": 4, "maps": maps, **extra}))
            fam = load_family(str(path))
            assert fam == explicit_family(maps, 4, 4)
            assert fam.members.dtype == np.int64 and not fam.members.flags.writeable

    @pytest.mark.parametrize("n,N", [
        (True, True), (1, True), (True, 1), (1.0, 1), (0, 1), ("1", 1),
    ])
    def test_rejects_dimensions_that_are_not_positive_integers(self, tmp_path, n, N):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": n, "N": N, "maps": [[1]]}))
        with pytest.raises(FormatError, match="n and N must be positive integers"):
            load_family(str(path))

    def test_explicit_family_rejects_bad_members(self):
        with pytest.raises(DomainError, match="integers in 1..2"):
            explicit_family([[1, 2], [2, 3]], 2, 2)
        with pytest.raises(DomainError, match="integers in 1..2"):
            explicit_family([[1, 2], [2, 1.5]], 2, 2)
        with pytest.raises(DomainError, match="each map must list 2 values"):
            explicit_family([[1, 2], [2]], 2, 2)
        fam = explicit_family(np.array([[2, 1], [1, 2]]), 2, 2)
        assert fam.members.dtype == np.int64
        assert fam.descriptor() == explicit_family([[2, 1], [1, 2]], 2, 2).descriptor()

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 1, "N": 1, "maps": [[1]], "note": "\xe9"}')
        with pytest.raises(FormatError, match="not UTF-8"):
            load_family(str(path))

    def test_duplicates_weight_the_measure(self):
        fam = explicit_family([[1, 1], [1, 1], [2, 2]], 2, 2)
        cert = check_marginals(fam)
        assert cert.worst_marginal_deviation == Fraction(2, 3) - Fraction(1, 2)


class TestEquality:
    def test_equal_member_lists_are_equal_and_hash_equal(self):
        fam = explicit_family(all_permutations(3), 3, 3)
        twin = explicit_family(np.array(all_permutations(3)), 3, 3)
        assert twin == fam and hash(twin) == hash(fam)
        assert len({fam, twin, symmetric_group(3)}) == 2
        assert symmetric_group(3) == symmetric_group(3)
        assert hash(symmetric_group(3)) == hash(symmetric_group(3))

    def test_different_members_or_order_are_unequal(self):
        maps = all_permutations(3)
        fam = explicit_family(maps, 3, 3)
        assert explicit_family(maps[:-1] + [maps[0]], 3, 3) != fam
        assert explicit_family(maps[::-1], 3, 3) != fam
        assert explicit_family(maps, 3, 4) != fam
        assert symmetric_group(3) != fam and full_mapping_family(3, 3) != symmetric_group(3)

    def test_members_are_one_read_only_copy(self):
        source = np.array(all_permutations(3))
        fam = explicit_family(source, 3, 3)
        source[0] = 1
        assert fam.members.tolist() == [list(g) for g in all_permutations(3)]
        with pytest.raises(ValueError):
            fam.members[0, 0] = 2

    def test_unknown_kind_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown family kind 'foo'"):
            families.MapFamily(2, 2, "foo")

    @pytest.mark.parametrize("n,N", [(2.5, 2), ("2", 2), (True, 2), (2, False),
                                     (2, 2.0), (np.int64(2), 2)])
    def test_dimensions_that_are_not_ints_are_domain_errors(self, n, N):
        with pytest.raises(DomainError, match="n and N must be integers"):
            families.MapFamily(n, N, "full-mapping")


class TestMarginals:
    def test_symmetric_group_uniform(self):
        cert = check_marginals(symmetric_group(3))
        assert cert.marginals_uniform and cert.worst_marginal_deviation == 0

    def test_full_mapping_uniform(self):
        cert = check_marginals(full_mapping_family(2, 2))
        assert cert.marginals_uniform and cert.worst_marginal_deviation == 0

    def test_degenerate_family_not_uniform(self):
        fam = explicit_family([[1, 2]], 2, 2)  # the identity map only
        cert = check_marginals(fam)
        assert not cert.marginals_uniform
        assert cert.worst_marginal_deviation == Fraction(1, 2)

    def test_explicit_uniform_family(self):
        fam = explicit_family(all_permutations(3), 3, 3)
        assert check_marginals(fam).marginals_uniform

    @pytest.mark.parametrize("seed", range(6))
    def test_explicit_deviation_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, N = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        maps = rng.integers(1, N + 1, size=(int(rng.integers(1, 9)), n)).tolist()
        cert = check_marginals(explicit_family(maps, n, N))
        want = brute_worst_marginal_deviation(maps, n, N)
        assert cert.worst_marginal_deviation == want
        assert cert.marginals_uniform is (want == 0)
        assert cert.pairwise_bound == brute_pairwise_constant(maps, n, N)

    def test_guard_attaches_full_certificate(self):
        require_uniform_marginals(explicit_family(all_permutations(3), 3, 3))
        with pytest.raises(HypothesisError, match="uniform-marginal") as err:
            require_uniform_marginals(explicit_family([[1, 2]], 2, 2))
        cert = err.value.certificate
        assert cert.marginals_uniform is False
        assert cert.pairwise_bound == 4 and cert.argmax_pair is not None


class TestPairwiseConstant:
    def test_symmetric_examples(self):
        assert pairwise_constant(symmetric_group(2)).pairwise_bound == 2
        assert pairwise_constant(symmetric_group(3)).pairwise_bound == Fraction(3, 2)
        # consistent with the documented bound of 2 for permutations
        for n in range(2, 6):
            assert pairwise_constant(symmetric_group(n)).pairwise_bound <= 2

    def test_full_mapping_is_one(self):
        for n, N in [(2, 2), (3, 3), (2, 4), (4, 2)]:
            assert pairwise_constant(full_mapping_family(n, N)).pairwise_bound == 1

    def test_closed_form_against_oracle(self):
        for n in (2, 3, 4):
            want = brute_pairwise_constant(all_permutations(n), n, n)
            assert pairwise_constant(symmetric_group(n)).pairwise_bound == want
            assert want == Fraction(n, n - 1)
        for n, N in [(2, 2), (2, 3), (3, 2)]:
            want = brute_pairwise_constant(all_mappings(n, N), n, N)
            assert pairwise_constant(full_mapping_family(n, N)).pairwise_bound == want

    def test_explicit_matches_builtin(self):
        fam = explicit_family(all_mappings(2, 3), 2, 3)
        assert pairwise_constant(fam).pairwise_bound == 1

    def test_argmax_pair_attains_the_maximum(self):
        fam = explicit_family([[1, 1], [1, 2], [2, 1]], 2, 2)
        cert = pairwise_constant(fam)
        (i1, j1), (i2, j2) = cert.argmax_pair
        count = sum(
            1 for g in fam.members if g[i1 - 1] == j1 and g[i2 - 1] == j2
        )
        assert Fraction(4 * count, fam.size) == cert.pairwise_bound

    def test_row_relabeling_invariance(self):
        base = all_mappings(3, 2)
        relabeled = [(g[2], g[0], g[1]) for g in base]
        a = pairwise_constant(explicit_family(base, 3, 2)).pairwise_bound
        b = pairwise_constant(explicit_family(relabeled, 3, 2)).pairwise_bound
        assert a == b == 1

    def test_singleton_shape_has_zero_constant(self):
        assert pairwise_constant(symmetric_group(1)).pairwise_bound == 0
        assert pairwise_constant(full_mapping_family(1, 4)).pairwise_bound == 0

    @pytest.mark.parametrize("n,N", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (3, 4),
                                     (4, 3), (5, 2), (6, 3), (7, 2), (8, 8)])
    def test_explicit_certificate_matches_the_per_pair_loop(self, n, N):
        # few values and repeated members make ties between pairs common
        rng = np.random.default_rng(10 * n + N)
        for size in (1, 2, 5, 17, 60):
            maps = rng.integers(1, N + 1, (size, n)).tolist()
            maps += maps[: size // 3]
            cert = pairwise_constant(explicit_family(maps, n, N))
            best, argmax = oracle_pairwise_argmax(maps, n, N)
            if argmax is None and N > 1:
                argmax = ((1, 1), (1, 2))
            assert cert.pairwise_bound == Fraction(N * N * best, len(maps))
            assert cert.argmax_pair == argmax
            assert cert.pairwise_bound == brute_pairwise_constant(maps, n, N)


class TestCertificateCache:
    def test_each_certificate_is_computed_once_per_family(self, monkeypatch):
        calls = []
        compute = families._compute_certificate

        def counted(family):
            calls.append(family.descriptor())
            return compute(family)

        monkeypatch.setattr(families, "_compute_certificate", counted)
        fam = explicit_family(all_permutations(3) * 2, 3, 3)
        for _ in range(3):
            require_uniform_marginals(fam)
            assert check_marginals(fam) is check_marginals(fam)
            assert pairwise_constant(fam) is pairwise_constant(fam)
            assert check_marginals(fam) is pairwise_constant(fam)
        assert len(calls) == 1
        twin = explicit_family(all_permutations(3) * 2, 3, 3)
        assert twin == fam and "_certificate" not in vars(twin)
        assert pairwise_constant(twin) == pairwise_constant(fam)
        assert check_marginals(twin) == check_marginals(fam)
        assert len(calls) == 2


class TestSampling:
    def test_permutation_draws_are_valid(self):
        for g in sample_array(symmetric_group(4), seed=3, count=25):
            assert sorted(g) == [1, 2, 3, 4]

    def test_mapping_draws_are_in_range(self):
        arr = sample_array(full_mapping_family(3, 5), seed=3, count=100)
        assert arr.min() >= 1 and arr.max() <= 5

    def test_deterministic_and_partition_independent(self):
        fam = full_mapping_family(3, 4)
        whole = sample_array(fam, seed=11, count=64)
        again = sample_array(fam, seed=11, count=64)
        assert (whole == again).all()
        parts = np.vstack([
            sample_array(fam, seed=11, count=10),
            sample_array(fam, seed=11, count=30, start=10),
            sample_array(fam, seed=11, count=24, start=40),
        ])
        assert (whole == parts).all()
        assert not (whole == sample_array(fam, seed=12, count=64)).all()

    def test_singleton_family_is_constant(self):
        fam = explicit_family([[2, 1]], 2, 2)
        assert sample_array(fam, seed=0, count=5).tolist() == [[2, 1]] * 5

    def test_empirical_marginals_within_clt_bound(self):
        fam = full_mapping_family(2, 3)
        count = 100000
        arr = sample_array(fam, seed=21, count=count)
        p = 1.0 / 3.0
        bound = 4.0 * math.sqrt(p * (1 - p) / count)
        for j in (1, 2, 3):
            emp = float((arr[:, 0] == j).mean())
            assert abs(emp - p) <= bound

    def test_count_validation(self):
        with pytest.raises(DomainError):
            sample_array(symmetric_group(2), seed=0, count=0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_permutations_match_the_swap_loop(self, n):
        # n <= 7 reads the shuffle table, n > 7 runs the loop
        fam = symmetric_group(n)
        for seed, count, start in [(0, 1, 0), (3, 5000, 0), (9, 777, 12345)]:
            got = sample_array(fam, seed, count, start)
            assert got.dtype == np.int64 and got.flags.writeable
            assert np.array_equal(got, oracle_sample_permutations(fam, seed, count, start))

    @pytest.mark.parametrize("n,N", [(1, 1), (3, 7), (5, 4), (2, 3), (8, 2)])
    def test_mappings_match_the_one_shot_remainder(self, n, N):
        fam = full_mapping_family(n, N)
        for seed, count, start in [(0, 1, 0), (3, 5000, 0), (9, 777, 12345)]:
            got = sample_array(fam, seed, count, start)
            assert got.dtype == np.int64 and got.flags.writeable
            assert got.flags.c_contiguous and got.shape == (count, n)
            assert np.array_equal(got, oracle_sample_mappings(fam, seed, count, start))

    @pytest.mark.parametrize("family", [
        *(symmetric_group(n) for n in range(1, 11)),
        full_mapping_family(1, 1),
        full_mapping_family(5, 4),
        full_mapping_family(70, 2),
        explicit_family([[1, 2, 3], [3, 3, 1], [1, 2, 3], [2, 1, 2], [1, 2, 3]], 3, 3),
    ], ids=lambda f: f.descriptor())
    def test_column_draws_match_the_whole_row_draws(self, family):
        # one draw, one piece of words and a word, and a tail past a chunk
        for start in (0, 5, 131072):
            for count in (1, 16385, 70001):
                got = sample_array(family, 11, count, start)
                assert got.dtype == np.int64 and got.shape == (count, family.n)
                assert np.array_equal(got, oracle_sample_array(family, 11, count, start))

    def test_draws_at_a_nonzero_start_are_pinned(self):
        # recorded before the sampler drew one word column at a time
        fam = explicit_family([[1, 2, 3], [3, 3, 1], [1, 2, 3], [2, 1, 2], [1, 2, 3]], 3, 3)
        assert sample_array(fam, 7, 4, 5).tolist() == [
            [1, 2, 3], [3, 3, 1], [1, 2, 3], [1, 2, 3]]
        assert sample_array(fam, 7, 4, 131072).tolist() == [
            [1, 2, 3], [1, 2, 3], [2, 1, 2], [1, 2, 3]]
        assert sample_array(symmetric_group(5), 7, 4, 5).tolist() == [
            [1, 2, 4, 5, 3], [3, 4, 1, 5, 2], [2, 3, 1, 5, 4], [2, 3, 5, 1, 4]]
        assert sample_array(symmetric_group(5), 7, 4, 131072).tolist() == [
            [2, 1, 4, 5, 3], [4, 5, 3, 2, 1], [2, 1, 3, 4, 5], [1, 2, 5, 4, 3]]

    # divisors of every size up to 2**16, the sizes of built-in and file
    # families, and divisors near 2**63 and 2**64
    REMAINDER_DIVISORS = [
        *range(1, 65537),
        *(math.factorial(n) for n in range(8, 21)),
        3**20, 10**12 + 39, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1,
    ]

    def test_remainders_by_division_match_the_remainder(self):
        gen = np.random.default_rng(5)
        rand = gen.integers(0, 2**64, size=8, dtype=np.uint64, endpoint=False)
        top = 2**64 - 1
        for r in self.REMAINDER_DIVISORS:
            words = np.array([0, 1, r - 1, r, min(r + 1, top), 2 * r % 2**64,
                              r * (top // r), top, top - 1], dtype=np.uint64)
            words = np.concatenate([words, rand])
            got = families._remainder(words.copy(), r)
            assert np.array_equal(got, words % np.uint64(r)), r

    @pytest.mark.parametrize("size", [16383, 16384, 16385, 3 * 16384 + 7])
    def test_remainders_by_division_run_in_place_over_pieces(self, size):
        words = rng.words(rng.derive_key(3, 101), 0, size)
        for r in (1, 2, 3, 7, 120, 5040, 2**32 + 15, 2**63 + 5):
            w = words.copy()
            assert families._remainder(w, r) is w
            assert np.array_equal(w, words % np.uint64(r)), r

    @pytest.mark.parametrize("n", range(1, families._SYM_TABLE_WIDTH + 1))
    def test_shuffle_table_lists_each_permutation_once(self, n):
        table = families._shuffle_table(n)
        assert table.shape == (math.factorial(n), n) and not table.flags.writeable
        assert len({tuple(row) for row in table.tolist()}) == table.shape[0]
        assert (np.sort(table, axis=1) == np.arange(1, n + 1)).all()


class TestWords:
    # one piece less a word, one piece, one piece and a word, and a tail
    @pytest.mark.parametrize("count", [1, 16383, 16384, 16385, 3 * 16384 + 7])
    def test_pieces_give_the_one_pass_words(self, count):
        for key in (0, rng.derive_key(7, 101), 2**64 - 1):
            for start in (0, 2**64 - 1 - count):  # the last counter is 2**64 - 1
                got = rng.words(key, start, count)
                assert got.dtype == np.uint64 and got.shape == (count,)
                assert np.array_equal(got, oracle_words(key, start, count))

    def test_a_counter_past_64_bits_raises(self):
        with pytest.raises(OverflowError):
            rng.words(5, 2**64 - 3, 3)

    @pytest.mark.parametrize("count", [1, 16383, 16384, 16385, 3 * 16384 + 7])
    def test_strided_words_are_columns_of_the_one_pass_words(self, count):
        key = rng.derive_key(7, 101)
        for stride in range(1, 10):
            # start 0, and the range whose last counter is 2**64 - 1
            for start in (0, 2**64 - 1 - count * stride):
                rows = oracle_words(key, start, count * stride)
                for t in range(stride):
                    got = rng.words(key, start + t, count, stride)
                    assert got.dtype == np.uint64 and got.flags.c_contiguous
                    assert np.array_equal(got, rows[t::stride]), (stride, start, t)

    @pytest.mark.parametrize("stride", [2, 3, 9])
    def test_a_strided_counter_past_64_bits_raises(self, stride):
        # the last counter is start + 1 + (count - 1) * stride
        start = 2**64 - 1 - 1 - 4 * stride
        assert rng.words(5, start, 5, stride).shape == (5,)
        with pytest.raises(OverflowError):
            rng.words(5, start + 1, 5, stride)
        with pytest.raises(OverflowError):
            rng.words(5, start, 6, stride)

    def test_a_stride_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            rng.words(5, 0, 3, 0)


class TestFamilySpec:
    def test_parse_forms(self):
        assert parse_family_spec("sym:3") == FamilySpec("sym", n=3, N=3)
        assert parse_family_spec("map:2:5") == FamilySpec("map", n=2, N=5)
        assert parse_family_spec("map") == FamilySpec("map")
        assert parse_family_spec("file:/x/y.json") == FamilySpec("file", path="/x/y.json")

    def test_parse_rejects_garbage(self):
        for bad in ("sim:3", "sym:x", "map:2", ""):
            with pytest.raises(DomainError):
                parse_family_spec(bad)
        for bad in ("sym:0", "sym:-2", "map:2:0", "map:-1:3", "map:0:0"):
            with pytest.raises(DomainError, match="n and N must be positive"):
                parse_family_spec(bad)

    def test_cell_applicability(self):
        assert family_for_cell(FamilySpec("sym"), 2, 3) is None
        assert family_for_cell(FamilySpec("sym"), 3, 3).size == 6
        assert family_for_cell(FamilySpec("sym", n=2, N=2), 3, 3) is None
        assert family_for_cell(FamilySpec("map"), 2, 3).size == 9
        assert family_for_cell(FamilySpec("map", n=2, N=2), 2, 3) is None
