import gc
import warnings
import weakref
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from infosel import estimators, selection
from infosel.data import DiscreteDataset, discretize, make_xor_table, toy_dataset
from infosel.estimators import TARGET, EstimatorContext, cell_terms, profile_entropy
from infosel.oracle import _grouped_entropy, _total_redundancy
from infosel.selection import predicted_mi_calls, run_sfs
from infosel.criteria import parse_criterion

from util import (RefContext, columns, joint_counts, random_ds, ref_cmi, ref_entropy,
                  ref_shrinkage_entropy, shrinkage_pmf)

TOL = 1e-9


@pytest.fixture
def toy_ctx():
    return EstimatorContext(toy_dataset())


class TestEntropy:
    def test_constant_column_is_zero(self):
        ds = DiscreteDataset(np.zeros((8, 1), np.int64), (1,),
                             np.array([0, 1] * 4, np.int64), 2, ("c",))
        assert EstimatorContext(ds).entropy([0]) == 0.0

    def test_fair_binary_is_one_bit(self):
        ds = DiscreteDataset(np.array([[0], [1]] * 5, np.int64), (2,),
                             np.array([0, 1] * 5, np.int64), 2, ("c",))
        assert EstimatorContext(ds).entropy([0]) == pytest.approx(1.0, abs=TOL)

    def test_toy_target_entropy(self, toy_ctx):
        # -0.6 log2 0.6 - 0.4 log2 0.4
        assert toy_ctx.entropy([TARGET]) == pytest.approx(0.970951, abs=1e-5)

    def test_empty_cols_rejected(self, toy_ctx):
        with pytest.raises(ValueError):
            toy_ctx.entropy([])

    def test_matches_reference_on_random_data(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            ds = random_ds(rng)
            ctx = EstimatorContext(ds)
            cols = sorted(set(rng.choice(4, rng.integers(1, 4), replace=False).tolist()))
            assert ctx.entropy(cols) == pytest.approx(
                ref_entropy(*columns(ds, cols)), abs=TOL)


#: column arities: small ones are counted through a table, while 1500 and 2**40,
#: far above the row counts drawn, force the sort; seven columns of 1500 exceed
#: 2**62 states
ARITIES = (1, 2, 3, 5, 1500, 2 ** 40)


@st.composite
def tables(draw):
    """A random table whose columns each repeat a few values of their arity."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    arities, cols = [], []
    for _ in range(d):
        arity = draw(st.sampled_from(ARITIES))
        levels = draw(st.lists(st.integers(0, arity - 1), min_size=1, max_size=4, unique=True))
        cols.append(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
        arities.append(arity)
    target = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return DiscreteDataset(np.array(cols, dtype=np.int64).T, tuple(arities),
                           np.array(target, dtype=np.int64), 3,
                           tuple(f"f{i}" for i in range(d)))


@st.composite
def tables_and_sets(draw):
    ds = draw(tables())
    pool = st.sampled_from(range(TARGET, ds.n_features))
    sets = draw(st.lists(st.lists(pool, min_size=1, max_size=ds.n_features + 1),
                         min_size=1, max_size=8))
    return ds, sets


def _pre_encoded(ds, key):
    """The key's columns as one column of np.unique row ranks, over the same cells."""
    _, rank = np.unique(np.column_stack(columns(ds, key)), axis=0, return_inverse=True)
    cells = 1.0
    for c in key:
        cells *= ds.n_classes if c == TARGET else ds.arities[c]
    return DiscreteDataset(rank.reshape(-1, 1).astype(np.int64), (int(cells),),
                           np.zeros(ds.n_rows, np.int64), 1, ("joint",))


class TestJointEncoder:
    """Counts and entropies of every path equal those of np.unique over the rows.

    Count order is unspecified, so counts are compared as sorted multisets.
    """

    def _check(self, ctx, ds, cols):
        key = sorted(set(cols))
        stacked = np.column_stack(columns(ds, key))
        want = np.unique(stacked, axis=0, return_counts=True)[1]
        assert np.array_equal(np.sort(joint_counts(ctx, cols)[0]), np.sort(want)), key
        # the same multiset of counts gives the same floats, for both estimators
        single = EstimatorContext(_pre_encoded(ds, key), estimator=ctx.estimator)
        assert ctx.entropy(cols) == single.entropy([0]), key
        if ctx.estimator == "plugin":
            assert ctx.entropy(cols) == ref_entropy(*columns(ds, key)), key

    @pytest.mark.parametrize("estimator", ["plugin", "shrinkage"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=tables_and_sets())
    def test_matches_row_unique(self, estimator, case):
        ds, sets = case
        cold = EstimatorContext(ds, estimator=estimator)
        for cols in sets:
            self._check(cold, ds, cols)
        for cols in sets:                      # warm: prefixes cached
            self._check(cold, ds, cols)
        with mock.patch.object(estimators, "_CODE_CACHE_SIZE", 1):
            evicting = EstimatorContext(ds, estimator=estimator)
            for cols in sets + sets[::-1]:
                self._check(evicting, ds, cols)
                assert len(evicting._code_cache) <= 1

    def test_dense_product_above_2_pow_62(self):
        rng = np.random.default_rng(12)
        codes = rng.integers(0, 1500, size=(64, 7)).astype(np.int64) % 4 * 311
        ds = DiscreteDataset(codes, (1500,) * 7, (codes[:, 0] > 0).astype(np.int64), 2,
                             tuple(f"f{i}" for i in range(7)))
        ctx = EstimatorContext(ds)
        cols = list(range(7)) + [TARGET]
        assert joint_counts(ctx, cols)[1] > 2 ** 62
        self._check(ctx, ds, cols)

    def test_code_cache_never_exceeds_its_bound(self):
        rng = np.random.default_rng(13)
        ds = random_ds(rng, d=8, n=50)
        ctx = EstimatorContext(ds)
        sizes = []
        for r in range(2, 6):
            for cols in combinations(range(8), r):
                ctx.entropy(list(cols) + [TARGET])
                sizes.append(len(ctx._code_cache))
        assert max(sizes) == estimators._CODE_CACHE_SIZE


class TestOneExtendPerMiss:
    """A sweep's sets extend the cached base they share, one column each, and
    one table gives each set's entropy together with that of the set and Y."""

    @pytest.mark.parametrize("cache_size", [estimators._CODE_CACHE_SIZE, 2])
    def test_sweep_extends_the_cached_base_once(self, cache_size):
        ds = random_ds(np.random.default_rng(14), d=8, n=50)
        extends = []
        real = estimators._extend

        def spy(*args):
            extends.append(args)
            return real(*args)

        with mock.patch.object(estimators, "_CODE_CACHE_SIZE", cache_size), \
                mock.patch.object(estimators, "_extend", spy):
            ctx = EstimatorContext(ds)
            base = mask_of([0, 1, 2])                      # k | Z, without Y
            ctx.entropy(base)
            for j in range(3, 8):
                before, tables = len(extends), ctx.tables
                ctx.entropy(base | 2 << j)
                assert len(extends) == before + 1 and ctx.tables == tables + 1, j
                code, size = ctx._code_cache[base]
                assert extends[-1][0] is code and size <= ds.n_rows
                assert len(ctx._code_cache) <= cache_size
                # the partner with Y came from the same table
                ctx.entropy(base | 2 << j | estimators.TARGET_BIT)
                assert len(extends) == before + 1 and ctx.tables == tables + 1, j
            assert ctx.rows_scanned == ctx.n_rows * (4 + 5 * 5)


@st.composite
def pair_tables(draw):
    """A table with a target of 1 to 7 classes, possibly constant.

    A column either repeats a few values of its arity or gives every row its
    own value; a set holding such a column has N states, so with 5 or more
    classes its pair table is counted by sorting rather than through a table.
    """
    n = draw(st.integers(1, 40))
    arities, cols = [], []
    for _ in range(draw(st.integers(1, 4))):
        arity = draw(st.sampled_from(ARITIES))
        if arity >= 1500 and draw(st.booleans()):
            col = draw(st.lists(st.integers(0, arity - 1), min_size=n, max_size=n, unique=True))
        else:
            levels = draw(st.lists(st.integers(0, arity - 1), min_size=1, max_size=4,
                                   unique=True))
            col = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        cols.append(col)
        arities.append(arity)
    n_classes = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=n_classes,
                           unique=True))
    target = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    return DiscreteDataset(np.array(cols, dtype=np.int64).T, tuple(arities),
                           np.array(target, dtype=np.int64), n_classes,
                           tuple(f"f{i}" for i in range(len(cols))))


class TestPairTable:
    """H(A) and H(A, Y) from one table equal those of A and of A with Y counted alone."""

    @pytest.mark.parametrize("estimator", ["plugin", "shrinkage"])
    @pytest.mark.parametrize("target_first", [False, True], ids=["a-first", "ay-first"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ds=pair_tables(), data=st.data())
    def test_matches_one_column_context(self, estimator, target_first, ds, data):
        a = data.draw(st.lists(st.sampled_from(range(ds.n_features)), min_size=1, unique=True))
        ctx = EstimatorContext(ds, estimator)
        pair = {mask_of(a): a, mask_of(a) | estimators.TARGET_BIT: a + [TARGET]}
        got = {mask: ctx.entropy(mask) for mask in sorted(pair, reverse=target_first)}
        assert ctx.tables == 1
        for mask, cols in pair.items():
            key = sorted(cols)
            single = EstimatorContext(_pre_encoded(ds, key), estimator=estimator)
            assert got[mask] == single.entropy([0]), key
            if estimator == "plugin":
                assert got[mask] == ref_entropy(*columns(ds, key)), key


class TestNarrowCodes:
    """The context's copy keeps each column in the narrowest unsigned dtype
    that holds its arity, and a set's codes are uint16 while their range is
    below 2**16 and int32 only while it is below 2**31, a dtype that holds
    the range itself; every product is taken in the wider dtype."""

    @pytest.mark.parametrize("table_rows", [estimators._TABLE_ROWS, 0],
                             ids=["table", "unique"])
    def test_dtype_boundaries_match_reference(self, table_rows):
        # uint8 holds arities 255 and 256, uint16 holds 257, 65,537 needs int64;
        # 256 * 257 states pass 2**16, and every code reaches arity - 1
        rng = np.random.default_rng(17)
        n, arities = 300, (255, 256, 257, 65_537)
        cols = [rng.permutation(np.resize(np.arange(arity - n, arity) % arity, n))
                if arity > n else rng.permutation(np.resize(np.arange(arity), n))
                for arity in arities]
        target = rng.integers(0, 3, n)
        assert np.any(np.diff(target) < 0) and set(target) == {0, 1, 2}
        ds = DiscreteDataset(np.column_stack(cols).astype(np.int64), arities,
                             target.astype(np.int64), 3, tuple(f"f{i}" for i in range(4)))
        with mock.patch.object(estimators, "_TABLE_ROWS", table_rows):
            for r in range(1, 5):
                for feats in combinations(range(4), r):
                    for key in (list(feats), list(feats) + [TARGET]):
                        ctx = EstimatorContext(ds)
                        assert ctx.entropy(key) == ref_entropy(*columns(ds, key)), key
            ctx = EstimatorContext(ds)
            assert ctx.entropy([TARGET]) == ref_entropy(ds.target)

    @pytest.mark.parametrize("table_rows", [estimators._TABLE_ROWS, 0],
                             ids=["table", "unique"])
    def test_uint16_below_a_range_of_2_pow_16(self, table_rows):
        # two classes and arities 127, 128, 256 and 258 on 33,000 rows: {0, 3}
        # has a range of 2 * 127 * 258 = 65,532 codes, just below 2**16, and
        # {1, 2} of 2 * 128 * 256 = 2**16 itself, and neither has more cells
        # than rows, so neither is relabelled; {1, 3} and {2, 3} have, and
        # come back as uint16 labels through a label table unless _TABLE_ROWS
        # is 0, and every triple through np.unique
        rng = np.random.default_rng(29)
        n, arities = 33_000, (127, 128, 256, 258)
        cols = np.column_stack([rng.permutation(np.resize(np.arange(a), n)) for a in arities])
        target = rng.integers(0, 2, n)
        # every set's codes reach the top of its range
        cols[0], target[0] = [a - 1 for a in arities], 1
        ds = DiscreteDataset(cols, arities, target, 2, ("a", "b", "c", "d"))
        relabels = []
        relabel = estimators._relabel

        def spy(code, size, n_rows):
            dense, cells = relabel(code, size, n_rows)
            relabels.append((size, dense.dtype))
            return dense, cells

        with mock.patch.object(estimators, "_TABLE_ROWS", table_rows), \
                mock.patch.object(estimators, "_relabel", spy):
            ctx = EstimatorContext(ds)
            for r in range(1, 5):
                for feats in combinations(range(4), r):
                    for key in (list(feats), list(feats) + [TARGET]):
                        assert ctx.entropy(key) == ref_entropy(*columns(ds, key)), key
        assert ctx._code_cache[2 << 0 | 2 << 3][0].dtype == np.uint16
        assert ctx._code_cache[2 << 1 | 2 << 2][0].dtype == np.int32
        # the pairs are relabelled within the label table's reach, the triples past it
        sizes = sorted(size for size, _ in relabels)
        assert sizes[:2] == [128 * 258, 256 * 258] and sizes[2] > estimators._TABLE_ROWS * n
        assert {dtype for _, dtype in relabels} == {np.dtype(np.uint16)}

    @pytest.mark.parametrize("table_rows", [estimators._TABLE_ROWS, 0],
                             ids=["table", "unique"])
    def test_one_class_range_of_exactly_2_pow_16(self, table_rows):
        # with one class a code's range can be 2**16 itself, and the target's
        # digit is then scaled by 2**16: column 0 holds 2**16 values on 2**16
        # rows, and {0, 1} is relabelled to 2**16 cells; int32 holds that
        # range, so the factor needs no special case
        rng = np.random.default_rng(31)
        n, arities = 1 << 16, (1 << 16, 2, 256)
        cols = np.column_stack([rng.permutation(n), rng.integers(0, 2, n),
                                rng.integers(0, 256, n)])
        ds = DiscreteDataset(cols, arities, np.zeros(n, np.int64), 1, ("a", "b", "c"))
        with mock.patch.object(estimators, "_TABLE_ROWS", table_rows):
            ctx = EstimatorContext(ds)
            for r in range(1, 4):
                for feats in combinations(range(3), r):
                    for key in (list(feats), list(feats) + [TARGET]):
                        assert ctx.entropy(key) == ref_entropy(*columns(ds, key)), key
        for mask in (2 << 0, 2 << 0 | 2 << 1):
            code, size = ctx._code_cache[mask]
            assert (code.dtype, size) == (np.int32, n)

    def test_code_range_past_2_pow_32_keeps_int64(self):
        # two near-unique columns of arity 70,000: a joint code is
        # base * 70,000 + column, up to 4.9e9, and the rows below put two
        # codes exactly 2**32 apart, whichever column is the base
        rng = np.random.default_rng(19)
        n = 70_000
        cols = rng.integers(0, n, size=(n, 2))
        cols[:3] = [[0, 0], [47_296, 61_356], [61_356, 47_296]]
        assert 61_356 * n + 47_296 == 2 ** 32
        ds = DiscreteDataset(cols, (n, n), rng.integers(0, 2, n), 2, ("a", "b"))
        ctx = EstimatorContext(ds)
        for key in ([0, 1], [0, 1, TARGET]):
            assert ctx.entropy(key) == ref_entropy(*columns(ds, key)), key


class TestClassSlices:
    """Each set's codes carry the target as their top digit, so the table of
    one joint code is the table of (A, Y), one slice of A's cells per class,
    and the slices sum to the table of A.  That gives H(A, Y) and H(A)
    whatever the class count, a declared class without rows included,
    through the table and through sorting."""

    @pytest.mark.parametrize("table_rows", [estimators._TABLE_ROWS, 0],
                             ids=["table", "unique"])
    @pytest.mark.parametrize("n_classes", [1, 2, 3, 7, 40])
    def test_slices_match_joint_code(self, n_classes, table_rows):
        rng = np.random.default_rng(n_classes)
        n, arities = 400, (2, 5, 30, 400)
        codes = np.column_stack([rng.integers(0, a, n) for a in arities])
        # the last class holds no rows when there are several
        target = rng.integers(0, max(1, n_classes - 1), n)
        ds = DiscreteDataset(codes, arities, target, n_classes,
                             tuple(f"f{i}" for i in range(4)))
        keys = [list(feats) + tail for r in range(1, 5) for feats in combinations(range(4), r)
                for tail in ([], [TARGET])] + [[TARGET]]
        with mock.patch.object(estimators, "_TABLE_ROWS", table_rows):
            plugin = EstimatorContext(ds)
            shrinkage = EstimatorContext(ds, estimator="shrinkage")
            for key in keys:
                cols = columns(ds, key)
                dense = float(np.prod([n_classes if c == TARGET else arities[c] for c in key]))
                assert plugin.entropy(key) == ref_entropy(*cols), key
                assert shrinkage.entropy(key) == pytest.approx(
                    ref_shrinkage_entropy(*cols, dense=dense), abs=1e-12), key

    def test_near_unique_target(self):
        # an integer target with nearly one class per row: every pair table
        # is counted by sorting, and sets past N cells are relabelled below it
        rng = np.random.default_rng(23)
        n, arities = 300, (7, 60, 300)
        codes = np.column_stack([rng.integers(0, a, n) for a in arities])
        target = rng.permutation(n)
        target[:20] = target[20:40]
        ds = DiscreteDataset(codes, arities, target, n, ("a", "b", "c"))
        ctx = EstimatorContext(ds)
        for r in range(1, 4):
            for feats in combinations(range(3), r):
                for key in (list(feats), list(feats) + [TARGET]):
                    assert ctx.entropy(key) == ref_entropy(*columns(ds, key)), key
        assert ctx.entropy([TARGET]) == ref_entropy(ds.target)

    def test_code_range_past_int64_rejected(self):
        # a joint code can reach classes * N**2 before it is relabelled
        ds = DiscreteDataset(np.zeros((10, 1), np.int64), (2,), np.zeros(10, np.int64),
                             2 ** 60, ("a",))
        with pytest.raises(ValueError, match="10 rows and 1152921504606846976 classes"):
            EstimatorContext(ds)


class TestBinnedColumnsInPlace:
    """Binning stores each column in the dtype the context reads, so the
    context uses a binned dataset's columns in place, and gives the same
    floats as over the same rows in int64."""

    def test_shared_columns_and_int64_twin(self):
        ds = discretize(make_xor_table(seed=6, n_rows=400, n_noise=8), n_bins=5)
        assert ds.codes.dtype == np.uint8
        twin = DiscreteDataset(ds.codes.astype(np.int64), ds.arities, ds.target,
                               ds.n_classes, ds.feature_names)
        ctx, twin_ctx = EstimatorContext(ds), EstimatorContext(twin)
        cols = [ctx._bit_columns[2 << j][0] for j in range(ds.n_features)]
        assert all(np.shares_memory(col, ds.codes) for col in cols)
        before = [col.tobytes() for col in cols]
        crit = parse_criterion("hocmim")
        got, want = run_sfs(ds, crit, 6), run_sfs(twin, crit, 6)
        assert (got.order, got.scores, got.step_mi_calls) == \
            (want.order, want.scores, want.step_mi_calls)
        for r in range(1, 4):
            for feats in combinations(range(ds.n_features), r):
                for key in (list(feats), list(feats) + [TARGET]):
                    assert ctx.entropy(key) == twin_ctx.entropy(key), key
        for k in range(ds.n_features):
            S = [j for j in got.order[:3] if j != k]
            assert crit.score(ctx, k, S)[0] == crit.score(twin_ctx, k, S)[0], k
        assert [col.tobytes() for col in cols] == before

    def test_uint16_table_columns_in_place(self):
        # one column of 301 values makes the whole table uint16; the columns
        # of 5 and 4 values are read in uint16 too, with no uint8 copy
        rng = np.random.default_rng(25)
        n, arities = 600, (301, 5, 4)
        codes = np.asfortranarray(np.column_stack(
            [rng.permutation(np.arange(n) % a) for a in arities]).astype(np.uint16))
        target = (codes[:, 0] % 3 == 0).astype(np.int64) ^ (rng.random(n) < 0.1)
        ds = DiscreteDataset(codes, arities, target, 2, ("w", "a", "c"))
        ctx = EstimatorContext(ds)
        cols = [ctx._bit_columns[2 << j][0] for j in range(3)]
        assert all(col.dtype == np.uint16 and np.shares_memory(col, ds.codes) for col in cols)
        # an unsigned dtype of more than two bytes is copied into the narrowest one
        wide = DiscreteDataset(codes.astype(np.uint64), arities, target, 2, ds.feature_names)
        wide_ctx = EstimatorContext(wide)
        assert [wide_ctx._bit_columns[2 << j][0].dtype for j in range(3)] == \
            [np.uint16, np.uint8, np.uint8]
        for r in range(1, 4):
            for feats in combinations(range(3), r):
                for key in (list(feats), list(feats) + [TARGET]):
                    assert ctx.entropy(key) == wide_ctx.entropy(key) == \
                        ref_entropy(*columns(ds, key)), key


class TestDatasetReadOnly:
    def test_context_and_selection_leave_the_dataset_alone(self):
        rng = np.random.default_rng(18)
        ds = random_ds(rng, d=5, n=60)
        codes, target = ds.codes, ds.target.copy()
        assert np.any(np.diff(target) < 0)
        raw = codes.tobytes()
        ctx = EstimatorContext(ds)
        ctx.entropy([0, 1, 2, TARGET])
        run_sfs(ds, parse_criterion("hocmim"), 3)
        assert ds.codes is codes
        assert ds.codes.dtype == np.int64 and ds.codes.tobytes() == raw
        assert np.array_equal(ds.target, target) and ds.target.dtype == target.dtype

    def test_dataset_without_rows_rejected(self):
        empty = DiscreteDataset(np.zeros((0, 2), np.int64), (2, 2), np.zeros(0, np.int64), 2,
                                ("a", "b"))
        with pytest.raises(ValueError, match="^dataset has no rows$"):
            EstimatorContext(empty)


def mask_of(cols) -> int:
    """The context's bitmask of a column set: the target is bit 0, feature j bit j+1."""
    m = 0
    for c in cols:
        m |= 1 << (c + 1)
    return m


class TestColumnMasks:
    """Column sets as int masks, beside the iterables of indices the API also takes."""

    def test_target_and_feature_bits(self, toy_ctx):
        assert toy_ctx.entropy(estimators.TARGET_BIT) == toy_ctx.entropy([TARGET])
        assert toy_ctx.entropy(2 << 3) == toy_ctx.entropy([3])
        assert toy_ctx.entropy(2 << 0 | 2 << 4 | 1) == toy_ctx.entropy([4, TARGET, 0])
        assert toy_ctx.conditional_mutual_information(2 << 1, 1, 2 << 2) == \
            toy_ctx.conditional_mutual_information([1], [TARGET], [2])

    @pytest.mark.parametrize("mask", [0, -1, -(2 << 3)])
    def test_mask_at_or_below_zero_is_empty(self, toy_ctx, mask):
        with pytest.raises(ValueError, match="empty column list"):
            toy_ctx.entropy(mask)
        with pytest.raises(ValueError, match="empty column list"):
            toy_ctx.mutual_information(mask, 2 << 1)

    def test_negative_conditioning_mask_rejected(self, toy_ctx):
        with pytest.raises(ValueError, match="empty column list"):
            toy_ctx.conditional_mutual_information(2 << 0, 1, -1)

    def test_zero_conditioning_mask_is_plain_mi(self, toy_ctx):
        assert toy_ctx.conditional_mutual_information(2 << 0, 1, 0) == \
            toy_ctx.mutual_information([0], [TARGET])

    def test_bit_above_last_feature_rejected(self, toy_ctx):
        high = 2 << toy_ctx.n_features            # feature index D, one past the last
        assert toy_ctx.entropy(high >> 1) >= 0.0  # feature D-1 is fine
        for call in (lambda: toy_ctx.entropy(high),
                     lambda: toy_ctx.entropy(high | 2 << 0),
                     lambda: toy_ctx.mutual_information(2 << 0, high | 1),
                     lambda: toy_ctx.conditional_mutual_information(2 << 0, 1, high),
                     lambda: toy_ctx.entropy(1 << 200)):
            with pytest.raises(IndexError, match="column mask"):
                call()
        # nothing was counted under a bit that names no column
        assert not any(m >> (toy_ctx.n_features + 1) for m in toy_ctx._entropy_cache)

    @pytest.mark.parametrize("cols", [[5], [TARGET - 1], [0, 99]])
    def test_index_out_of_range_rejected(self, toy_ctx, cols):
        with pytest.raises(IndexError):
            toy_ctx.entropy(cols)

    def test_bool_and_numpy_sets_as_before(self, toy_ctx):
        # members are read with operator.index(); a bare bool or numpy int is not a set
        assert toy_ctx.entropy([True, False]) == toy_ctx.entropy([0, 1])
        assert toy_ctx.entropy([np.int64(0), np.int32(3)]) == toy_ctx.entropy([0, 3])
        assert toy_ctx.entropy(np.array([3, 0, TARGET])) == toy_ctx.entropy([0, 3, TARGET])
        assert toy_ctx.conditional_mutual_information(np.array([1]), [TARGET], np.array([])) == \
            toy_ctx.mutual_information([1], [TARGET])
        for bare in (True, False, np.int64(2), np.bool_(True)):
            with pytest.raises(TypeError):
                toy_ctx.entropy(bare)

    def test_non_integer_members_rejected(self, toy_ctx):
        # int() once truncated these silently: [2.9] and ["2"] read column 2
        for cols in ([2.9], ["2"], [np.float64(2.0)], [0, 1.0]):
            with pytest.raises(TypeError):
                toy_ctx.entropy(cols)
        with pytest.raises(TypeError):
            toy_ctx.mutual_information([0], [2.5])
        with pytest.raises(TypeError):
            _total_redundancy(toy_ctx, 0, [1.7, 2.2])

    @pytest.mark.parametrize("estimator", ["plugin", "shrinkage"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ds=tables(), data=st.data())
    def test_matches_list_reference(self, estimator, ds, data):
        ctx, ref = EstimatorContext(ds, estimator), RefContext(ds, estimator)
        sets = st.lists(st.sampled_from(range(TARGET, ds.n_features)), max_size=4)
        for _ in range(6):
            a, b, z = (data.draw(sets, label=name) for name in "abz")
            for cols in (a + [TARGET], b + z, b, z):
                if cols:
                    assert ctx.entropy(cols) == ref.entropy(cols)
                    assert ctx.entropy(mask_of(cols)) == ref.entropy(cols)
            if a and b:
                mi = ref.mutual_information(a, b)
                assert ctx.mutual_information(a, b) == mi
                assert ctx.mutual_information(mask_of(a), mask_of(b)) == mi
                cmi = ref.conditional_mutual_information(a, b, z)
                assert ctx.conditional_mutual_information(a, b, z) == cmi
                assert ctx.conditional_mutual_information(mask_of(a), mask_of(b),
                                                          mask_of(z)) == cmi

    def test_entropy_cache_bound(self):
        ds = random_ds(np.random.default_rng(21), d=7, n=60)
        crit = parse_criterion("hocmim", epsilon_star=0.0)
        unbounded = run_sfs(ds, crit, 5, collect_traces=True)
        sizes = []
        missing = estimators._EntropyMemo.__missing__

        def spy(memo, mask):
            h = missing(memo, mask)
            sizes.append(len(memo))
            return h

        with mock.patch.object(estimators, "_ENTROPY_CACHE_SIZE", 16), \
                mock.patch.object(estimators._EntropyMemo, "__missing__", spy):
            bounded = run_sfs(ds, crit, 5, collect_traces=True)
        # a miss adds a pair of entropies, so the memo stops at 15 or 16
        assert 15 <= max(sizes) <= 16
        # emptied and refilled on the way: the memo shrinks to one pair, more than once
        shrunk = [after for before, after in zip(sizes, sizes[1:]) if after < before]
        assert len(shrunk) > 1 and max(shrunk) <= 2
        assert bounded.order == unbounded.order
        assert bounded.scores == unbounded.scores
        assert bounded.step_mi_calls == unbounded.step_mi_calls
        assert bounded.traces_json() == unbounded.traces_json()

    def test_warm_memo_rejects_bad_masks(self, toy_ctx):
        # a hit is not checked, so a bad mask must never have entered the memo
        d = toy_ctx.n_features
        for j in range(d):
            toy_ctx.conditional_mutual_information(2 << j, 1, 2 << (j + 1) % d)
        memo = toy_ctx._entropy_cache
        warm = dict(memo)
        assert 1 in memo and 2 << 0 in memo       # True and np.int64(1) would hit
        high = 2 << d
        rejected = [
            (ValueError, lambda: toy_ctx.entropy(-1)),
            (ValueError, lambda: toy_ctx.mutual_information(-(2 << 0), 1)),
            (ValueError, lambda: toy_ctx.mutual_information(2 << 0, -1)),
            (ValueError, lambda: toy_ctx.conditional_mutual_information(2 << 0, 1, -(2 << 1))),
            (IndexError, lambda: toy_ctx.entropy(high)),
            (IndexError, lambda: toy_ctx.entropy(high | 1)),
            (IndexError, lambda: toy_ctx.mutual_information(2 << 0, high)),
            (IndexError, lambda: toy_ctx.conditional_mutual_information(high, 1, 2 << 1)),
            (IndexError, lambda: toy_ctx.conditional_mutual_information(2 << 0, 1, high)),
            (TypeError, lambda: toy_ctx.entropy(True)),
            (TypeError, lambda: toy_ctx.entropy(np.int64(1))),
            (TypeError, lambda: toy_ctx.mutual_information(True, 2 << 0)),
            (TypeError, lambda: toy_ctx.mutual_information(2 << 0, np.int64(1))),
            (TypeError, lambda: toy_ctx.conditional_mutual_information(2 << 0, np.bool_(True), 0)),
            (TypeError, lambda: toy_ctx.conditional_mutual_information(2 << 0, 1, np.int32(4))),
        ]
        for error, call in rejected:
            with pytest.raises(error):
                call()
            assert len(memo) == len(warm) and memo == warm


@pytest.fixture
def gc_off():
    """The cyclic garbage collector off, so that only reference counts free objects."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestContextLifetime:
    """The memo holds its context weakly: a context is freed when its last
    reference goes, not at the next garbage collection."""

    def test_context_freed_on_last_reference(self, gc_off):
        ctx = EstimatorContext(random_ds(np.random.default_rng(24), d=5, n=60))
        ctx.conditional_mutual_information(2 << 0, 1, 2 << 1 | 2 << 2)
        assert ctx.tables > 0
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None

    def test_selection_context_freed_on_return(self, gc_off):
        refs = []

        def context(*args, **kwargs):
            ctx = EstimatorContext(*args, **kwargs)
            refs.append(weakref.ref(ctx))
            return ctx

        ds = random_ds(np.random.default_rng(24), d=5, n=60)
        with mock.patch.object(selection, "EstimatorContext", context):
            result = run_sfs(ds, parse_criterion("hocmim"), 3, collect_traces=True)
        assert len(result.order) == 3
        assert len(refs) == 1 and refs[0]() is None


class TestCodeCacheBytes:
    """The code cache holds at most ``_CODE_CACHE_BYTES`` of codes, besides at
    most ``_CODE_CACHE_SIZE`` sets, and what it holds never changes a result."""

    @pytest.mark.parametrize("sets", [3, 0.5])
    @pytest.mark.parametrize("kind", ["hocmim", "cmim4", "jmi4"])
    def test_bytes_within_budget_and_selection_unchanged(self, kind, sets):
        ds = random_ds(np.random.default_rng(26), d=9, n=200)
        crit = parse_criterion(kind)
        held, row_bytes = [], set()
        keep = EstimatorContext._keep

        def spy(ctx, mask, code, size):
            keep(ctx, mask, code, size)
            row_bytes.add(code.itemsize)
            nbytes = sum(code.nbytes for code, _ in ctx._code_cache.values())
            assert nbytes == ctx._code_bytes
            held.append((nbytes, len(ctx._code_cache)))

        with mock.patch.object(estimators, "_CODE_CACHE_BYTES", 1 << 62), \
                mock.patch.object(EstimatorContext, "_keep", spy):
            uncapped = run_sfs(ds, crit, 6, collect_traces=True)
        # every set's codes take the same bytes a row, so a budget of whole sets is exact
        (itemsize,) = row_bytes
        budget = int(sets * itemsize * ds.n_rows)
        held.clear()
        with mock.patch.object(estimators, "_CODE_CACHE_BYTES", budget), \
                mock.patch.object(EstimatorContext, "_keep", spy):
            capped = run_sfs(ds, crit, 6, collect_traces=True)
        assert max(nbytes for nbytes, _ in held) <= budget
        assert max(n for _, n in held) == int(sets)
        assert capped.order == uncapped.order
        assert capped.scores == uncapped.scores
        assert capped.step_mi_calls == uncapped.step_mi_calls
        assert capped.traces_json() == uncapped.traces_json()


class TestConditionalEntropy:
    """H(A|B) as the entropy difference H(A,B) - H(B)."""

    def test_self_conditioning_zero(self, toy_ctx):
        assert toy_ctx.entropy([2, 2]) - toy_ctx.entropy([2]) == pytest.approx(0.0, abs=TOL)

    def test_toy_target_given_x3(self, toy_ctx):
        got = toy_ctx.entropy([TARGET, 2]) - toy_ctx.entropy([2])
        expected = toy_ctx.entropy([TARGET]) - toy_ctx.mutual_information([2], [TARGET])
        assert got == pytest.approx(expected, abs=TOL)
        assert got == pytest.approx(0.970951 - 0.256426, abs=1e-5)


class TestMutualInformation:
    def test_toy_golden_values(self, toy_ctx):
        assert toy_ctx.mutual_information([2], [TARGET]) == pytest.approx(0.26, abs=0.005)
        assert toy_ctx.mutual_information([4], [TARGET]) == pytest.approx(0.17, abs=0.005)

    def test_self_information_is_entropy(self, toy_ctx):
        for j in range(5):
            assert toy_ctx.mutual_information([j], [j]) == pytest.approx(
                toy_ctx.entropy([j]), abs=TOL)

    def test_symmetry_exact(self, toy_ctx):
        assert toy_ctx.mutual_information([0, 1], [TARGET]) == \
            toy_ctx.mutual_information([TARGET], [0, 1])

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            ds = random_ds(rng)
            ctx = EstimatorContext(ds)
            a, b = [0, 1], [2]
            assert -TOL <= ctx.mutual_information(a, b) \
                <= min(ctx.entropy(a), ctx.entropy(b)) + TOL

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(4)
        n = 10_000
        codes = rng.integers(0, 2, size=(n, 2)).astype(np.int64)
        ds = DiscreteDataset(codes, (2, 2), rng.integers(0, 2, n).astype(np.int64),
                             2, ("a", "b"))
        assert EstimatorContext(ds).mutual_information([0], [1]) < 0.05


class TestConditionalMutualInformation:
    def test_empty_z_equals_mi(self, toy_ctx):
        a = toy_ctx.conditional_mutual_information([1], [TARGET], [])
        assert a == pytest.approx(toy_ctx.mutual_information([1], [TARGET]), abs=TOL)

    def test_subset_of_condition_is_zero(self, toy_ctx):
        assert toy_ctx.conditional_mutual_information([2], [TARGET], [2, 3]) == 0.0

    def test_toy_x2_given_x3(self, toy_ctx):
        got = toy_ctx.conditional_mutual_information([1], [TARGET], [2])
        assert got == pytest.approx(0.190013, abs=1e-5)
        assert got == pytest.approx(0.19, abs=0.005)

    def test_two_forms_agree(self):
        # I(A;B|Z) via the MI difference vs the four-entropy expansion
        rng = np.random.default_rng(5)
        for _ in range(25):
            ds = random_ds(rng, d=5, n=40)
            ctx = EstimatorContext(ds)
            a, b, z = [0], [TARGET], [1, 2]
            eq5 = ctx.conditional_mutual_information(a, b, z)
            eq6 = (ctx.entropy(a + z) - ctx.entropy(a + b + z)
                   - ctx.entropy(z) + ctx.entropy(b + z))
            assert eq5 == pytest.approx(eq6, abs=TOL)

    def test_matches_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            ds = random_ds(rng, d=5, n=48)
            ctx = EstimatorContext(ds)
            got = ctx.conditional_mutual_information([0], [1], [2, TARGET])
            want = ref_cmi(columns(ds, [0]), columns(ds, [1]), columns(ds, [2, -1]))
            assert got == pytest.approx(want, abs=TOL)


class TestChainRule:
    def test_joint_decomposition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ds = random_ds(rng, d=4, n=24)
            ctx = EstimatorContext(ds)
            a, b = [0, 1], [2, 3]
            # H(B|A) as the mean of H(B | A=a) over the rows grouped by A
            assert ctx.entropy(a + b) == pytest.approx(
                ctx.entropy(a) + _grouped_entropy(ds, b, a), abs=TOL)


class TestShrinkage:
    # the first four check the test-side reference pmf the context is checked against
    def test_uniform_counts_stay_uniform(self):
        assert np.allclose(shrinkage_pmf([5, 5, 5, 5]), 0.25)

    def test_large_sample_approaches_empirical(self):
        pmf = shrinkage_pmf([999_999, 1])
        assert pmf[0] == pytest.approx(1 - 1e-6, abs=1e-4)

    def test_small_sample_pulls_toward_uniform(self):
        # counts (3,1) sit exactly at the lambda=1 boundary: fully uniform
        assert np.allclose(shrinkage_pmf([3, 1]), [0.5, 0.5])
        # a larger sample with the same proportions shrinks only part way
        pmf = shrinkage_pmf([6, 2])
        assert 0.5 < pmf[0] < 0.75
        assert pmf.sum() == pytest.approx(1.0, abs=TOL)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            shrinkage_pmf([0, 0])

    def test_shrinkage_context_smoke(self):
        ds = toy_dataset()
        ctx = EstimatorContext(ds, estimator="shrinkage")
        v = ctx.mutual_information([2], [TARGET])
        assert 0.0 <= v <= 1.0
        assert ctx.mutual_information([2], [TARGET]) == \
            ctx.mutual_information([TARGET], [2])

    def test_context_entropy_matches_pmf(self):
        # the context's entropy over observed cells plus the unobserved cells,
        # each carrying an equal share of the mass the pmf leaves over; the
        # skewed table has 0 < lambda < 1 and empty cells in every set
        rng = np.random.default_rng(11)
        codes = rng.choice(4, size=(60, 3), p=[0.6, 0.3, 0.1, 0.0]).astype(np.int64)
        skewed = DiscreteDataset(codes, (4, 4, 4), (codes[:, 0] > 0).astype(np.int64), 2,
                                 ("a", "b", "c"))
        for ds in (toy_dataset(), skewed):
            ctx = EstimatorContext(ds, estimator="shrinkage")
            for cols in ([0], [0, 1], [0, 1, 2], [0, 1, 2, TARGET]):
                counts, dense = joint_counts(ctx, cols)
                q = shrinkage_pmf(counts, dense)
                want = float(-(q * np.log2(q)).sum())
                n_empty = dense - len(counts)
                q0 = (1.0 - q.sum()) / n_empty if n_empty else 0.0
                if q0 > 0:
                    want -= n_empty * q0 * np.log2(q0)
                assert ctx.entropy(cols) == pytest.approx(want, abs=1e-12), cols

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ds=tables(), data=st.data())
    def test_mi_identities(self, ds, data):
        # symmetry, CMI with an empty Z, and I(A;B|Z) = I(A u Z; B) - I(Z; B)
        cols = st.lists(st.sampled_from(range(TARGET, ds.n_features)), min_size=1, max_size=3)
        a, b, z = (data.draw(cols) for _ in range(3))
        ctx = EstimatorContext(ds, estimator="shrinkage")
        mi = ctx.mutual_information(a, b)
        assert mi == pytest.approx(ctx.mutual_information(b, a), abs=TOL)
        assert ctx.conditional_mutual_information(a, b, []) == pytest.approx(mi, abs=TOL)
        want = ctx.mutual_information(a + z, b) - ctx.mutual_information(z, b)
        assert ctx.conditional_mutual_information(a, b, z) == pytest.approx(want, abs=TOL)

    @pytest.mark.parametrize("estimator", ["plugin", "shrinkage"])
    def test_dense_cells_counted_only_under_shrinkage(self, estimator):
        # the plug-in estimator reads no dense cell count, so its misses skip
        # the product over the set's arities
        ctx = EstimatorContext(toy_dataset(), estimator=estimator)
        real = EstimatorContext._dense_cells
        with mock.patch.object(EstimatorContext, "_dense_cells", autospec=True,
                               side_effect=real) as spy:
            for k in range(1, 5):
                ctx.conditional_mutual_information([k], [TARGET], [0])
        assert ctx.tables > 0
        assert spy.call_count == (ctx.tables if estimator == "shrinkage" else 0)
        assert ctx._dense_cells(2 << 0 | 2 << 3) == (2.0 * 2 * 2, 2.0 * 2)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            EstimatorContext(toy_dataset(), estimator="knn")

    @pytest.mark.parametrize("arities", [(10 ** 400, 2), (10 ** 200, 10 ** 200)],
                             ids=["arity-past-float", "product-past-float"])
    def test_dense_cells_past_the_float_range(self, arities):
        # a dense cell count past the float range is inf, which puts no
        # weight on the uniform cell mass, so the entropy is the plug-in one,
        # and it is reached with no overflow and no warning
        codes = np.array([[0, 0], [1, 1], [1, 0], [2, 1]], np.int64)
        ds = DiscreteDataset(codes, arities, np.array([0, 1, 1, 0], np.int64), 2, ("a", "b"))
        ctx = EstimatorContext(ds, estimator="shrinkage")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for key in ([0, 1], [0, 1, TARGET]):
                assert ctx.entropy(key) == pytest.approx(ref_entropy(*columns(ds, key)),
                                                         abs=1e-12), key
        assert ctx._dense_cells(2 << 0 | 2 << 1) == (np.inf, np.inf)


def _shrinkage_lambda_before(c, mc, total, m):
    # verbatim, as profile_entropy called it before the weight moved into its body
    p = c / total
    u = 1.0 / m
    var_target = float(np.sum(mc * (u - p) ** 2) + (m - mc.sum()) * u ** 2)
    if total <= 1 or var_target <= 0:
        return 1.0
    lam = (1.0 - float(np.sum(mc * p ** 2))) / ((total - 1) * var_target)
    return min(1.0, max(0.0, lam))


def _shrinkage_entropy_before(profile, terms, dense):
    # verbatim, the shrinkage branch of profile_entropy with its q > 0 mask
    n = len(terms) - 1
    c = np.flatnonzero(profile[1:]) + 1
    mc = profile[c]
    lam = _shrinkage_lambda_before(c, mc, n, dense)
    q = lam / dense + (1.0 - lam) * (c / n)
    pos = q > 0
    h = float(-(mc[pos] * q[pos] * np.log2(q[pos])).sum())
    n_empty = dense - mc.sum()
    if lam > 0 and n_empty > 0:
        q0 = lam / dense
        h += float(-n_empty * q0 * np.log2(q0))
    return h if h > 0.0 else 0.0


@st.composite
def shrinkage_cases(draw):
    """Occupied-cell counts and a dense cell count of at least as many cells, or inf."""
    counts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=24))
    if draw(st.booleans()):
        return counts, float("inf")
    spare = draw(st.one_of(st.integers(0, 3), st.integers(0, 1000 * len(counts))))
    return counts, float(len(counts) + spare)


class TestShrinkageBitExact:
    """The shrinkage entropy is the same float as the formula it was folded from."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(case=shrinkage_cases())
    @example(case=([1], 1.0))                    # N = 1, one cell
    @example(case=([1], 7.0))                    # N = 1, lambda = 1 spread over 7 cells
    @example(case=([1], float("inf")))           # N = 1, no cell mass is left
    @example(case=([5, 5, 5, 5], 4.0))           # full and uniform: variance 0, lambda = 1
    @example(case=([3, 1], 2.0))                 # lambda at the clip, exactly 1
    @example(case=([2, 1], 2.0))                 # lambda 4 before the clip to 1
    @example(case=([3, 1], 5.0))                 # 0 < lambda < 1
    @example(case=([12], 1.0))                   # one cell holds every row, the only cell
    @example(case=([12], 9.0))                   # one cell holds every row: lambda = 0
    @example(case=([4, 2, 2, 1], float("inf")))  # m = inf: lambda = 0, q = p
    def test_equals_folded_formula(self, case):
        counts, dense = case
        profile = np.bincount(counts)
        terms = cell_terms(sum(counts))
        # m = inf reaches lambda through inf * 0 = nan, on both sides
        quiet = dict(invalid="ignore", divide="ignore") if dense == float("inf") else {}
        with np.errstate(**quiet):
            got = profile_entropy(profile, terms, "shrinkage", dense)
            want = _shrinkage_entropy_before(profile, terms, dense)
        assert got == want
        assert not np.isnan(got)


class TestCallCounter:
    def test_mi_counts_one(self, toy_ctx):
        toy_ctx.reset_and_read_counter()
        toy_ctx.mutual_information([0], [TARGET])
        assert toy_ctx.reset_and_read_counter() == 1

    def test_cmi_counts_two(self, toy_ctx):
        toy_ctx.reset_and_read_counter()
        toy_ctx.conditional_mutual_information([0], [TARGET], [1])
        assert toy_ctx.reset_and_read_counter() == 2
        toy_ctx.conditional_mutual_information([0], [TARGET], [])
        assert toy_ctx.reset_and_read_counter() == 2

    def test_reset_zeroes(self, toy_ctx):
        toy_ctx.mutual_information([0], [1])
        toy_ctx.reset_and_read_counter()
        assert toy_ctx.reset_and_read_counter() == 0

    def test_memoization_does_not_hide_calls(self, toy_ctx):
        toy_ctx.reset_and_read_counter()
        for _ in range(5):
            toy_ctx.mutual_information([0], [TARGET])
        assert toy_ctx.reset_and_read_counter() == 5

    def test_toy_selection_count_matches_closed_form(self):
        # full fixed-order run over the demonstration table; the k << D
        # asymptotic form in the complexity discussion would give 125 here,
        # the exact per-step accounting gives 95
        ds = toy_dataset()
        crit = parse_criterion("hocmim", n=1)
        res = run_sfs(ds, crit, 5)
        assert res.total_mi_calls == predicted_mi_calls(crit, 5, 5) == 95
