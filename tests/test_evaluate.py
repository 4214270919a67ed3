import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infosel import evaluate
from infosel.criteria import parse_criterion
from infosel.data import (DataError, RawTable, SplitSpec, apply_binning, fit_binning,
                          load_csv, make_splits, make_xor_table, toy_dataset, toy_table)
from infosel.evaluate import average_ranks, benchmark
from infosel.selection import run_sfs

from util import fixed_order_benchmark


def knn(train, labels, test, k, subset=None, n_classes=None):
    """The kernel's vote on the columns of ``subset`` (every column when
    None): the last row of its predictions after each column."""
    train, labels = np.asarray(train), np.asarray(labels)
    order = range(train.shape[1]) if subset is None else subset
    n_classes = int(labels.max()) + 1 if n_classes is None else n_classes
    return evaluate._knn_predict(train, labels, np.asarray(test), list(order), k, n_classes)[-1]


class TestKnn:
    def test_nearest_self(self):
        train = np.array([[0, 0], [5, 5], [9, 1]])
        labels = np.array([0, 1, 2])
        preds = knn(train, labels, np.array([[5, 5]]), k=1)
        assert preds.tolist() == [1]

    def test_constant_labels(self):
        train = np.array([[0], [1], [2]])
        labels = np.array([1, 1, 1])
        preds = knn(train, labels, np.array([[0], [9]]), k=3)
        assert preds.tolist() == [1, 1]

    def test_distance_tie_prefers_lower_row(self):
        # both training rows are equidistant; k=1 must take row 0
        train = np.array([[0], [2]])
        labels = np.array([1, 0])
        preds = knn(train, labels, np.array([[1]]), k=1)
        assert preds.tolist() == [1]

    def test_vote_tie_prefers_lowest_label(self):
        train = np.array([[0], [2]])
        labels = np.array([1, 0])
        preds = knn(train, labels, np.array([[1]]), k=2)
        assert preds.tolist() == [0]

    def test_toy_leave_one_out_relevant_beats_noise(self):
        # brute-force frozen values: 3-NN LOO error 0.7 on the interacting
        # four, 0.8 on the uninformative fifth feature alone
        ds = toy_dataset()
        errs = {}
        for feats in ([0, 1, 2, 3], [4]):
            wrong = 0
            for i in range(ds.n_rows):
                tr = [r for r in range(ds.n_rows) if r != i]
                pred = knn(ds.codes[tr], ds.target[tr], ds.codes[[i]], k=3, subset=feats)
                wrong += int(pred[0]) != ds.target[i]
            errs[tuple(feats)] = wrong / ds.n_rows
        assert errs[(0, 1, 2, 3)] == pytest.approx(0.7)
        assert errs[(4,)] == pytest.approx(0.8)
        assert errs[(0, 1, 2, 3)] < errs[(4,)]


def brute_knn(train, labels, test, k, n_classes):
    """Float squared distances, (distance, index) order by lexsort, one vote per row."""
    k = min(k, len(labels))
    preds = []
    for row in np.asarray(test, dtype=float):
        dist = ((np.asarray(train, dtype=float) - row) ** 2).sum(axis=1)
        nearest = np.lexsort((np.arange(len(labels)), dist))[:k]
        preds.append(np.bincount(labels[nearest], minlength=n_classes).argmax())
    return np.array(preds, dtype=np.int64)


#: column spans: 181**2 is the largest square below the int16 maximum and
#: 182**2 the smallest above it; 2**20 sends any column set to int64 distances
SPANS = (0, 1, 2, 3, 181, 182, 2 ** 20)


def reach_of(train, test):
    """The sum of each column's squared maximum code over both sides."""
    return sum(int(top) ** 2 for top in np.vstack([train, test]).max(axis=0))


@st.composite
def knn_cases(draw):
    # above 16 rows an unstable sort would reorder distance ties
    n_train = draw(st.integers(1, 40))
    n_test = draw(st.integers(1, 7))          # the block is patched to 3 rows
    n_classes = draw(st.integers(2, 5))
    train_cols, test_cols = [], []
    for _ in range(draw(st.integers(1, 4))):
        span = draw(st.sampled_from(SPANS))
        # codes are at least 0; the 181 and 182 spans start there, so their
        # squared maxima fall on either side of the int16 maximum
        low = 0 if span in (181, 182) else draw(st.integers(0, 1000))
        values = st.integers(low, low + span)
        train_cols.append(draw(st.lists(values, min_size=n_train, max_size=n_train)))
        test_cols.append(draw(st.lists(values, min_size=n_test, max_size=n_test)))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n_train, max_size=n_train))
    k = draw(st.integers(1, n_train + 3))
    return (np.array(train_cols, np.int64).T, np.array(labels, np.int64),
            np.array(test_cols, np.int64).T, k, n_classes)


def _case(train_cols, test_cols, labels, k, n_classes=2):
    return (np.array(train_cols, np.int64).T, np.array(labels, np.int64),
            np.array(test_cols, np.int64).T, k, n_classes)


#: the sum of the squared maxima (181, 2, 1, 1) is the int16 maximum, 32,767,
#: so the distances are int64, and the three rows after the first lie at that
#: distance from the test row: a pass that marked its pick with int16's
#: maximum would pick the first row again and vote 1, where the nearest rows
#: vote 0
AT_INT16_MAX = [[0, 181, 181, 181], [0, 2, 2, 2], [0, 1, 1, 1], [0, 1, 1, 1]]


def kernel_examples(test):
    """The explicit cases of the kernel properties."""
    for case in (
            # reach at the int16 limit (32,767) and one above it
            _case([[0, 181], [0, 2], [0, 1], [0, 1]], [[90], [1], [0], [1]], [0, 1], 1),
            _case([[0, 181], [0, 2], [0, 1], [0, 1], [0, 1]], [[90], [1], [0], [1], [1]],
                  [0, 1], 1),
            _case(AT_INT16_MAX, [[0]] * 4, [1, 0, 0, 1], 2),
            _case(AT_INT16_MAX, [[0]] * 4, [1, 0, 0, 1], 3)):
        test = example(case=case)(test)
    return test


def selection_path(path):
    """Patch the kernel onto one way of picking the k nearest rows at any k
    and n_train: "argmin" or "partition"."""
    if path == "argmin":
        return mock.patch.multiple(evaluate, _MAX_PASSES=10 ** 9, _ROWS_PER_PASS=0)
    return mock.patch.multiple(evaluate, _MAX_PASSES=0)


def check_kernel(case):
    """Every prefix of ``_knn_predict`` against brute force, and the ``reach``
    it plans with and the distance dtype that gives."""
    train, labels, test, k, n_classes = case
    d = train.shape[1]
    with mock.patch.object(evaluate, "_BLOCK", 3), \
            mock.patch.object(evaluate, "_plan", wraps=evaluate._plan) as plan:
        prefixes = evaluate._knn_predict(train, labels, test, list(range(d)), k, n_classes)
    reach = reach_of(train, test)
    assert plan.call_args.args == (reach, len(train), min(k, len(train)))
    assert evaluate._plan(*plan.call_args.args)[0] is (np.int16 if reach < 32767 else np.int64)
    assert prefixes.shape == (d, len(test))
    for size in range(1, d + 1):
        want = brute_knn(train[:, :size], labels, test[:, :size], k, n_classes)
        assert np.array_equal(prefixes[size - 1], want), size


class TestKnnKernel:
    """The blocked kernel against a brute-force KNN, prefix by prefix."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=knn_cases())
    @kernel_examples
    def test_matches_brute_force(self, case):
        check_kernel(case)

    @pytest.mark.parametrize("path", ["argmin", "partition"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=knn_cases())
    @kernel_examples
    def test_each_path_matches_brute_force(self, path, case):
        # n_train <= 40 seldom takes the argmin path on its own
        train, _, test, k, _ = case
        with selection_path(path):
            _, keys = evaluate._plan(reach_of(train, test), len(train), min(k, len(train)))
            assert (keys is None) == (path == "argmin")
            check_kernel(case)

    @pytest.mark.parametrize("k, n_train, reach, dtype, argmin", [
        (1, 1, 0, np.int16, True),
        (1, 10 ** 6, 96, np.int16, True),
        (2, 599, 96, np.int16, False),
        (2, 600, 96, np.int16, True),
        (3, 1000, 96, np.int16, True),           # the bench's knn-holdout splits
        (4, 1199, 96, np.int16, False),
        (4, 1200, 2 ** 40, np.int64, True),
        (5, 10 ** 6, 96, np.int16, False),
        (1, 1000, 32766, np.int16, True),
        (1, 1000, 32767, np.int64, True),        # int16's maximum would equal a distance
        (3, 1000, 32767, np.int64, True),
    ])
    def test_selection_path_rule(self, k, n_train, reach, dtype, argmin):
        distances, keys = evaluate._plan(reach, n_train, k)
        assert distances is dtype and (keys is None) is argmin

    @pytest.mark.parametrize("k", [1, 3])
    def test_small_k_on_many_rows_takes_argmin(self, k):
        rng = np.random.default_rng(k)
        train, test = rng.integers(0, 5, (1000, 3)), rng.integers(0, 5, (300, 3))
        labels = rng.integers(0, 2, 1000)
        with mock.patch.object(evaluate, "_nearest", wraps=evaluate._nearest) as spy:
            got = knn(train, labels, test, k=k)
        # two blocks of test rows, one vote after each of the three columns
        assert spy.call_count == 2 * 3 and all(call.args[2] is None
                                               for call in spy.call_args_list)
        assert np.array_equal(got, brute_knn(train, labels, test, k, 2))

    @pytest.mark.parametrize("seed", range(12))
    def test_ties_across_the_k_boundary(self, seed):
        # hundreds of training rows over codes {0, 1, 2} give at most 13
        # distance values, so most k boundaries fall inside a run of ties and
        # only the (distance, row) order picks the voters
        rng = np.random.default_rng(seed)
        n_train, d = int(rng.integers(200, 800)), int(rng.integers(1, 4))
        n_classes = int(rng.integers(2, 4))
        train = rng.integers(0, 3, (n_train, d))
        test = rng.integers(0, 3, (9, d))
        labels = rng.integers(0, n_classes, n_train)
        for k in (1, 2, 5, int(rng.integers(6, n_train))):
            with mock.patch.object(evaluate, "_BLOCK", 4):
                prefixes = evaluate._knn_predict(train, labels, test, list(range(d)), k,
                                                 n_classes)
            for size in range(1, d + 1):
                want = brute_knn(train[:, :size], labels, test[:, :size], k, n_classes)
                assert np.array_equal(prefixes[size - 1], want), (k, size)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_equidistant_rows_vote_in_row_order(self, k):
        # 1,000 rows at distance 0: the voters are rows 0..k-1, the only ones labelled 1
        train, test = np.zeros((1000, 1), np.int64), np.zeros((3, 1), np.int64)
        labels = np.zeros(1000, np.int64)
        labels[:k] = 1
        want = brute_knn(train, labels, test, k, 2)
        assert want.tolist() == [1, 1, 1]
        assert knn(train, labels, test, k=k).tolist() == want.tolist()

    @pytest.mark.parametrize("reach, n_train, dtype", [
        (1, 2 ** 30, np.int32),            # largest key 2**31 - 1
        (0, 2 ** 31, np.int32),            # largest key 2**31 - 1
        (2 ** 31, 1, np.int64),            # largest key 2**31
        (1, 2 ** 30 + 1, np.int64),        # largest key 2**31 + 1
        (2 ** 62 - 1, 2, np.int64),        # largest key 2**63 - 1
    ])
    def test_key_dtype_boundary(self, reach, n_train, dtype):
        # k = 5 takes the partition, which keys the distances
        assert evaluate._plan(reach, n_train, 5)[1] is dtype

    @pytest.mark.parametrize("reach, n_train", [(2 ** 62, 2), (2 ** 63 - 1, 2)])
    def test_key_beyond_int64_rejected(self, reach, n_train):
        for k in (1, 5):                   # argmin passes, then the partition
            with pytest.raises(ValueError, match="too wide"):
                evaluate._plan(reach, n_train, k)

    def test_narrow_dtype_codes(self):
        # uint8 codes whose differences leave the uint8 range
        train = np.array([[0], [150]], np.uint8)
        preds = knn(train, np.array([0, 1]), np.array([[149]], np.uint8), k=1)
        assert preds.tolist() == [1]

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_key_beyond_int64_rejected_on_argmin_path(self, k):
        # the distances fit in int64, and at this k on 1,200 rows the rule
        # picks argmin passes, which need no keys; yet the input is rejected
        # as on the partition path
        train = np.zeros((1200, 1), np.int64)
        train[0] = 2 ** 31
        assert evaluate._plan(0, 1200, k)[1] is None
        with pytest.raises(ValueError, match="too wide for exact int64 distance keys"):
            knn(train, np.arange(1200) % 2, np.array([[1]]), k=k)

    def test_span_beyond_int64_rejected(self):
        train = np.array([[0], [2 ** 62]])
        with pytest.raises(ValueError, match="too wide"):
            knn(train, np.array([0, 1]), np.array([[1]]), k=1)

    def test_memory_bounded_by_block(self):
        # ranking all 2,048 x 512 pairs at once needs 8 MiB for the argsort
        # indices alone; a block of 256 rows needs 1 MiB
        rng = np.random.default_rng(0)
        train, test = rng.integers(0, 5, (512, 3)), rng.integers(0, 5, (2048, 3))
        labels = rng.integers(0, 3, 512)
        tracemalloc.start()
        try:
            knn(train, labels, test, k=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 512 * 8 / 2


@st.composite
def repeated_row_cases(draw):
    """Few distinct test rows over codes {0, 1, 2}, repeated in any order,
    with the first one repeated last, and groups that may repeat a column."""
    n_train = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4))
    codes = st.integers(0, 2)
    train = draw(st.lists(st.lists(codes, min_size=d, max_size=d),
                          min_size=n_train, max_size=n_train))
    pool = draw(st.lists(st.lists(codes, min_size=d, max_size=d), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    picks[-1] = picks[0]                  # equal rows at both ends of the input
    groups = draw(st.lists(st.lists(st.integers(0, d - 1), min_size=1, max_size=3),
                           min_size=1, max_size=4))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n_train, max_size=n_train))
    k = draw(st.integers(1, n_train + 3))
    return (np.array(train, np.int64), np.array(labels, np.int64),
            np.array([pool[i] for i in picks], np.int64), groups, k, n_classes)


def check_runs(case, block):
    """``_knn_predict`` after each column of the groups, one after another,
    against brute force, ``block`` rows a block."""
    train, labels, test, groups, k, n_classes = case
    order = [j for group in groups for j in group]
    with mock.patch.object(evaluate, "_BLOCK", block):
        got = evaluate._knn_predict(train, labels, test, order, k, n_classes)
    for size in range(1, len(order) + 1):
        columns = order[:size]
        want = brute_knn(train[:, columns], labels, test[:, columns], k, n_classes)
        assert np.array_equal(got[size - 1], want), columns


class TestKnnRuns:
    """Test rows that repeat, ranked once per run of equal sorted rows."""

    @pytest.mark.parametrize("block", [3, 4])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=repeated_row_cases())
    def test_matches_brute_force(self, block, case):
        check_runs(case, block)

    @pytest.mark.parametrize("path", ["argmin", "partition"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=repeated_row_cases())
    def test_each_path_matches_brute_force(self, path, case):
        with selection_path(path):
            check_runs(case, 3)


class TestAverageRanks:
    def test_sorted_values(self):
        assert average_ranks([0.1, 0.2, 0.3]).tolist() == [1, 2, 3]

    def test_pair_tie(self):
        assert average_ranks([0.1, 0.1, 0.3]).tolist() == [1.5, 1.5, 3]

    def test_full_tie(self):
        assert average_ranks([0.2, 0.2, 0.2, 0.2]).tolist() == [2.5] * 4

    def test_rank_sums_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            vals = rng.choice([0.1, 0.2, 0.3, 0.4], size=m)
            ranks = average_ranks(vals)
            assert ranks.sum() == pytest.approx(m * (m + 1) / 2)

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            average_ranks([0.5])

    @pytest.mark.parametrize("errors, entry", [
        ([np.nan, 0.1, np.nan], 0), ([0.1, 0.2, np.nan], 2),
    ])
    def test_nan_rejected(self, errors, entry):
        # argsort puts NaN last, so the NaN entries would be ranked by position
        with pytest.raises(ValueError, match=rf"cannot rank NaN \(entry {entry}\)"):
            average_ranks(errors)


class TestErrorCurve:
    """The per-prefix error curves of ``benchmark``, for orders fixed in advance."""

    def test_stub_selector_is_split_deterministic(self):
        table = toy_table()
        splits = make_splits(table.n_rows, SplitSpec(0.5, seed=3, n_repeats=4))
        a = fixed_order_benchmark(table, [0, 1, 2], splits)[0].errors
        b = fixed_order_benchmark(table, [0, 1, 2], splits)[0].errors
        assert np.array_equal(a, b)
        assert a.shape == (2, 4, 3)
        assert np.all((0 <= a) & (a <= 1))

    def test_identical_orders_give_identical_curves(self):
        table = toy_table()
        splits = make_splits(table.n_rows, SplitSpec(0.5, seed=5, n_repeats=3))
        errors = fixed_order_benchmark(table, [2, 1, 0], splits)[0].errors
        assert np.array_equal(errors[0], errors[1])

    def test_training_rows_coded_as_the_split_binning(self, tmp_path):
        # classes "y" and "z" and label "q" are missing from some training
        # halves: the training dataset still counts the unseen classes as one,
        # as binning every row does
        p = tmp_path / "t.csv"
        rows = [f"{i * 0.5},{'pq'[i % 2] if i < 8 else 'q'},{'xy'[i % 3 == 0]}"
                for i in range(10)]
        rows[9] = rows[9][:-1] + "z"
        p.write_text("A,B,Y\n" + "\n".join(rows) + "\n")
        table = load_csv(p, "Y")
        # the second split leaves out rows 0, 3, 6 and 9, which hold its unseen classes
        splits = [(np.arange(0, 8, 2), np.arange(1, 10, 2)), (np.array([5, 1, 2]), np.array([4]))]
        seen = fixed_order_benchmark(table, [1, 0], splits, n_bins=3)[1]
        for (train, _), got in zip(splits, seen):
            want = apply_binning(table, fit_binning(table, 3, train)).restrict(train)
            assert want.n_classes == len(set(want.target.tolist())) + 1
            for a, b in ((got.codes, want.codes), (got.target, want.target)):
                assert a.dtype == b.dtype and a.strides == b.strides and np.array_equal(a, b)
            assert (got.arities, got.n_classes, got.feature_names) == \
                (want.arities, want.n_classes, want.feature_names)

    @pytest.mark.parametrize("table, n_bins, order, repeated", [
        ("xor", 2, [3, 0, 7, 1, 9, 2], True),
        ("xor", 40, [3, 0, 7, 1, 9, 2], True),
        ("gauss", 40, [2, 0, 1], False),
    ], ids=["xor-2-bins", "xor-40-bins", "gauss-40-bins"])
    def test_matches_per_row_knn(self, table, n_bins, order, repeated):
        # the kernel ranks each run of equal sorted test rows once; its curves
        # must equal a per-row KNN.  600 test rows go through it in three
        # blocks; the binary xor columns repeat rows at any bin count, the
        # Gaussian ones at 40 bins hardly ever
        xor = make_xor_table(seed=3, n_rows=1200)
        if table == "gauss":
            rng = np.random.default_rng(3)
            raw = RawTable(("A", "B", "C", "Y"), ("numeric",) * 4,
                           (*rng.normal(size=(3, 1200)), xor.column("Y")), "Y", 1200)
        else:
            raw = xor
        splits = make_splits(raw.n_rows, SplitSpec(0.5, seed=3, n_repeats=2))
        errors = fixed_order_benchmark(raw, order, splits, n_bins=n_bins, knn_k=5)[0].errors
        for r, (train, test) in enumerate(splits):
            ds = apply_binning(raw, fit_binning(raw, n_bins, train))
            for size in range(1, len(order) + 1):
                cols = order[:size]
                pred = brute_knn(ds.codes[train][:, cols], ds.target[train],
                                 ds.codes[test][:, cols], 5, ds.n_classes)
                want = np.count_nonzero(pred != ds.target[test]) / len(test)
                assert errors[0, r, size - 1] == errors[1, r, size - 1] == want, (r, size)
            distinct = len(np.unique(ds.codes[test][:, order], axis=0))
            assert (distinct < len(test) / 4) == repeated, distinct

    @pytest.mark.parametrize("knn_k", [0, -3])
    def test_knn_k_below_one_rejected(self, knn_k, monkeypatch):
        # k = 0 once left every prediction at label 0, and k = -3 let all but
        # three training rows vote; the check comes before any split is binned
        monkeypatch.setattr(evaluate, "_fit", mock.Mock(side_effect=AssertionError("binned")))
        with pytest.raises(ValueError, match=f"^knn_k must be >= 1, got {knn_k}$"):
            benchmark(toy_table(), [parse_criterion("mim"), parse_criterion("cmim")],
                      SplitSpec(0.5, seed=1, n_repeats=2), k_max=2, knn_k=knn_k)

    @pytest.mark.parametrize("knn_k", [2.5, True, np.True_], ids=["float", "bool", "numpy-bool"])
    def test_knn_k_not_an_int_rejected_before_binning(self, knn_k, monkeypatch):
        # 2.5 once failed in numpy's partition after the first split was
        # binned, and True ran as k = 1
        monkeypatch.setattr(evaluate, "_fit", mock.Mock(side_effect=AssertionError("binned")))
        with pytest.raises(ValueError, match=f"^knn_k must be an int, got {knn_k!r}$"):
            benchmark(toy_table(), [parse_criterion("mim"), parse_criterion("cmim")],
                      SplitSpec(0.5, seed=1, n_repeats=2), k_max=2, knn_k=knn_k)

    def test_numpy_integer_knn_k_accepted(self):
        table = toy_table()
        splits = make_splits(table.n_rows, SplitSpec(0.5, seed=1, n_repeats=2))
        errors = fixed_order_benchmark(table, [0, 1], splits, knn_k=np.int64(3))[0].errors
        assert np.array_equal(errors, fixed_order_benchmark(table, [0, 1], splits)[0].errors)

    @pytest.mark.parametrize("k_max", [0, -2])
    def test_k_max_below_one_rejected(self, k_max, monkeypatch):
        # 0 once raised a bare TypeError from np.lexsort
        monkeypatch.setattr(evaluate, "_fit", mock.Mock(side_effect=AssertionError("binned")))
        with pytest.raises(ValueError, match=f"^k_max must be >= 1, got {k_max}$"):
            benchmark(toy_table(), [parse_criterion("mim"), parse_criterion("cmim")],
                      SplitSpec(0.5, seed=1, n_repeats=2), k_max=k_max)


def rare_class_table(tmp_path):
    """60 rows whose class 'rare' (3 rows) misses some training halves of
    ``make_splits(60, SplitSpec(0.5, 5, 4))``."""
    rng = np.random.default_rng(23)
    rows = []
    for i in range(60):
        b = "pqr"[rng.integers(3)] if rng.random() < 0.3 else "pq"[i % 2]
        y = "rare" if i in (7, 31, 52) else ("lo", "hi")[i % 2]
        rows.append(f"{rng.normal(i % 2):.3f},{b},{'uvwx'[rng.integers(4)]},{rng.random():.3f},{y}")
    path = tmp_path / "rare.csv"
    path.write_text("A,B,C,D,Y\n" + "\n".join(rows) + "\n")
    return load_csv(path, "Y")


class TestBenchmark:
    @pytest.mark.parametrize("estimator", ["plugin", "shrinkage"])
    def test_errors_are_error_curves_of_run_sfs_orders(self, tmp_path, estimator):
        # each criterion's errors are a per-row KNN's over run_sfs's order on
        # each training half; run_sfs runs criterion-major, at call c * R + r,
        # and every criterion gets split r's one training dataset
        table = rare_class_table(tmp_path)
        spec = SplitSpec(0.5, seed=4, n_repeats=5)
        splits = make_splits(table.n_rows, spec)
        rare = {i for i, y in enumerate(table.column("Y")) if y == "rare"}
        assert any(not rare & set(train.tolist()) for train, _ in splits)
        criteria = [parse_criterion(name) for name in ("mim", "hocmim", "cmim", "jmi")]
        seen = []

        def spy(ds, criterion, *args, **kwargs):
            result = run_sfs(ds, criterion, *args, **kwargs)
            seen.append((ds, criterion, result.order))
            return result

        with mock.patch.object(evaluate, "run_sfs", spy):
            report = benchmark(table, criteria, spec, k_max=3, estimator=estimator)
        assert report.criteria == ["mim", "hocmim", "cmim", "jmi"]
        R = len(splits)
        assert len(seen) == len(criteria) * R
        for r, (train, test) in enumerate(splits):
            whole = apply_binning(table, fit_binning(table, 5, train))
            codes, y = whole.codes, whole.target
            for c, crit in enumerate(criteria):
                ds, called, picked = seen[c * R + r]
                assert called is crit and ds is seen[r][0]
                assert ds.n_classes == 3
                assert picked == run_sfs(whole.restrict(train), crit, 3,
                                         estimator=estimator).order
                for size in range(1, 4):
                    cols = picked[:size]
                    pred = brute_knn(codes[train][:, cols], y[train], codes[test][:, cols], 3,
                                     whole.n_classes)
                    want = np.count_nonzero(pred != y[test]) / len(test)
                    assert report.errors[c, r, size - 1] == want, (c, r, size)

    @pytest.mark.parametrize("estimator", ["plugin", "shrinkage"])
    def test_each_split_binned_once(self, tmp_path, estimator, monkeypatch):
        # the criteria share each split's binning; with no bytes to hold it,
        # every criterion bins every split again, and the report is the same
        table = rare_class_table(tmp_path)
        spec = SplitSpec(0.5, seed=4, n_repeats=5)
        criteria = [parse_criterion(name) for name in ("mim", "hocmim", "cmim")]
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[2])
            return apply_binning(*args, **kwargs)

        monkeypatch.setattr(evaluate, "apply_binning", spy)
        held = benchmark(table, criteria, spec, k_max=3, estimator=estimator).to_json()
        splits = make_splits(table.n_rows, spec)
        assert len(calls) == len(splits)
        assert all(np.array_equal(got, test) for got, (_, test) in zip(calls, splits))
        calls.clear()
        monkeypatch.setattr(evaluate, "_HELD_SPLIT_BYTES", 0)
        rebinned = benchmark(table, criteria, spec, k_max=3, estimator=estimator).to_json()
        assert len(calls) == len(splits) * len(criteria)
        assert rebinned == held

    def test_held_splits_bounded_in_bytes(self, monkeypatch):
        # a bound that holds exactly two splits' pairs keeps those two and
        # bins the rest again for each later criterion
        table = make_xor_table(seed=3, n_rows=200)
        spec = SplitSpec(0.5, seed=2, n_repeats=4)
        criteria = [parse_criterion("mim"), parse_criterion("cmim")]
        one = 200 * len(table.feature_names) + 200 * 8     # uint8 codes, int64 targets
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return apply_binning(*args, **kwargs)

        monkeypatch.setattr(evaluate, "apply_binning", spy)
        monkeypatch.setattr(evaluate, "_HELD_SPLIT_BYTES", 2 * one)
        report = benchmark(table, criteria, spec, k_max=3)
        assert len(calls) == 4 + 2
        monkeypatch.setattr(evaluate, "_HELD_SPLIT_BYTES", 2 * one - 1)
        calls.clear()
        assert benchmark(table, criteria, spec, k_max=3).to_json() == report.to_json()
        assert len(calls) == 4 + 3

    def test_report_shapes_and_rank_rules(self):
        rep = benchmark(toy_table(), [parse_criterion("mim"),
                                      parse_criterion("hocmim", n=2)],
                        SplitSpec(0.5, seed=7, n_repeats=3), k_max=4)
        assert rep.errors.shape == (2, 3, 4)
        assert rep.mean_errors.shape == (2, 4)
        for k in range(4):
            assert rep.ranks_per_k[:, k].sum() == pytest.approx(3.0)
        assert len(rep.average_rank) == 2

    def test_deterministic_json(self):
        args = ([parse_criterion("mim"), parse_criterion("cmim")],
                SplitSpec(0.5, seed=11, n_repeats=2))
        a = benchmark(toy_table(), *args, k_max=3).to_json()
        b = benchmark(toy_table(), *args, k_max=3).to_json()
        assert a == b

    def test_needs_two_criteria(self):
        with pytest.raises(ValueError):
            benchmark(toy_table(), [parse_criterion("mim")],
                      SplitSpec(0.5, seed=0, n_repeats=2), k_max=2)

    @pytest.mark.parametrize("knn_k", [0, -3])
    def test_knn_k_below_one_rejected(self, knn_k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            benchmark(toy_table(), [parse_criterion("mim"), parse_criterion("cmim")],
                      SplitSpec(0.5, seed=0, n_repeats=2), k_max=2, knn_k=knn_k)

    def test_numpy_integer_knn_k_reported_as_int(self):
        # the meta once kept the numpy integer, which json cannot write
        criteria = [parse_criterion("mim"), parse_criterion("cmim")]
        spec = SplitSpec(0.5, seed=0, n_repeats=2)
        assert benchmark(toy_table(), criteria, spec, k_max=2, knn_k=np.int64(3)).to_json() == \
            benchmark(toy_table(), criteria, spec, k_max=2, knn_k=3).to_json()

    @pytest.mark.parametrize("knn_k", [2.5, True, "3"], ids=["float", "bool", "string"])
    def test_knn_k_not_an_int_rejected_before_binning(self, knn_k, monkeypatch):
        monkeypatch.setattr(evaluate, "_fit", mock.Mock(side_effect=AssertionError("binned")))
        with pytest.raises(ValueError, match=f"^knn_k must be an int, got {knn_k!r}$"):
            benchmark(toy_table(), [parse_criterion("mim"), parse_criterion("cmim")],
                      SplitSpec(0.5, seed=0, n_repeats=2), k_max=2, knn_k=knn_k)

    @pytest.mark.parametrize("k_max", [2.5, True, "3"], ids=["float", "bool", "string"])
    def test_k_max_not_an_int_rejected_before_binning(self, k_max, monkeypatch):
        # 2.5 once raised a bare TypeError from inside selection, and True
        # ran as k_max = 1
        monkeypatch.setattr(evaluate, "_fit", mock.Mock(side_effect=AssertionError("binned")))
        with pytest.raises(ValueError, match=f"^k_max must be an int, got {k_max!r}$"):
            benchmark(toy_table(), [parse_criterion("mim"), parse_criterion("cmim")],
                      SplitSpec(0.5, seed=0, n_repeats=2), k_max=k_max)

    def test_k_max_above_feature_count_rejected_before_binning(self, monkeypatch):
        # 6 on the five toy features once binned a split, then failed inside
        # selection as "K must be in [1, 5], got 6"
        criteria = [parse_criterion("mim"), parse_criterion("cmim")]
        spec = SplitSpec(0.5, seed=0, n_repeats=2)
        monkeypatch.setattr(evaluate, "_fit", mock.Mock(side_effect=AssertionError("binned")))
        with pytest.raises(ValueError, match=r"^k_max must be <= 5, the feature count, got 6$"):
            benchmark(toy_table(), criteria, spec, k_max=6)
        monkeypatch.undo()
        assert benchmark(toy_table(), criteria, spec, k_max=5).errors.shape == (2, 2, 5)

    def test_numpy_integers_reported_as_ints(self):
        # a numpy k_max, seed, repeat count, bin count or float32 train
        # fraction once stayed in the meta, which json cannot write
        criteria = [parse_criterion("mim"), parse_criterion("cmim")]
        got = benchmark(toy_table(), criteria,
                        SplitSpec(np.float32(0.5), np.int64(3), np.int32(2)),
                        k_max=np.int64(2), n_bins=np.int64(4))
        want = benchmark(toy_table(), criteria, SplitSpec(0.5, 3, 2), k_max=2, n_bins=4)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("spec", [SplitSpec(0.5, 0, 0), SplitSpec(0.5, 0, -1),
                                      SplitSpec(float("nan"), 0, 2)],
                             ids=["zero-repeats", "negative-repeats", "nan-fraction"])
    def test_degenerate_split_spec_rejected(self, spec):
        # no repeats once returned an all-NaN error array with average ranks [1, 2]
        with pytest.raises(DataError):
            benchmark(toy_table(), [parse_criterion("mim"), parse_criterion("cmim")],
                      spec, k_max=2)

    def test_serializers(self):
        rep = benchmark(toy_table(), [parse_criterion("mim"),
                                      parse_criterion("jmi")],
                        SplitSpec(0.5, seed=2, n_repeats=2), k_max=2)
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "criterion,k1,k2,avg_rank"
        text = rep.to_text()
        assert "avg rank" in text
        d = rep.to_dict()
        assert d["criteria"] == ["mim", "jmi"]
