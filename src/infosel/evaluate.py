"""KNN evaluation of selected subsets over repeated random splits.

The protocol, which ``benchmark`` runs: per split, fit discretization on the
training rows only, select on the training half with ``run_sfs``, then score
every prefix of the selected order on the test half with a K-nearest-neighbour
vote over the integer codes.  A split's binning is the same for every
criterion, so ``benchmark`` bins each split once per call and hands the same
training and test datasets to all its criteria, holding at most
``_HELD_SPLIT_BYTES`` of codes and targets; a split past that bound is binned
again per criterion.  Errors are averaged over splits; criteria are compared
by average rank (1 = best, ties share the mean of their positions).

The vote is ``_knn_predict``'s.  It sorts the test rows once, so that the
rows equal on the columns seen so far form contiguous runs, and ranks each
run once: equal rows have equal distances, hence equal neighbours and votes.
It goes through the sorted rows in blocks of at most ``_BLOCK`` rows, fewer
when the block's distance buffers would pass ``_KNN_BYTES`` (at least one
row), so its working memory stays within that budget, or one row of
buffers, on top of its inputs and output.  Squared distances are exact
integers, held in int16 while ``reach``, the sum of the squared maximum codes
of the order's columns, is below the int16 maximum, in int64 otherwise.  The
k nearest rows of a run are its k smallest distances in (distance, row)
order, so a distance tie goes to the lower training index; two paths pick
them, and ``_plan`` chooses one per call along with the dtypes.  For k up to 4
on enough training rows, k ``argmin`` passes each take the first minimum and
set it to the dtype's maximum, which exceeds every distance.  Otherwise each
distance becomes the unique key ``distance * n_train + row`` and a partition
keeps the k smallest keys, at O(n_train) per run whatever k.  The keys are
int32 when the largest one, ``(reach + 1) * n_train - 1``, fits in it, int64
otherwise; beyond int64 the input is rejected on either path.  A vote tie
keeps the lowest class label.  The kernel takes ``benchmark``'s binned codes
as they are: at least 0, labels in [0, n_classes), no empty side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .data import RawTable, SplitSpec, _fit, _int_at_least, apply_binning, make_splits
from .selection import run_sfs


# Test rows are ranked at most this many at a time, and fewer when their
# buffers would pass _KNN_BYTES: dist, spare and sq in the distance dtype and,
# on the partition path, keys in the key dtype, each one row per test row
# of n_train cells.  64 MiB keeps 256-row blocks up to 43,690 training rows
# of int16 distances on the argmin path.
_BLOCK = 256
_KNN_BYTES = 64 << 20
_INT16_MAX = int(np.iinfo(np.int16).max)
_INT32_MAX = int(np.iinfo(np.int32).max)
_INT64_MAX = int(np.iinfo(np.int64).max)
#: the measured rule of ``_plan``
_MAX_PASSES = 4
_ROWS_PER_PASS = 300

#: bytes of binned splits that ``benchmark`` keeps for its later criteria:
#: 64 MiB holds all 30 splits of a 50,000 x 20 table in uint8 codes
_HELD_SPLIT_BYTES = 64 << 20


def _plan(reach: int, n_train: int, k: int):
    """(distance dtype, key dtype) for ``_knn_predict``, the key dtype None
    when the k nearest rows are picked by argmin passes.

    ``reach`` bounds every squared distance, so int16 holds them exactly
    while it is below the int16 maximum, and int64 otherwise; the dtype's
    maximum, the mark of an argmin pass, then lies above every distance.
    Timed on the selection step alone, one pass beats the key partition at
    any size; k passes cost O(k * n_train) per run, and beat it for k up to
    ``_MAX_PASSES`` once each pass covers ``_ROWS_PER_PASS`` training rows.
    The keys ``distance * n_train + row`` reach ``(reach + 1) * n_train - 1``:
    int32 when that fits in it, int64 when only that does.  Beyond int64 the
    input raises ``ValueError`` on either path.
    """
    top = (reach + 1) * n_train - 1
    if top > _INT64_MAX:
        raise ValueError("codes too wide for exact int64 distance keys")
    dtype = np.int16 if reach < _INT16_MAX else np.int64
    if k <= _MAX_PASSES and (k == 1 or n_train >= _ROWS_PER_PASS * k):
        return dtype, None
    return dtype, np.int32 if top <= _INT32_MAX else np.int64


def _nearest(dist, k, keys):
    """Columns of the first k entries of each row of ``dist`` in (value,
    column) order, as an (n, k) array in no set order within a row.

    With ``keys`` None, by argmin passes over ``dist`` itself, whose entries
    must lie below its dtype's maximum; the passes leave it as it was.
    Otherwise by a partition of the keys written into ``keys``, an array of
    the shape of ``dist`` whose dtype holds them.  See ``_knn_predict``.
    """
    n, n_train = dist.shape
    if keys is None:
        runs, top = np.arange(n), np.iinfo(dist.dtype).max
        picks, saved = [], []
        for _ in range(k - 1):
            pick = dist.argmin(axis=1)
            picks.append(pick)
            saved.append(dist[runs, pick])
            dist[runs, pick] = top
        picks.append(dist.argmin(axis=1))
        for pick, value in zip(picks, saved):
            dist[runs, pick] = value
        return np.stack(picks, axis=1)
    np.multiply(dist, n_train, out=keys, dtype=keys.dtype)
    keys += np.arange(n_train, dtype=keys.dtype)
    keys.partition(k - 1, axis=1)
    return keys[:, :k] % n_train


def _knn_predict(train_codes, train_labels, test_codes, order, k, n_classes):
    """KNN predictions after each column of ``order``: shape (len(order), n_test).

    The test rows are sorted once on the columns of ``order``,
    lexicographically with its first column as the primary key, so the rows
    that are equal on the columns seen so far lie in contiguous runs, and
    each further column can only split a run.  The sorted rows go through in
    blocks of ``_BLOCK`` rows, or as many as ``_KNN_BYTES`` of buffers hold
    when that is fewer (at least one); within a block each run keeps one row
    of distances to every training row, which accumulates one column at a
    time: when a column splits a run, the new runs start from a copy of
    their parent's row.  After each column c the k nearest rows vote once
    per run, the vote goes to every row of the run, and row c of the result,
    back in input order, uses the columns ``order[:c + 1]``; a repeated
    column counts once per repetition.  Equal rows have equal distances, so
    this ranks each distinct test prefix once per block and predicts exactly
    what ranking every row would; the sort only makes the runs long, and any
    row order predicts the same.

    Squared distances are exact integers: ``reach``, the sum over ``order``
    of each column's squared maximum code, bounds them, and ``_plan`` picks
    their dtype from it.  The k nearest rows of a run are the first k in
    (distance, row) order, so a distance tie keeps the lower training index,
    as a stable sort would, without sorting the other n_train - k rows;
    ``_nearest`` picks them.  When ``_plan`` allows it (small k on enough
    training rows), it takes k ``argmin`` passes over the run's distance row:
    ``argmin`` returns the first minimum, which is the lower row on a tie, and
    a picked row is set to the dtype's maximum, above every real distance,
    until the passes end; the distances are put back in place, which costs
    less than passing over a copy.  Otherwise each distance becomes the unique
    key ``distance * n_train + row``, which sorts in (distance, row) order, a
    partition at k - 1 puts the k smallest keys first, and ``key % n_train``
    gives back their rows; that costs O(n_train) per run whatever k, where
    the passes cost O(k * n_train).  ``argmax`` over the vote counts keeps the
    lowest label on a vote tie.

    Preconditions, which ``benchmark``'s binned datasets meet and which are
    not checked: codes are integers of at least 0, labels lie in
    [0, n_classes), and there is at least one training and one test row.
    """
    n_train, n_test = len(train_labels), len(test_codes)
    k = min(k, n_train)
    tops = np.maximum(train_codes.max(axis=0), test_codes.max(axis=0))
    reach = sum(int(tops[j]) ** 2 for j in order)
    dtype, key_dtype = _plan(reach, n_train, k)
    # (len(order), n) rows, one per column of the order
    train = np.ascontiguousarray(train_codes.T[order], dtype)
    test = np.ascontiguousarray(test_codes.T[order], dtype)
    # lexsort takes its last key as the primary one
    rows = np.lexsort(test[::-1])
    test = test[:, rows]
    preds = np.empty((len(order), n_test), dtype=np.int64)
    row_bytes = n_train * (3 * np.dtype(dtype).itemsize
                           + (0 if key_dtype is None else np.dtype(key_dtype).itemsize))
    block = max(1, min(_BLOCK, _KNN_BYTES // row_bytes, n_test))
    dist = np.empty((block, n_train), dtype=dtype)
    spare, sq = np.empty_like(dist), np.empty_like(dist)
    keys = None if key_dtype is None else np.empty((block, n_train), dtype=key_dtype)
    offsets = np.arange(block)[:, None] * n_classes
    for start in range(0, n_test, block):
        stop = min(start + block, n_test)
        new_run = np.zeros(stop - start, dtype=bool)
        new_run[0] = True
        heads = np.flatnonzero(new_run)
        dist[0] = 0
        for c, col in enumerate(test[:, start:stop]):
            new_run[1:] |= col[1:] != col[:-1]
            split = np.flatnonzero(new_run)
            if len(split) > len(heads):
                parents = heads.searchsorted(split, side="right") - 1
                # parents are in range; mode="raise" would copy through a buffer
                np.take(dist[:len(heads)], parents, axis=0, out=spare[:len(split)],
                        mode="clip")
                dist, spare, heads = spare, dist, split
            n = len(heads)
            s = sq[:n]
            np.subtract(col[heads, None], train[c], out=s)
            np.multiply(s, s, out=s)
            dist[:n] += s
            nearest = _nearest(dist[:n], k, None if keys is None else keys[:n])
            votes = np.bincount((offsets[:n] + train_labels[nearest]).ravel(),
                                minlength=n * n_classes)
            run_preds = votes.reshape(-1, n_classes).argmax(axis=1)
            preds[c, rows[start:stop]] = run_preds[np.cumsum(new_run) - 1]
    return preds


def average_ranks(errors) -> np.ndarray:
    """Average-rank the entries (1 = lowest error); ties share their mean rank.

    Fewer than two entries, or a NaN among them, raises ``ValueError``.
    """
    errors = np.asarray(errors, dtype=float)
    if len(errors) < 2:
        raise ValueError("need at least two entries to rank")
    nan = np.flatnonzero(np.isnan(errors))
    if len(nan):
        raise ValueError(f"cannot rank NaN (entry {nan[0]})")
    # a run of c ties ending at sorted position e (1-based) shares rank e - (c - 1) / 2
    _, inverse, counts = np.unique(errors, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


@dataclass
class EvalReport:
    """Error curves and cross-criterion ranks for one dataset."""

    criteria: list[str]
    errors: np.ndarray            # (n_criteria, n_splits, k_max)
    meta: dict

    @property
    def mean_errors(self) -> np.ndarray:
        return self.errors.mean(axis=1)

    @property
    def ranks_per_k(self) -> np.ndarray:
        me = self.mean_errors
        return np.column_stack([average_ranks(me[:, k]) for k in range(me.shape[1])])

    @property
    def average_rank(self) -> np.ndarray:
        return self.ranks_per_k.mean(axis=1)

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "criteria": list(self.criteria),
            "errors": self.errors.tolist(),
            "mean_errors": self.mean_errors.tolist(),
            "ranks_per_k": self.ranks_per_k.tolist(),
            "average_rank": self.average_rank.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        """Mean-error matrix, criteria as rows and top-K sizes as columns."""
        k_max = self.errors.shape[2]
        lines = ["criterion," + ",".join(f"k{k + 1}" for k in range(k_max)) + ",avg_rank"]
        me = self.mean_errors
        ar = self.average_rank
        for i, name in enumerate(self.criteria):
            cells = ",".join(f"{me[i, k]:.6f}" for k in range(k_max))
            lines.append(f"{name},{cells},{ar[i]:.4f}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        k_max = self.errors.shape[2]
        me = self.mean_errors
        ar = self.average_rank
        w = max(len(n) for n in self.criteria) + 2
        header = "criterion".ljust(w) + "".join(f"k={k + 1}".rjust(9) for k in range(k_max)) \
            + "avg rank".rjust(11)
        lines = [header, "-" * len(header)]
        for i, name in enumerate(self.criteria):
            row = name.ljust(w) + "".join(f"{me[i, k]:9.4f}" for k in range(k_max))
            lines.append(row + f"{ar[i]:11.2f}")
        return "\n".join(lines) + "\n"


def benchmark(table: RawTable, criteria, split_spec: SplitSpec, k_max: int,
              n_bins: int = 5, knn_k: int = 3, estimator: str = "plugin",
              dataset_label: str = "") -> EvalReport:
    """Run the repeated-holdout protocol for several criteria on one table.

    Criterion by criterion, ``run_sfs`` selects on each split's training half
    and ``errors[c, r, size - 1]`` scores the first ``size`` features of its
    order on the test half, for every size up to ``k_max``.  Each split is
    binned once, when the first criterion reaches it, and the same datasets go
    to every later criterion while the held pairs fit in ``_HELD_SPLIT_BYTES``;
    a split past that bound is binned again for each criterion.  ``k_max`` and
    ``knn_k`` must be ints of at least 1 (numpy integers too, bools not), and
    ``k_max`` at most the feature count; they are checked before any split is
    binned.
    """
    criteria = list(criteria)
    if len(criteria) < 2:
        raise ValueError("benchmark needs at least two criteria")
    k_max = _int_at_least(k_max, "k_max")
    n_features = len(table.feature_names)
    if k_max > n_features:
        raise ValueError(f"k_max must be <= {n_features}, the feature count, got {k_max}")
    knn_k = _int_at_least(knn_k, "knn_k")
    splits = make_splits(table.n_rows, split_spec)
    held, held_bytes = {}, 0
    errs = np.empty((len(criteria), len(splits), k_max))
    for c, criterion in enumerate(criteria):
        for r, (train_rows, test_rows) in enumerate(splits):
            pair = held.get(r)
            if pair is None:
                spec, train_ds = _fit(table, n_bins, train_rows)
                test_ds = apply_binning(table, spec, test_rows)
                # the class count is the whole table's, a class unseen at fit time included
                pair = replace(train_ds, n_classes=test_ds.n_classes), test_ds
                nbytes = sum(ds.codes.nbytes + ds.target.nbytes for ds in pair)
                if held_bytes + nbytes <= _HELD_SPLIT_BYTES:
                    held[r] = pair
                    held_bytes += nbytes
            train_ds, test_ds = pair
            order = run_sfs(train_ds, criterion, k_max, estimator=estimator).order
            preds = _knn_predict(train_ds.codes, train_ds.target, test_ds.codes, order,
                                 knn_k, test_ds.n_classes)
            errs[c, r] = np.count_nonzero(preds != test_ds.target, axis=1) / len(test_rows)
    labels = [c.label for c in criteria]
    # the checks above passed numpy numbers; json writes only ints and floats
    meta = {"dataset": dataset_label, "n_rows": table.n_rows,
            "seed": int(split_spec.seed), "repeats": len(splits),
            "train_fraction": float(split_spec.train_fraction), "k_max": k_max,
            "bins": int(n_bins), "knn_k": knn_k, "estimator": estimator}
    return EvalReport(labels, errs, meta)
