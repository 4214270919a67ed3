"""Plug-in and shrinkage estimators of entropy, MI, and conditional MI.

All quantities are in bits (log base 2).  Inside an ``EstimatorContext`` a
column set is an int bitmask: the target is bit 0 and feature j is bit j+1,
so a union of sets is ``|`` and the caches key on one int.  The public
methods take either such a mask or an iterable of column indices (``TARGET``
for the target); the searches in ``hocmim`` and ``criteria`` pass masks.

A column set is joint-encoded to one integer state per row, incrementally:
the code of a set extends the code of the set without its highest column
(its mask without the top bit), mixed-radix (``prefix * arity + column``),
and is relabelled densely, in order, once its range exceeds the row count.
The searches grow column sets one column at a time, so the codes of prefixes
are kept in a small least-recently-used cache and conditioning sets of any
size cost O(N) per evaluation.  Every code preserves the lexicographic order
of the joint states, so the counts, and the entropies computed from them, do
not depend on which prefixes were cached.

The context keeps a counter of logical MI-term evaluations: one per
mutual_information call, two per conditional_mutual_information call (its two
MI terms).  Entropies are not MI terms and are not counted.  Entropies are
memoized per mask, up to ``_ENTROPY_CACHE_SIZE`` of them, so repeated logical
calls stay cheap while the counter still reflects what the algorithms ask for.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .data import DiscreteDataset

#: pseudo-column index addressing the target/class column
TARGET = -1

#: mask bit of the target column; feature j is bit ``2 << j``
TARGET_BIT = 1

#: joint codes kept for reuse as prefixes of later column sets
_CODE_CACHE_SIZE = 64

#: entropies kept per context; the memo is emptied when it reaches this size
_ENTROPY_CACHE_SIZE = 1 << 18

#: count through a table while the code range is at most this many times the rows
_TABLE_ROWS = 4


def _columns(mask: int) -> tuple[int, ...]:
    """The column indices of a mask, ascending (``TARGET`` first)."""
    cols = []
    while mask:
        low = mask & -mask
        cols.append(low.bit_length() - 2)
        mask ^= low
    return tuple(cols)


def _relabel(code: np.ndarray, size: int, n_rows: int) -> tuple[np.ndarray, int]:
    """Dense, order-preserving relabel of codes in [0, size): the new codes and their range."""
    if size <= _TABLE_ROWS * n_rows:
        seen = np.bincount(code, minlength=size) > 0
        return (np.cumsum(seen) - 1)[code], int(seen.sum())
    uniq, dense = np.unique(code, return_inverse=True)
    return dense, len(uniq)


def shrinkage_pmf(counts, n_cells: int | None = None) -> np.ndarray:
    """James-Stein shrinkage of empirical frequencies toward the uniform pmf.

    lambda = (1 - sum p^2) / ((N-1) * sum (u - p)^2), clipped to [0, 1], with
    u = 1/n_cells.  ``n_cells`` defaults to len(counts); pass the full dense
    cell count to include unobserved cells in the target.  Returns the shrunk
    pmf over the given cells only (unobserved cells each carry lambda/n_cells).
    """
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("zero total count")
    m = float(n_cells if n_cells is not None else len(counts))
    lam = _shrinkage_lambda(counts, m)
    return lam * (1.0 / m) + (1.0 - lam) * (counts / total)


def _shrinkage_lambda(counts: np.ndarray, m: float) -> float:
    """The clipped James-Stein weight of the uniform target over m cells."""
    total = counts.sum()
    p = counts / total
    u = 1.0 / m
    var_target = float(np.sum((u - p) ** 2) + (m - len(counts)) * u ** 2)
    if total <= 1 or var_target <= 0:
        return 1.0
    lam = (1.0 - float(np.sum(p ** 2))) / ((total - 1) * var_target)
    return min(1.0, max(0.0, lam))


class EstimatorContext:
    """Counted, memoized estimator view over a dataset.

    Feature columns are addressed by index 0..D-1 and the target column by
    ``TARGET``.  A column set is an iterable of such indices or an int mask
    (``TARGET_BIT`` for the target, ``2 << j`` for feature j, ``|`` for a
    union); inside, every set is its mask.  An empty set is ``[]`` or ``0``:
    entropies of it are an error, and an empty conditioning set reduces a
    conditional MI to plain MI.  A mask below 0, or one with a bit above
    feature D-1, is rejected as a malformed set.

    The underlying dataset is treated as read-only, and its codes are used in
    place when they are column-major (as ``apply_binning`` and
    ``DiscreteDataset.restrict`` make them).  To estimate on a subset of the
    rows, build the context over ``dataset.restrict(rows)``.
    """

    def __init__(self, dataset: DiscreteDataset, estimator: str = "plugin"):
        if estimator not in ("plugin", "shrinkage"):
            raise ValueError(f"unknown estimator kind {estimator!r}")
        if dataset.n_rows == 0:
            raise ValueError("dataset has no rows")
        # one contiguous run of memory per feature column
        self._codes = np.asfortranarray(dataset.codes)
        self._target = dataset.target
        self._arities = dataset.arities
        self._n_classes = dataset.n_classes
        self.n_rows = dataset.n_rows
        self.n_features = dataset.n_features
        self.estimator = estimator
        self.mi_calls = 0
        self._mask_end = 1 << (self.n_features + 1)
        self._entropy_cache: dict[int, float] = {}
        self._code_cache: OrderedDict[int, tuple[np.ndarray, int]] = OrderedDict()

    # -- column plumbing ----------------------------------------------------

    def _column(self, idx: int) -> np.ndarray:
        return self._target if idx == TARGET else self._codes[:, idx]

    def _arity(self, idx: int) -> int:
        return self._n_classes if idx == TARGET else self._arities[idx]

    def _mask(self, cols) -> int:
        """The mask of a column set given as an int mask or an iterable of indices; 0 if empty."""
        if type(cols) is int:                 # not a bool or numpy int: those are no sets
            if 0 <= cols < self._mask_end:
                return cols
            if cols < 0:
                raise ValueError("empty column list")
            raise IndexError(f"column mask {cols:#x} has a bit above feature {self.n_features - 1}")
        mask = 0
        for c in cols:
            c = int(c)
            if not TARGET <= c < self.n_features:
                raise IndexError(f"feature index {c} out of range")
            mask |= 1 << (c + 1)
        return mask

    def joint_counts(self, cols) -> tuple[np.ndarray, float]:
        """Observed joint-state counts and the dense cell count of the set.

        Counts come in lexicographic order of the joint states (columns in
        sorted index order, the first most significant), as ``np.unique``
        over the stacked columns' rows would give them.
        """
        mask = self._mask(cols)
        if not mask:
            raise ValueError("empty column list")
        dense = 1.0
        for c in _columns(mask):
            dense *= self._arity(c)
        code, size = self._extend(mask)
        if size <= _TABLE_ROWS * self.n_rows:
            counts = np.bincount(code, minlength=size)
            return counts[counts > 0], dense
        return np.unique(code, return_counts=True)[1], dense

    def _extend(self, mask: int) -> tuple[np.ndarray, int]:
        """Order-preserving codes of the set's joint states, all below the returned size.

        The code of a multi-column set extends the code of the set without its
        highest column by that column, mixed-radix: ``prefix * arity + column``.
        """
        top = 1 << (mask.bit_length() - 1)
        if mask == top:
            c = mask.bit_length() - 2
            return self._column(c), self._arity(c)
        prefix, n = self._prefix_code(mask ^ top)
        last, m = self._prefix_code(top)
        return prefix * m + last, n * m

    def _prefix_code(self, mask: int) -> tuple[np.ndarray, int]:
        """``_extend`` of a prefix, relabelled densely once its size exceeds the row count.

        Keeping prefix sizes at most N keeps every extended size below N**2,
        within int64.  Prefixes are cached (least recently used out first),
        since the searches grow column sets one column at a time.
        """
        if not mask & (mask - 1):
            c = mask.bit_length() - 2
            if self._arity(c) <= self.n_rows:
                return self._column(c), self._arity(c)
        hit = self._code_cache.get(mask)
        if hit is not None:
            self._code_cache.move_to_end(mask)
            return hit
        code, size = self._extend(mask)
        if size > self.n_rows:
            code, size = _relabel(code, size, self.n_rows)
        self._code_cache[mask] = code, size
        if len(self._code_cache) > _CODE_CACHE_SIZE:
            self._code_cache.popitem(last=False)
        return code, size

    # -- entropies (not counted as MI terms) ---------------------------------

    def entropy(self, cols) -> float:
        """Joint Shannon entropy of the column set, in bits."""
        mask = self._mask(cols)
        h = self._entropy_cache.get(mask)
        if h is None:
            if not mask:
                raise ValueError("empty column list")
            counts, dense = self.joint_counts(_columns(mask))
            if self.estimator == "plugin":
                p = counts / counts.sum()
                h = float(-(p * np.log2(p)).sum())
            else:
                lam = _shrinkage_lambda(counts.astype(float), dense)
                q = lam / dense + (1.0 - lam) * counts / counts.sum()
                h = float(-(q[q > 0] * np.log2(q[q > 0])).sum())
                n_empty = dense - len(counts)
                if lam > 0 and n_empty > 0:
                    q0 = lam / dense
                    h += float(-n_empty * q0 * np.log2(q0))
            h = max(0.0, h)
            if len(self._entropy_cache) >= _ENTROPY_CACHE_SIZE:
                self._entropy_cache.clear()
            self._entropy_cache[mask] = h
        return h

    def conditional_entropy(self, cols_a, cols_b) -> float:
        """H(A|B) = H(A,B) - H(B); an empty B gives plain H(A)."""
        a, b = self._mask(cols_a), self._mask(cols_b)
        if not b:
            return self.entropy(a)
        return self.entropy(a | b) - self.entropy(b)

    # -- MI terms (counted) ---------------------------------------------------

    def _raw_mi(self, a: int, b: int) -> float:
        return max(0.0, self.entropy(a) + self.entropy(b) - self.entropy(a | b))

    def mutual_information(self, cols_a, cols_b) -> float:
        """I(A;B) in bits; negative floating-point residue is clamped to 0."""
        self.mi_calls += 1
        return self._raw_mi(self._mask(cols_a), self._mask(cols_b))

    def conditional_mutual_information(self, cols_a, cols_b, cols_z) -> float:
        """I(A;B|Z) = I(A u Z; B) - I(Z; B); empty Z reduces to plain MI.

        Always counts as two MI terms.
        """
        self.mi_calls += 2
        a, b, z = self._mask(cols_a), self._mask(cols_b), self._mask(cols_z)
        if not z:
            return self._raw_mi(a, b)
        return self._raw_mi(a | z, b) - self._raw_mi(z, b)

    def reset_and_read_counter(self) -> int:
        """MI-term evaluations since the last reset; zeroes the counter."""
        v = self.mi_calls
        self.mi_calls = 0
        return v
