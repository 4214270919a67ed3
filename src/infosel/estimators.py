"""Plug-in and shrinkage estimators of entropy, MI, and conditional MI.

All quantities are in bits (log base 2).  A column set is joint-encoded to
one integer state per row, incrementally: the code of a sorted column set
extends the code of the set without its last column, mixed-radix
(``prefix * arity + column``), and is relabelled densely, in order, once its
range exceeds the row count.  The searches grow column sets one column at a
time, so the codes of prefixes are kept in a small least-recently-used cache
and conditioning sets of any size cost O(N) per evaluation.  Every code
preserves the lexicographic order of the joint states, so the counts, and
the entropies computed from them, do not depend on which prefixes were
cached.

The context keeps a counter of logical MI-term evaluations: one per
mutual_information call, two per conditional_mutual_information call (its two
MI terms).  Entropies are not MI terms and are not counted.  Results are
memoized internally, so repeated logical calls stay cheap while the counter
still reflects what the algorithms ask for.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .data import DiscreteDataset

#: pseudo-column index addressing the target/class column
TARGET = -1

#: joint codes kept for reuse as prefixes of later column sets
_CODE_CACHE_SIZE = 64

#: count through a table while the code range is at most this many times the rows
_TABLE_ROWS = 4


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

    Feature columns are addressed by index 0..D-1; the target column by
    ``TARGET``.  The underlying dataset is treated as read-only, and its codes
    are used in place when they are column-major (as ``apply_binning`` and
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
        self._entropy_cache: dict[tuple[int, ...], float] = {}
        self._code_cache: OrderedDict[tuple[int, ...], tuple[np.ndarray, int]] = OrderedDict()

    # -- column plumbing ----------------------------------------------------

    def _column(self, idx: int) -> np.ndarray:
        if idx == TARGET:
            return self._target
        if not 0 <= idx < self.n_features:
            raise IndexError(f"feature index {idx} out of range")
        return self._codes[:, idx]

    def _arity(self, idx: int) -> int:
        return self._n_classes if idx == TARGET else self._arities[idx]

    def _key(self, cols) -> tuple[int, ...]:
        key = tuple(sorted(set(int(c) for c in cols)))
        if not key:
            raise ValueError("empty column list")
        return key

    def joint_counts(self, cols) -> tuple[np.ndarray, float]:
        """Observed joint-state counts and the dense cell count of the set.

        Counts come in lexicographic order of the joint states (columns in
        sorted index order, the first most significant), as ``np.unique``
        over the stacked columns' rows would give them.
        """
        key = self._key(cols)
        dense = 1.0
        for c in key:
            dense *= self._arity(c)
        code, size = self._extend(key)
        if size <= _TABLE_ROWS * self.n_rows:
            counts = np.bincount(code, minlength=size)
            return counts[counts > 0], dense
        return np.unique(code, return_counts=True)[1], dense

    def _extend(self, key: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """Order-preserving codes of the key's joint states, all below the returned size.

        The code of a multi-column key extends the code of ``key[:-1]`` by its
        last column, mixed-radix: ``prefix * arity + column``.
        """
        if len(key) == 1:
            return self._column(key[0]), self._arity(key[0])
        prefix, n = self._prefix_code(key[:-1])
        last, m = self._prefix_code(key[-1:])
        return prefix * m + last, n * m

    def _prefix_code(self, key: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """``_extend`` of a prefix, relabelled densely once its size exceeds the row count.

        Keeping prefix sizes at most N keeps every extended size below N**2,
        within int64.  Prefixes are cached (least recently used out first),
        since the searches grow column sets one column at a time.
        """
        if len(key) == 1 and self._arity(key[0]) <= self.n_rows:
            return self._column(key[0]), self._arity(key[0])
        hit = self._code_cache.get(key)
        if hit is not None:
            self._code_cache.move_to_end(key)
            return hit
        code, size = self._extend(key)
        if size > self.n_rows:
            code, size = _relabel(code, size, self.n_rows)
        self._code_cache[key] = code, size
        if len(self._code_cache) > _CODE_CACHE_SIZE:
            self._code_cache.popitem(last=False)
        return code, size

    # -- entropies (not counted as MI terms) ---------------------------------

    def entropy(self, cols) -> float:
        """Joint Shannon entropy of the column set, in bits."""
        key = self._key(cols)
        h = self._entropy_cache.get(key)
        if h is None:
            counts, dense = self.joint_counts(key)
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
            self._entropy_cache[key] = h
        return h

    def conditional_entropy(self, cols_a, cols_b) -> float:
        """H(A|B) = H(A,B) - H(B); an empty B gives plain H(A)."""
        cols_a, cols_b = list(cols_a), list(cols_b)
        if not cols_b:
            return self.entropy(cols_a)
        return self.entropy(cols_a + cols_b) - self.entropy(cols_b)

    # -- MI terms (counted) ---------------------------------------------------

    def _raw_mi(self, cols_a, cols_b) -> float:
        v = self.entropy(cols_a) + self.entropy(cols_b) - self.entropy(list(cols_a) + list(cols_b))
        return max(0.0, v)

    def mutual_information(self, cols_a, cols_b) -> float:
        """I(A;B) in bits; negative floating-point residue is clamped to 0."""
        self.mi_calls += 1
        return self._raw_mi(list(cols_a), list(cols_b))

    def conditional_mutual_information(self, cols_a, cols_b, cols_z) -> float:
        """I(A;B|Z) = I(A u Z; B) - I(Z; B); empty Z reduces to plain MI.

        Always counts as two MI terms.
        """
        self.mi_calls += 2
        cols_a, cols_b, cols_z = list(cols_a), list(cols_b), list(cols_z)
        if not cols_z:
            return self._raw_mi(cols_a, cols_b)
        return self._raw_mi(cols_a + cols_z, cols_b) - self._raw_mi(cols_z, cols_b)

    def reset_and_read_counter(self) -> int:
        """MI-term evaluations since the last reset; zeroes the counter."""
        v = self.mi_calls
        self.mi_calls = 0
        return v
