"""Plug-in and shrinkage estimators of entropy, MI, and conditional MI.

All quantities are in bits (log base 2).  Column sets are joint-encoded to a
single integer state per row: mixed-radix when the dense state space is small
enough, dictionary compression over observed tuples otherwise, so conditioning
sets of any size cost O(N) per evaluation.

The context keeps a counter of logical MI-term evaluations: one per
mutual_information call, two per conditional_mutual_information call (its two
MI terms).  Entropies are not MI terms and are not counted.  Results are
memoized internally, so repeated logical calls stay cheap while the counter
still reflects what the algorithms ask for.
"""

from __future__ import annotations

import numpy as np

from .data import DiscreteDataset

#: pseudo-column index addressing the target/class column
TARGET = -1

#: switch to dictionary compression once the dense joint space exceeds this
_DENSE_LIMIT = 2 ** 62


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
    """Counted, memoized estimator view over a dataset (optionally row-restricted).

    Feature columns are addressed by index 0..D-1; the target column by
    ``TARGET``.  The underlying dataset is treated as read-only.
    """

    def __init__(self, dataset: DiscreteDataset, rows=None, estimator: str = "plugin"):
        if estimator not in ("plugin", "shrinkage"):
            raise ValueError(f"unknown estimator kind {estimator!r}")
        codes = dataset.codes if rows is None else dataset.codes[np.asarray(rows)]
        target = dataset.target if rows is None else dataset.target[np.asarray(rows)]
        if len(target) == 0:
            raise ValueError("row subset is empty")
        self._codes = codes
        self._target = target
        self._arities = dataset.arities
        self._n_classes = dataset.n_classes
        self.n_rows = len(target)
        self.n_features = codes.shape[1]
        self.estimator = estimator
        self.mi_calls = 0
        self._entropy_cache: dict[tuple[int, ...], float] = {}

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
        """Observed joint-state counts and the dense cell count of the set."""
        key = self._key(cols)
        dense = 1.0
        for c in key:
            dense *= self._arity(c)
        if len(key) == 1:
            col = self._column(key[0])
            counts = np.bincount(col, minlength=self._arity(key[0]))
            return counts[counts > 0], dense
        if dense <= _DENSE_LIMIT:
            code = np.zeros(self.n_rows, dtype=np.int64)
            for c in key:
                code = code * self._arity(c) + self._column(c)
            _, counts = np.unique(code, return_counts=True)
        else:
            mat = np.column_stack([self._column(c) for c in key])
            _, counts = np.unique(mat, axis=0, return_counts=True)
        return counts, dense

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
