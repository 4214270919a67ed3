"""Independent references the benchmark checks the program against.

Nothing here imports the package under test.  Every quantity is written from
its definition: entropies from ``np.unique`` over stacked columns, criterion
scores from their formulas, binning from the equal-width rule with dense
re-indexing, and KNN from ``scipy.spatial.distance.cdist`` with explicit tie
rules.  Column index ``Y`` (-1) addresses the target.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

Y = -1


class Estimator:
    """Plug-in entropies in bits over integer-coded columns, memoised by set."""

    def __init__(self, codes: np.ndarray, target: np.ndarray):
        self.codes = codes
        self.target = target
        self._h: dict[frozenset, float] = {}

    def _col(self, j: int) -> np.ndarray:
        return self.target if j == Y else self.codes[:, j]

    def H(self, cols) -> float:
        key = frozenset(cols)
        h = self._h.get(key)
        if h is None:
            stacked = np.column_stack([self._col(j) for j in sorted(key)])
            # one byte string per row: np.unique over it counts the distinct
            # rows like np.unique(axis=0), several times faster
            if stacked.max() < 256:
                stacked = stacked.astype(np.uint8)
            rows = np.ascontiguousarray(stacked).view(
                np.dtype((np.void, stacked.dtype.itemsize * stacked.shape[1]))).ravel()
            _, counts = np.unique(rows, return_counts=True)
            p = counts / counts.sum()
            h = self._h[key] = float(-(p * np.log2(p)).sum())
        return h

    def I(self, a, b) -> float:
        """I(A;B) = H(A) + H(B) - H(A,B)."""
        a, b = set(a), set(b)
        return self.H(a) + self.H(b) - self.H(a | b)

    def CI(self, a, b, z) -> float:
        """I(A;B|Z) = H(A,Z) + H(B,Z) - H(A,B,Z) - H(Z)."""
        a, b, z = set(a), set(b), set(z)
        if not z:
            return self.I(a, b)
        return self.H(a | z) + self.H(b | z) - self.H(a | b | z) - self.H(z)

    # -- criterion formulas --------------------------------------------------

    def relevance(self, k: int) -> float:
        return self.I({k}, {Y})

    def redundancy(self, k: int, z) -> float:
        """R(Xk,Z,Y) = I(Xk;Z) - I(Xk;Z|Y)."""
        return self.I({k}, z) - self.CI({k}, z, {Y}) if z else 0.0

    def increment(self, k: int, j: int, z) -> float:
        """dR_j(Z) = I(Xk;Xj|Z) - I(Xk;Xj|Y,Z)."""
        return self.CI({k}, {j}, z) - self.CI({k}, {j}, set(z) | {Y})

    def jmi(self, k: int, S) -> float:
        """I(Xk;Y) - 1/|S| sum I(Xj;Xk) + 1/|S| sum I(Xj;Xk|Y)."""
        if not S:
            return self.relevance(k)
        w = 1.0 / len(S)
        return (self.relevance(k) - w * sum(self.I({j}, {k}) for j in S)
                + w * sum(self.CI({j}, {k}, {Y}) for j in S))

    def jmi_high(self, k: int, S, order: int) -> float:
        """Sum over ordered (order-1)-tuples of S of I(tuple, Xk; Y)."""
        if len(S) < order - 1:
            return self.jmi_high(k, S, order - 1) if order > 3 else self.jmi(k, S)
        return sum(self.I(set(t) | {k}, {Y}) for t in permutations(S, order - 1))

    def cmim(self, k: int, S, order: int = 2) -> float:
        """min over (order-1)-subsets Z of S of I(Xk;Y|Z)."""
        if not S:
            return self.relevance(k)
        if len(S) < order - 1:
            return self.cmim(k, S, order - 1)
        return min(self.CI({k}, {Y}, set(z)) for z in combinations(S, order - 1))

    def relax_mrmr(self, k: int, S) -> float:
        """JMI minus 1/(|S|(|S|-1)) times the sum of I(Xk;Xi|Xj) over i != j in S."""
        score = self.jmi(k, S)
        if len(S) >= 2:
            eta = 1.0 / (len(S) * (len(S) - 1))
            score -= eta * sum(self.CI({k}, {i}, {j}) for j in S for i in S if i != j)
        return score


def hocmim_mi_terms(D: int, K: int, n: int) -> int:
    """The paper's closed form D + sum_{s=1}^{K-1} (D-s)(1 + 4ns) at fixed order n."""
    return D + sum((D - s) * (1 + 4 * n * s) for s in range(1, K))


def hocmim_mi_bound(D: int, K: int, n_max: int) -> int:
    """Adaptive bound: at step s the search runs at most min(n_max, s) sweeps."""
    return D + sum((D - s) * (1 + 4 * min(n_max, s) * s) for s in range(1, K))


# -- binning ------------------------------------------------------------------

def bin_numeric(values: np.ndarray, fit_rows: np.ndarray, n_bins: int):
    """Equal-width bins fit on ``fit_rows``, occupied bins re-indexed densely.

    The interior edges are lo + (hi-lo)*i/n_bins; a value v lies in bin i when
    edge_{i-1} <= v < edge_i.  A value in a bin left empty by the fit rows goes
    to the nearest occupied bin, the lower one on a tie.  Returns (codes, arity).
    """
    fit = values[fit_rows]
    lo, hi = float(fit.min()), float(fit.max())
    if lo == hi:
        return np.zeros(len(values), dtype=np.int64), 1
    edges = np.array([lo + (hi - lo) * i / n_bins for i in range(1, n_bins)])
    raw = (values[:, None] >= edges[None, :]).sum(axis=1)
    occupied = np.unique(raw[fit_rows])
    codes = np.abs(raw[:, None] - occupied[None, :]).argmin(axis=1)
    return codes.astype(np.int64), len(occupied)


def first_appearance(labels, fit_rows):
    """Codes in order of first appearance on ``fit_rows``; unseen labels share
    the next code.  Returns (codes, number of labels seen on the fit rows)."""
    seen: dict[str, int] = {}
    for i in fit_rows:
        seen.setdefault(labels[i], len(seen))
    unseen = len(seen)
    return np.array([seen.get(v, unseen) for v in labels], dtype=np.int64), len(seen)


def discretize(columns, fit_rows=None, n_bins: int = 5):
    """Reference codes for a generated table whose last column is the target.

    Returns (codes, arities, target, n_classes).
    """
    n = len(columns[0])
    fit_rows = np.arange(n) if fit_rows is None else np.asarray(fit_rows)
    codes, arities = [], []
    for col in columns[:-1]:
        if isinstance(col, np.ndarray):
            c, a = bin_numeric(col, fit_rows, n_bins)
        else:
            c, seen = first_appearance(col, fit_rows)
            a = seen + 1
        codes.append(c)
        arities.append(a)
    target, n_fit = first_appearance(columns[-1], fit_rows)
    n_classes = n_fit + int(target.max() >= n_fit)
    return np.column_stack(codes), tuple(arities), target, n_classes


# -- holdout protocol and KNN -------------------------------------------------

def splits(n_rows: int, train_fraction: float, seed: int, n_repeats: int):
    """Seeded holdout splits: a fresh permutation per repeat, the first
    floor(fraction * n) rows train, both sides sorted."""
    cut = math.floor(train_fraction * n_rows)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_repeats):
        perm = rng.permutation(n_rows)
        out.append((np.sort(perm[:cut]), np.sort(perm[cut:])))
    return out


def knn_error(train_x, train_y, test_x, test_y, k: int, n_classes: int) -> float:
    """Misclassification rate of a k-nearest-neighbour majority vote.

    On a distance tie the lower training index wins; on a vote tie the lowest
    label wins.  Squared distances between integer codes are whole numbers, so
    ``d * n_train + index`` orders (distance, index) pairs exactly.
    """
    from scipy.spatial.distance import cdist

    n_train = len(train_y)
    k = min(k, n_train)
    d = cdist(test_x.astype(float), train_x.astype(float), "sqeuclidean")
    key = d * n_train + np.arange(n_train)
    nearest = np.argpartition(key, k - 1, axis=1)[:, :k]
    votes = np.zeros((len(test_y), n_classes), dtype=np.int64)
    np.add.at(votes, (np.arange(len(test_y))[:, None], train_y[nearest]), 1)
    wrong = int((votes.argmax(axis=1) != test_y).sum())
    return wrong / len(test_y)
