"""Minimal independent reference implementations used as test oracles."""

import csv
from itertools import combinations, permutations
from types import SimpleNamespace
from unittest import mock

import numpy as np

from infosel import evaluate
from infosel.criteria import parse_criterion
from infosel.data import (DataError, DiscreteDataset, RawTable, SplitSpec, equal_width_edges,
                          raw_bins)
from infosel.estimators import TARGET, TARGET_BIT, EstimatorContext, cell_terms, profile_entropy
from infosel.hocmim import (STOP_EXHAUSTED, STOP_ORDER_LIMIT, STOP_THRESHOLD, ZERO_RELEVANCE,
                            RedundancyTrace)


def ref_entropy(*cols) -> float:
    """Plug-in joint entropy in bits, from the profile of the observed tuple counts."""
    stacked = np.column_stack([np.asarray(c) for c in cols])
    _, counts = np.unique(stacked, axis=0, return_counts=True)
    return profile_entropy(np.bincount(counts), cell_terms(len(stacked)))


def ref_mi(a_cols, b_cols) -> float:
    return ref_entropy(*a_cols) + ref_entropy(*b_cols) - ref_entropy(*a_cols, *b_cols)


def ref_cmi(a_cols, b_cols, z_cols) -> float:
    if not z_cols:
        return ref_mi(a_cols, b_cols)
    return ref_mi(list(a_cols) + list(z_cols), b_cols) - ref_mi(z_cols, b_cols)


def joint_counts(ctx, cols) -> tuple[np.ndarray, float]:
    """Observed joint-state counts of a column set and its dense cell count.

    Read off the context's pair profiles and dense cell counts: the ones with
    the target when the set holds it, the ones without otherwise.  Each
    count c appears as often as the profile says; empty cells are dropped,
    and the counts are sorted.
    """
    mask = ctx._mask(cols)
    if not mask:
        raise ValueError("empty column list")
    a, pick = mask & ~TARGET_BIT, 0 if mask & TARGET_BIT else 1
    profile, dense = ctx._pair_profiles(a)[pick], ctx._dense_cells(a)[pick]
    return np.repeat(np.arange(1, len(profile)), profile[1:]), dense


def shrinkage_pmf(counts, n_cells=None) -> np.ndarray:
    """James-Stein shrinkage of empirical frequencies toward the uniform pmf.

    lambda = (1 - sum p^2) / ((N-1) * sum (u - p)^2), clipped to [0, 1], with
    u = 1/n_cells and the sums over all n_cells cells, an unobserved one at
    p = 0.  ``n_cells`` defaults to len(counts).  Returns the shrunk pmf over
    the given cells only (unobserved cells each carry lambda/n_cells).
    """
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("zero total count")
    m = float(n_cells if n_cells is not None else len(counts))
    p = counts / total
    u = 1.0 / m
    spread = float(((u - p) ** 2).sum()) + (m - len(counts)) * u ** 2
    if total <= 1 or spread <= 0:
        lam = 1.0
    else:
        lam = min(1.0, max(0.0, (1.0 - float((p ** 2).sum())) / ((total - 1) * spread)))
    return lam * u + (1.0 - lam) * p


def ref_shrinkage_entropy(*cols, dense: float) -> float:
    """Shrinkage entropy in bits from ``shrinkage_pmf`` over the observed tuple
    counts, each of the dense cells left unobserved carrying an equal share
    of the mass the pmf leaves over."""
    counts = np.unique(np.column_stack(cols), axis=0, return_counts=True)[1]
    q = shrinkage_pmf(counts, dense)
    h = float(-(q * np.log2(q)).sum())
    n_empty = dense - len(counts)
    q0 = (1.0 - q.sum()) / n_empty if n_empty else 0.0
    return h - n_empty * q0 * np.log2(q0) if q0 > 0 else h


def columns(ds, idxs):
    """Feature columns by index, with -1 meaning the target column."""
    return [ds.target if j == -1 else ds.codes[:, j] for j in idxs]


def random_ds(rng, d=4, n=32, arity=3) -> DiscreteDataset:
    """d uniform columns of the arity over n rows, and a two-class target holding both classes."""
    codes = rng.integers(0, arity, size=(n, d)).astype(np.int64)
    target = rng.integers(0, 2, size=n).astype(np.int64)
    target[:2] = [0, 1]
    return DiscreteDataset(codes, (arity,) * d, target, 2, tuple(f"f{i}" for i in range(d)))


def ref_numeric_codes(values, fit_rows, n_bins: int):
    """One numeric column's codes with the nearest-occupied snap done per value.

    The bins occupied on ``fit_rows`` are re-indexed densely; a value in a bin
    left empty there goes to the nearer of the occupied bins either side of it,
    the lower one on a tie.  Returns (int64 codes, arity).
    """
    fit = values[fit_rows]
    edges = equal_width_edges(fit, n_bins)
    occupied = np.unique(raw_bins(fit, edges))
    raw = raw_bins(values, edges)
    pos = np.searchsorted(occupied, raw)
    pos = np.clip(pos, 0, len(occupied) - 1)
    left = np.clip(pos - 1, 0, len(occupied) - 1)
    take_left = np.abs(occupied[left] - raw) <= np.abs(occupied[pos] - raw)
    return np.where(take_left, left, pos).astype(np.int64), len(occupied)


def ref_first_appearance(labels) -> list[int]:
    """Each label's code: the number of distinct labels that appear before its first row."""
    seen: dict = {}
    codes = []
    for label in labels:
        if label not in seen:
            seen[label] = len(seen)
        codes.append(seen[label])
    return codes


def ref_load_csv(path, target_name: str) -> RawTable:
    """The whole-file loader: every row read into a list of cell strings first."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file (no header row)") from None
        rows = list(reader)
    if not rows:
        raise DataError("empty table (header only)")
    header = [h.strip() for h in header]
    dupes = sorted({h for h in header if header.count(h) > 1})
    if dupes:
        raise DataError(f"duplicate header names {dupes}")
    if target_name not in header:
        raise DataError(f"target column {target_name!r} not in header {header}")
    width = len(header)
    cells: list[list[str]] = [[] for _ in header]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"ragged row {i + 2}: expected {width} cells, got {len(row)}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell == "":
                raise DataError(f"missing value at row {i + 2}, column {header[j]!r}")
            cells[j].append(cell)

    kinds, columns = [], []
    for name, col in zip(header, cells):
        try:
            arr = np.array([float(c) for c in col], dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError
            kinds.append("numeric")
            columns.append(arr)
        except ValueError:
            kinds.append("categorical")
            columns.append(list(col))
    return RawTable(tuple(header), tuple(kinds), tuple(columns), target_name, len(rows))


class RefContext(EstimatorContext):
    """The list-keyed entropy, MI and CMI: every column set is rebuilt as a
    sorted tuple of indices on each call, and entropies are memoized by that
    tuple.  Joint counts come from the context under test, and entropies from
    the profile of those counts."""

    def __init__(self, dataset, estimator: str = "plugin"):
        super().__init__(dataset, estimator=estimator)
        self._tuple_cache: dict[tuple[int, ...], float] = {}

    def _key(self, cols) -> tuple[int, ...]:
        key = tuple(sorted(set(int(c) for c in cols)))
        if not key:
            raise ValueError("empty column list")
        return key

    def entropy(self, cols) -> float:
        key = self._key(cols)
        h = self._tuple_cache.get(key)
        if h is None:
            counts, dense = joint_counts(self, key)
            h = profile_entropy(np.bincount(counts), cell_terms(self.n_rows), self.estimator,
                                dense)
            self._tuple_cache[key] = h
        return h

    def _raw_mi(self, cols_a, cols_b) -> float:
        v = self.entropy(cols_a) + self.entropy(cols_b) - self.entropy(list(cols_a) + list(cols_b))
        return max(0.0, v)

    def mutual_information(self, cols_a, cols_b) -> float:
        self.mi_calls += 1
        return self._raw_mi(list(cols_a), list(cols_b))

    def conditional_mutual_information(self, cols_a, cols_b, cols_z) -> float:
        self.mi_calls += 2
        cols_a, cols_b, cols_z = list(cols_a), list(cols_b), list(cols_z)
        if not cols_z:
            return self._raw_mi(cols_a, cols_b)
        return self._raw_mi(cols_a + cols_z, cols_b) - self._raw_mi(cols_z, cols_b)


# -- list-building scorers, the reference for the criteria's mask-building ones

def ref_score_generic(ctx, k, S, beta, gamma) -> float:
    score = ctx.mutual_information([k], [TARGET])
    if beta != 0.0:
        score -= beta * sum(ctx.mutual_information([j], [k]) for j in S)
    if gamma != 0.0:
        score += gamma * sum(ctx.conditional_mutual_information([j], [k], [TARGET])
                             for j in S)
    return score


def _mean_weight(S) -> float:
    return 1.0 / len(S) if S else 0.0


def ref_score_disr(ctx, k, S) -> float:
    if not S:
        return ctx.mutual_information([k], [TARGET])
    total = 0.0
    for j in S:
        num = ctx.mutual_information([k, j], [TARGET])
        den = ctx.entropy([k, j, TARGET])
        if den > 0.0:
            total += num / den
    return total


def ref_score_cmim(ctx, k, S, order) -> float:
    m = min(order - 1, len(S))
    if m == 0:
        return ctx.mutual_information([k], [TARGET])
    return min(ctx.conditional_mutual_information([k], [TARGET], list(z))
               for z in combinations(S, m))


def ref_score_relax_mrmr(ctx, k, S) -> float:
    w = _mean_weight(S)
    score = ref_score_generic(ctx, k, S, w, w)
    if len(S) >= 2:
        eta = 1.0 / (len(S) * (len(S) - 1))
        score -= eta * sum(ctx.conditional_mutual_information([k], [i], [j])
                           for j in S for i in S if i != j)
    return score


def ref_score_jmi_high(ctx, k, S, order) -> float:
    m = min(order - 1, len(S))
    if m < 2:
        w = _mean_weight(S)
        return ref_score_generic(ctx, k, S, w, w)
    return sum(ctx.mutual_information(list(tup) + [k], [TARGET])
               for tup in permutations(S, m))


def _ref_increment(ctx, k, j, z_prefix) -> float:
    return (ctx.conditional_mutual_information([k], [j], z_prefix)
            - ctx.conditional_mutual_information([k], [j], z_prefix + [TARGET]))


def ref_greedy_representative_set(ctx, k, S, criterion, relevance=None) -> RedundancyTrace:
    S = list(S)
    adaptive = criterion.adaptive
    if adaptive and relevance is None:
        relevance = ctx.mutual_information([k], [TARGET])
    z: list[int] = []
    increments: list[float] = []
    redundancy = 0.0
    n_sweeps = criterion.n if not adaptive else min(criterion.n_max, len(S))
    threshold_fired = False
    for _ in range(n_sweeps):
        pool = S if not adaptive else [j for j in S if j not in z]
        if not pool:
            break
        best_j, best_d = None, None
        for j in sorted(pool):
            d = _ref_increment(ctx, k, j, z)
            if j in z:
                continue
            if best_d is None or d > best_d:
                best_j, best_d = j, d
        if best_j is None:
            continue
        z.append(best_j)
        increments.append(best_d)
        redundancy += best_d
        if adaptive and relevance > ZERO_RELEVANCE:
            if 1.0 - redundancy / relevance < criterion.epsilon_star:
                threshold_fired = True
                break
    if threshold_fired:
        stop = STOP_THRESHOLD
    elif len(z) == len(S):
        stop = STOP_EXHAUSTED
    else:
        stop = STOP_ORDER_LIMIT
    return RedundancyTrace(k, z, increments, redundancy, stop)


def ref_hocmim_score(ctx, k, S, criterion):
    relevance = ctx.mutual_information([k], [TARGET])
    if not S:
        return relevance, RedundancyTrace(k, [], [], 0.0, STOP_EXHAUSTED)
    trace = ref_greedy_representative_set(ctx, k, S, criterion, relevance=relevance)
    return relevance - trace.redundancy, trace


#: kind -> (criterion, ctx, k, S) -> (score, trace or None), as in criteria.CRITERIA
REF_SCORERS = {
    "mim": lambda c, ctx, k, S: (ref_score_generic(ctx, k, S, 0.0, 0.0), None),
    "mifs": lambda c, ctx, k, S: (ref_score_generic(ctx, k, S, 1.0 if c.beta is None else c.beta,
                                                    0.0), None),
    "mrmr": lambda c, ctx, k, S: (ref_score_generic(ctx, k, S, _mean_weight(S), 0.0), None),
    "jmi": lambda c, ctx, k, S: (ref_score_jmi_high(ctx, k, S, 2), None),
    "disr": lambda c, ctx, k, S: (ref_score_disr(ctx, k, S), None),
    "cmim": lambda c, ctx, k, S: (ref_score_cmim(ctx, k, S, 2), None),
    "relax-mrmr": lambda c, ctx, k, S: (ref_score_relax_mrmr(ctx, k, S), None),
    "jmi3": lambda c, ctx, k, S: (ref_score_jmi_high(ctx, k, S, 3), None),
    "jmi4": lambda c, ctx, k, S: (ref_score_jmi_high(ctx, k, S, 4), None),
    "cmim3": lambda c, ctx, k, S: (ref_score_cmim(ctx, k, S, 3), None),
    "cmim4": lambda c, ctx, k, S: (ref_score_cmim(ctx, k, S, 4), None),
    "hocmim": lambda c, ctx, k, S: ref_hocmim_score(ctx, k, S, c),
}


class RefCriterion:
    """A ``Criterion`` scored by the list-building reference scorers."""

    def __init__(self, criterion):
        self.criterion = criterion
        self.kind = criterion.kind
        self.label = criterion.label

    def score(self, ctx, k, S):
        return REF_SCORERS[self.kind](self.criterion, ctx, k, S)


def fixed_order_benchmark(table, order, splits, **kwargs):
    """``evaluate.benchmark`` of two criteria over ``splits``, each of which
    selects ``order``: the report and the training datasets selected on, in
    call order."""
    seen = []

    def select(ds, criterion, k_max, estimator):
        seen.append(ds)
        return SimpleNamespace(order=order)

    with mock.patch.object(evaluate, "make_splits", return_value=splits), \
            mock.patch.object(evaluate, "run_sfs", select):
        report = evaluate.benchmark(table, [parse_criterion("mim"), parse_criterion("cmim")],
                                    SplitSpec(0.5, 0, len(splits)), len(order), **kwargs)
    return report, seen
