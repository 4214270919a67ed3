"""The benchmark workloads: how each sets up, what one round runs, and checks.

Every workload goes through the package's public calls the way the CLI does:
``load_csv`` -> ``discretize`` -> ``run_sfs`` for ``infosel select`` and
``load_csv`` -> ``benchmark`` for ``infosel benchmark``.  An operation is one
selection or one holdout protocol run.  ``check`` compares the outputs of a
round against ``reference`` (which never imports the package) and returns
one list of problems per operation; an empty list means the operation passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import gen
import reference as ref

TOL = 1e-9
N_BINS = 5
EPSILON = 0.01          # the package's default adaptive threshold
N_MAX = 15              # the package's default order cap
PLANTED = ("P1", "P2", "P3", "P4")


@dataclass
class Capture:
    """What the traced warm-up round saw inside one operation."""

    mi_terms: int = 0
    sfs: list = field(default_factory=list)     # (dataset, SelectionResult) per run_sfs


class Failed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.error = repr(exc)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _codes_problems(ds, codes, arities, target, n_classes, names) -> list[str]:
    out = []
    if tuple(ds.feature_names) != tuple(names):
        out.append(f"feature names {ds.feature_names} != {names}")
    if tuple(ds.arities) != arities:
        out.append(f"arities {ds.arities} != reference {arities}")
    if ds.codes.shape != codes.shape or not np.array_equal(ds.codes, codes):
        out.append("feature codes differ from the reference binning")
    if ds.n_classes != n_classes or not np.array_equal(ds.target, target):
        out.append("target codes differ from the reference first-appearance codes")
    return out


class Select:
    """Selections on one discretized CSV (``infosel select``)."""

    def __init__(self, name: str, seed: int, criteria, K: int, planted_first: bool,
                 shape: gen.Shape | None = None):
        self.name, self.seed, self.criteria, self.K = name, seed, tuple(criteria), K
        self.planted_first = planted_first
        self.shape = shape or gen.SHAPES[name]
        self.ops_per_round = len(self.criteria)

    def setup(self, prog, csv_path):
        return prog.discretize(prog.load_csv(csv_path, gen.TARGET), n_bins=N_BINS)

    def ops(self, prog, ds):
        # the package attribute is read at call time, so that a tracer sees the call
        return [lambda crit=prog.parse_criterion(c): prog.run_sfs(ds, crit, self.K)
                for c in self.criteria]

    @staticmethod
    def fingerprint(result):
        traces = tuple(None if t is None else (tuple(t.z), tuple(t.increments), t.stop_reason)
                       for t in result.step_traces)
        return (tuple(result.order), tuple(result.scores), tuple(result.step_mi_calls),
                result.total_mi_calls, traces)

    def check(self, table: gen.Table, ds, outputs, captures) -> list[list[str]]:
        codes, arities, target, n_classes = ref.discretize(table.columns, n_bins=N_BINS)
        base = _codes_problems(ds, codes, arities, target, n_classes, table.names[:-1])
        est = ref.Estimator(codes, target)
        return [[res.error] if isinstance(res, Failed)
                else base + self._check_one(est, crit, res, cap, table.names[:-1])
                for crit, res, cap in zip(self.criteria, outputs, captures)]

    def _check_one(self, est, crit: str, res, cap: Capture, names) -> list[str]:
        D, K = len(names), self.K
        out = []
        order = list(res.order)
        if len(order) != K or len(set(order)) != K:
            return [f"{crit}: order {order} is not {K} distinct features"]
        if list(res.names) != [names[j] for j in order]:
            out.append(f"{crit}: names do not follow the order")
        rel = [est.relevance(j) for j in range(D)]
        if not _close(res.scores[0], max(rel)) or not _close(res.scores[0], rel[order[0]]):
            out.append(f"{crit}: step 1 score {res.scores[0]} is not the largest relevance")
        for s in range(1, K):
            S, k = order[:s], order[s]
            if crit.startswith("hocmim"):
                want, problem = self._hocmim_step(est, crit, k, S, res.step_traces[s])
                if problem:
                    out.append(f"{crit} step {s + 1}: {problem}")
            else:
                want = self._score(est, crit, k, S)
            if want is not None and not _close(res.scores[s], want):
                out.append(f"{crit} step {s + 1}: score {res.scores[s]!r} != reference {want!r}")
        # the winner of step 2 is the best of all candidates by the reference
        best = max(self._score(est, crit, j, order[:1]) for j in range(D) if j != order[0])
        if res.scores[1] < best - TOL:
            out.append(f"{crit} step 2: score {res.scores[1]!r} is below the best {best!r}")
        # MI-term accounting: the paper's closed form at fixed order, the
        # n_max bound when adaptive, and always the count the calls add up to
        if res.total_mi_calls != cap.mi_terms or sum(res.step_mi_calls) != res.total_mi_calls:
            out.append(f"{crit}: {res.total_mi_calls} MI terms reported, "
                       f"{cap.mi_terms} counted at the calls")
        if crit.startswith("hocmim-n"):
            closed = ref.hocmim_mi_terms(D, K, int(crit[len("hocmim-n"):]))
            if res.total_mi_calls != closed:
                out.append(f"{crit}: {res.total_mi_calls} MI terms != closed form {closed}")
        elif crit == "hocmim" and res.total_mi_calls > ref.hocmim_mi_bound(D, K, N_MAX):
            out.append(f"{crit}: {res.total_mi_calls} MI terms exceed the n_max bound")
        if self.planted_first and set(res.names[:4]) != set(PLANTED):
            out.append(f"{crit}: first four {res.names[:4]} are not the planted group")
        return out

    @staticmethod
    def _score(est, crit: str, k: int, S) -> float:
        """Reference score; for the high-order search only while |S| <= 1,
        where the representative set is S itself."""
        if crit.startswith("hocmim"):
            if len(S) > 1:
                raise ValueError("the representative set is S only while |S| <= 1")
            return est.relevance(k) - est.redundancy(k, S)
        return {"cmim4": lambda: est.cmim(k, S, 4),
                "jmi4": lambda: est.jmi_high(k, S, 4),
                "relax-mrmr": lambda: est.relax_mrmr(k, S)}[crit]()

    @staticmethod
    def _hocmim_step(est, crit, k, S, trace):
        """Reference score I(Xk;Y) - R(Xk,Z,Y) on the step's trace Z, plus a
        check of every increment and of the order the search stopped at."""
        if trace is None or trace.candidate != k:
            return None, "no redundancy trace for the winner"
        z = list(trace.z)
        if len(trace.increments) != len(z):
            return None, "trace does not hold one increment per Z element"
        if not z or len(set(z)) != len(z) or not set(z) <= set(S):
            return None, f"trace Z {z} is not a subset of the selected set"
        for i, (j, d) in enumerate(zip(z, trace.increments)):
            if not _close(d, est.increment(k, j, z[:i])):
                return None, f"increment of Z element {j} differs from the reference"
        rel = est.relevance(k)
        # the adaptive search stops once 1 - R/I(Xk;Y) < epsilon, else at
        # min(n_max, |S|); a fixed order n stops at min(n, |S|)
        fixed = crit.startswith("hocmim-n")
        limit = min(int(crit[len("hocmim-n"):]) if fixed else N_MAX, len(S))
        running, fired = 0.0, []
        for d in trace.increments:
            running += d
            fired.append(not fixed and rel > 1e-12 and 1.0 - running / rel < EPSILON)
        if any(fired[:-1]):
            return None, "search went on past its threshold"
        if not fired[-1] and len(z) != limit:
            return None, f"search stopped at order {len(z)}, not {limit}"
        reason = ("threshold" if fired[-1] else
                  "s_exhausted" if len(z) == len(S) else "order_limit")
        if reason != trace.stop_reason:
            return None, f"stop reason {trace.stop_reason!r}, expected {reason!r}"
        return rel - est.redundancy(k, z), None


class Holdout:
    """The repeated-holdout KNN protocol (``infosel benchmark``)."""

    ops_per_round = 1
    criteria = ("mim", "hocmim")
    train_fraction = 0.5
    knn_k = 3

    def __init__(self, name: str, seed: int, n_splits: int = 5, k_max: int = 6,
                 shape: gen.Shape | None = None):
        self.name, self.seed, self.n_splits, self.k_max = name, seed, n_splits, k_max
        self.shape = shape or gen.SHAPES[name]

    def setup(self, prog, csv_path):
        return prog.load_csv(csv_path, gen.TARGET)      # binning is refit per split

    def ops(self, prog, table):
        spec = prog.SplitSpec(train_fraction=self.train_fraction, seed=self.seed,
                              n_repeats=self.n_splits)
        crits = [prog.parse_criterion(c) for c in self.criteria]
        return [lambda: prog.benchmark(table, crits, spec, self.k_max,
                                       n_bins=N_BINS, knn_k=self.knn_k)]

    @staticmethod
    def fingerprint(report):
        return tuple(report.criteria), report.errors.shape, report.errors.tobytes()

    def check(self, table: gen.Table, state, outputs, captures) -> list[list[str]]:
        return [[rep.error] if isinstance(rep, Failed) else self._check_one(table, rep, cap)
                for rep, cap in zip(outputs, captures)]

    def _check_one(self, table, report, cap: Capture) -> list[str]:
        n_crit, R, k_max = len(self.criteria), self.n_splits, self.k_max
        errors = np.asarray(report.errors)
        if errors.shape != (n_crit, R, k_max):
            return [f"error array shape {errors.shape} != {(n_crit, R, k_max)}"]
        if len(cap.sfs) != n_crit * R:
            return [f"{len(cap.sfs)} selections ran, expected {n_crit * R}"]
        out = []
        splits = ref.splits(table.n_rows, self.train_fraction, self.seed, R)
        for r, (train, test) in enumerate(splits):
            codes, _, target, n_classes = ref.discretize(table.columns, train, N_BINS)
            est = ref.Estimator(codes[train], target[train])
            for c, crit in enumerate(self.criteria):
                train_ds, res = cap.sfs[c * R + r]
                if not np.array_equal(train_ds.codes, codes[train]):
                    out.append(f"split {r}: training codes differ from the reference binning")
                order = list(res.order)
                if crit == "mim":
                    rel = [est.relevance(j) for j in range(codes.shape[1])]
                    for i, j in enumerate(order):
                        rest = [rel[m] for m in range(len(rel)) if m not in order[:i]]
                        if rel[j] < max(rest) - TOL:
                            out.append(f"split {r}: mim pick {i + 1} is not the most relevant")
                for size in range(1, k_max + 1):
                    cols = order[:size]
                    want = ref.knn_error(codes[train][:, cols], target[train],
                                         codes[test][:, cols], target[test],
                                         self.knn_k, n_classes)
                    if errors[c, r, size - 1] != want:
                        out.append(f"{crit} split {r} k={size}: error "
                                   f"{errors[c, r, size - 1]!r} != reference {want!r}")
        mim, hocmim = errors.mean(axis=1)[:, 3]
        if not hocmim < mim:
            out.append(f"mean error at k=4: hocmim {hocmim} is not below mim {mim}")
        return out


def build(name: str, seed: int, tiny: bool = False):
    """The workload ``name``; ``tiny`` gives the self-test sizes."""
    if name == "select-large":
        return Select(name, seed, ("hocmim",), K=8 if not tiny else 6, planted_first=True,
                      shape=gen.Shape(4_000, 4) if tiny else None)
    if name == "select-small":
        return Select(name, seed, ("hocmim-n3", "hocmim", "cmim4", "jmi4", "relax-mrmr"),
                      K=10 if not tiny else 6, planted_first=False,
                      shape=gen.Shape(400, 8) if tiny else None)
    if name == "knn-holdout":
        if tiny:
            return Holdout(name, seed, n_splits=2, k_max=5, shape=gen.Shape(800, 4))
        return Holdout(name, seed)
    raise KeyError(name)


NAMES = ("select-large", "select-small", "knn-holdout")
