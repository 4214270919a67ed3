"""Span tracing around the package's public calls, installed from outside.

``Tracer`` replaces each traced function in every ``infosel`` module that
binds it (and each traced method on its class) with a wrapper that records a
span: name, start, end and the span that caused it.  Self time is a span's
duration minus the time its child spans cover, accumulated as spans close.
Estimator calls are too many to keep one by one (hundreds of thousands per
selection), so they are kept as per-name totals; every other span is kept in
memory and written out as JSON at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: span name -> (module, attribute) of the traced call
TRACED = {
    "data.load_csv": ("data", "load_csv"),
    "data.fit_binning": ("data", "fit_binning"),
    "data.apply_binning": ("data", "apply_binning"),
    "data.discretize": ("data", "discretize"),
    "estimators.joint_counts": ("estimators", "EstimatorContext.joint_counts"),
    "estimators.entropy": ("estimators", "EstimatorContext.entropy"),
    "estimators.mutual_information": ("estimators", "EstimatorContext.mutual_information"),
    "estimators.conditional_mutual_information":
        ("estimators", "EstimatorContext.conditional_mutual_information"),
    "hocmim.hocmim_score": ("hocmim", "hocmim_score"),
    "hocmim.greedy_representative_set": ("hocmim", "greedy_representative_set"),
    "criteria.score": ("criteria", "Criterion.score"),
    "selection.run_sfs": ("selection", "run_sfs"),
    "evaluate.error_curve": ("evaluate", "error_curve"),
    "evaluate.benchmark": ("evaluate", "benchmark"),
}
LAYERS = ("data", "estimators", "hocmim", "criteria", "selection", "evaluate")
ROOT = "bench.round"


def _count_rows(tr, args, kwargs, out):
    ctx, cols = args[0], args[1]
    tr.counts["rows_scanned"] += ctx.n_rows * len(set(cols))


def _count_hocmim(tr, args, kwargs, out):
    trace = out[1]
    tr.counts["hocmim.order_sum"] += trace.order
    tr.counts[f"hocmim.stop_{trace.stop_reason}"] += 1


def _count_sfs(tr, args, kwargs, out):
    tr.counts["selection.steps"] += len(out.order)
    if tr.capture is not None:
        tr.capture.append((args[0], out))


def _count_queries(tr, args, kwargs, out):
    bound = inspect.signature(tr.originals["evaluate.error_curve"]).bind(*args, **kwargs)
    k_max = bound.arguments["k_max"]
    tr.counts["knn_queries"] += k_max * sum(len(test) for _, test in bound.arguments["splits"])


_AFTER = {
    "estimators.joint_counts": _count_rows,
    "estimators.mutual_information": lambda tr, a, kw, o: tr.counts.update(mi_terms=1),
    "estimators.conditional_mutual_information": lambda tr, a, kw, o: tr.counts.update(mi_terms=2),
    "hocmim.hocmim_score": _count_hocmim,
    "selection.run_sfs": _count_sfs,
    "evaluate.error_curve": _count_queries,
}


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit.

    ``capture`` (a list) additionally collects (dataset, result) for every
    selection run, for the checks.
    """

    def __init__(self, package, capture: list | None = None):
        self.package = package
        self.capture = capture
        self.counts: Counter = Counter()
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.spans: list[tuple] = []
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")]
        for name, (mod, path) in TRACED.items():
            try:
                owner, attr = _resolve(sys.modules[f"{self.package.__name__}.{mod}"], path)
                orig = owner.__dict__[attr]
            except (KeyError, AttributeError):
                self.missing.append(name)       # reads as zero rather than stopping the run
                continue
            self.originals[name] = orig
            wrapper = self._wrap(name, orig, _AFTER.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
            else:
                for m in modules:
                    if m.__dict__.get(attr) is orig:
                        self._patch(m, attr, orig, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, orig, wrapper):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self, args, kwargs, out)
            return out
        return wrapper

    # -- spans ----------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            if not name.startswith("estimators."):
                self.spans.append((sid, parent, name, t0, t1))

    # -- read-out -------------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total(self, *names) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_time(self, *names) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def layer_self(self, layer: str) -> float:
        return self.self_time(*[n for n in list(self.stats) if n.split(".")[0] == layer])

    def to_dict(self) -> dict:
        return {
            "stats": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(self.stats.items())},
            "counts": dict(self.counts),
            "missing": list(self.missing),
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                      for i, p, n, a, b in self.spans],
        }

    def absorb(self, other: "Tracer") -> None:
        """Add another tracer's totals and counts to this one's."""
        for name, (c, t, s) in other.stats.items():
            st = self.stats[name]
            st[0] += c
            st[1] += t
            st[2] += s
        self.counts.update(other.counts)
