#!/usr/bin/env python3
"""Seeded, checked benchmark of the infosel selector.

Run from the repository root::

    python3 bench/run.py --workload select-large --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop: one caller, one operation at
a time, single-threaded numpy.  It generates the workload's CSV from the seed
(once per seed, in a child process), times set-up ``SETUP_REPEATS`` times,
runs one traced warm-up round whose outputs are checked against the
independent references in ``reference.py``, then repeats untraced rounds for
``--seconds`` and checks that every round reproduces the warm-up outputs
exactly.  With ``--trace 1`` half the window is untraced and half traced, and
the per-layer metrics come from the traced round with the median time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record goes to
``bench/_results/BENCH_<tag>.json`` (and the spans to ``TRACE_<tag>.json``).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # must precede the first numpy import

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import gen
import workloads
from tracer import LAYERS, ROOT, Tracer
from workloads import Capture, Failed

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
GENERATED = HERE / "_generated"
RESULTS = HERE / "_results"
#: set-up runs at least SETUP_REPEATS times, and more while it has taken
#: under SETUP_SECONDS, so that a set-up of a few milliseconds gets a steady median
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 200


def load_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = REPO / "src"
    sys.path.insert(0, str(src))
    try:
        import infosel
    except ImportError as e:
        raise SystemExit(f"bench: cannot import infosel from {src}: {e}")
    if Path(infosel.__file__).resolve().parent != src / "infosel":
        raise SystemExit(f"bench: infosel was imported from {infosel.__file__}, not {src}")
    return infosel


def ensure_inputs(wl) -> Path:
    """The workload's CSV, generated in a child process so that generation
    does not count towards this process's peak resident set."""
    digest = hashlib.sha1((HERE / "gen.py").read_bytes()).hexdigest()[:8]
    path = GENERATED / (f"{wl.name}-{wl.shape.n_rows}x{wl.shape.n_noise}"
                        f"-seed{wl.seed}-{digest}.csv")
    if not path.exists():
        GENERATED.mkdir(parents=True, exist_ok=True)
        for old in GENERATED.glob(f"{wl.name}-*.csv"):     # keep one input per workload
            old.unlink()
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", wl.name,
                        "--seed", str(wl.seed), "--rows", str(wl.shape.n_rows),
                        "--noise", str(wl.shape.n_noise), "--out", str(path)],
                       check=True, timeout=300)
    return path


def attempt(op):
    try:
        return op()
    except Exception as e:          # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return Failed(e)


def run_round(ops):
    t0 = perf_counter()
    outputs = [attempt(op) for op in ops]
    return perf_counter() - t0, outputs


def warm_up(prog, ops):
    """One traced round that records what each operation asked of the estimators."""
    sfs: list = []
    outputs, captures = [], []
    with Tracer(prog, capture=sfs) as tr:
        for op in ops:
            mi, n_sfs = tr.counts["mi_terms"], len(sfs)
            outputs.append(attempt(op))
            captures.append(Capture(tr.counts["mi_terms"] - mi, sfs[n_sfs:]))
    return outputs, captures


def timed_rounds(prog, ops, seconds: float, traced: bool):
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        gc.collect()
        if traced:
            with Tracer(prog) as tr:
                _, outputs = tr.call(ROOT, run_round, ops)
            rounds.append((tr.total(ROOT), outputs, tr))
        else:
            dt, outputs = run_round(ops)
            rounds.append((dt, outputs, None))
    return rounds


def median_round(rounds):
    """The round with the median time (the lower one of an even count)."""
    ranked = sorted(rounds, key=lambda r: r[0])
    return ranked[(len(ranked) - 1) // 2]


def layer_metrics(setup_tr: Tracer, round_tr: Tracer, untraced_s: float) -> dict:
    """Per-layer numbers of one traced set-up plus the median traced round."""
    traced_s = round_tr.total(ROOT)
    self_sum = sum(round_tr.layer_self(layer) for layer in LAYERS)
    t = Tracer(None)
    t.absorb(setup_tr)
    t.absorb(round_tr)
    c = t.counts
    jc, ent = t.calls("estimators.joint_counts"), t.calls("estimators.entropy")
    hs = t.calls("hocmim.hocmim_score")
    binning = ("data.fit_binning", "data.apply_binning", "data.discretize")
    mi = ("estimators.mutual_information", "estimators.conditional_mutual_information")
    return {
        "data.load_csv_s": t.total("data.load_csv"),
        "data.binning_s": t.self_time(*binning),
        "data.binning_calls": t.calls(*binning),
        "data.self_s": t.layer_self("data"),
        "estimators.joint_counts_calls": jc,
        "estimators.joint_counts_s": t.total("estimators.joint_counts"),
        "estimators.rows_scanned": c["rows_scanned"],
        "estimators.entropy_calls": ent,
        "estimators.entropy_self_s": t.self_time("estimators.entropy"),
        "estimators.entropy_hit_ratio": (ent - jc) / ent if ent else 0.0,
        "estimators.mi_self_s": t.self_time(*mi),
        "estimators.mi_terms": c["mi_terms"],
        "estimators.self_s": t.layer_self("estimators"),
        "hocmim.score_calls": hs,
        "hocmim.score_s": t.total("hocmim.hocmim_score"),
        "hocmim.self_s": t.layer_self("hocmim"),
        "hocmim.mean_order": c["hocmim.order_sum"] / hs if hs else 0.0,
        "hocmim.stop_threshold": c["hocmim.stop_threshold"],
        "hocmim.stop_order_limit": c["hocmim.stop_order_limit"],
        "hocmim.stop_s_exhausted": c["hocmim.stop_s_exhausted"],
        "criteria.score_calls": t.calls("criteria.score"),
        "criteria.score_s": t.total("criteria.score"),
        "criteria.self_s": t.layer_self("criteria"),
        "selection.run_sfs_s": t.total("selection.run_sfs"),
        "selection.self_s": t.layer_self("selection"),
        "selection.steps": c["selection.steps"],
        "evaluate.error_curve_s": t.total("evaluate.error_curve"),
        "evaluate.knn_s": t.self_time("evaluate.error_curve"),
        "evaluate.knn_queries": c["knn_queries"],
        "evaluate.self_s": t.layer_self("evaluate"),
        "trace.run_s_untraced": untraced_s,
        "trace.run_s_traced": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.self_sum_s": self_sum,
    }


def metric_units(section: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the full record (``result`` is the JSON line)."""
    t_start = perf_counter()
    prog = load_program()
    wl = workloads.build(name, seed, tiny)
    csv_path = ensure_inputs(wl)

    phases = {"prepare": perf_counter() - t_start}
    setup_s, state = [], None
    while len(setup_s) < SETUP_REPEATS or (sum(setup_s) < SETUP_SECONDS
                                           and len(setup_s) < SETUP_MAX_REPEATS):
        state = None
        gc.collect()
        t0 = perf_counter()
        state = wl.setup(prog, csv_path)
        setup_s.append(perf_counter() - t0)
    setup_tr = None
    if trace:
        state = None
        gc.collect()
        with Tracer(prog) as setup_tr:
            state = setup_tr.call(ROOT, wl.setup, prog, csv_path)
    phases["setup"] = perf_counter() - t_start - sum(phases.values())

    ops = wl.ops(prog, state)
    warm, captures = warm_up(prog, ops)
    phases["warm_up"] = perf_counter() - t_start - sum(phases.values())
    untraced = timed_rounds(prog, ops, seconds / 2 if trace else seconds, traced=False)
    traced = timed_rounds(prog, ops, seconds / 2, traced=True) if trace else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases["measure"] = perf_counter() - t_start - sum(phases.values())

    # checks run after the measurement, so that they add nothing to it
    table = gen.make_table(wl.name, wl.seed, wl.shape)
    problems = wl.check(table, state, warm, captures)
    phases["check"] = perf_counter() - t_start - sum(phases.values())
    want = [None if isinstance(o, Failed) else wl.fingerprint(o) for o in warm]
    failed = sum(bool(p) for p in problems)
    for _, outputs, _ in untraced + traced:
        for i, out in enumerate(outputs):
            failed += bool(problems[i] or isinstance(out, Failed)
                           or wl.fingerprint(out) != want[i])
    attempted = (1 + len(untraced) + len(traced)) * wl.ops_per_round
    notes = sorted({p for ps in problems for p in ps})

    run_s = statistics.median(r[0] for r in untraced)
    if trace:
        _, _, round_tr = median_round(traced)
        values = layer_metrics(setup_tr, round_tr, run_s)
        gap = abs(values["trace.self_sum_s"] - values["trace.run_s_traced"])
        if gap > abs(values["trace.overhead_s"]):
            notes.append(f"layer self times miss the traced run_s by {gap:.6f}s")
    else:
        values = {"setup_s": statistics.median(setup_s), "run_s": run_s,
                  "peak_rss_mb": peak_rss_mb}
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    result = {"correct": failed == 0 and not notes, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "result": result, "problems": notes, "phases_s": phases,
        "setup_s": setup_s, "run_s": [r[0] for r in untraced],
        "traced_run_s": [r[0] for r in traced], "peak_rss_mb": peak_rss_mb,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if trace:
        record["spans"] = {"setup": setup_tr.to_dict(), "round": round_tr.to_dict()}
    return record


def write_record(record: dict) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        (RESULTS / f"TRACE_{tag}.json").write_text(json.dumps(spans))
    (RESULTS / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=2))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="seeded, checked infosel benchmark")
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report the per-layer metrics of a traced run")
    args = ap.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for p in record["problems"]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    write_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
