#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs every workload end to end (untraced and traced), then hands each check
a deliberately wrong output -- a swapped ranking, a score or an MI-term count
that is off, a wrong code, an error count off by one -- and requires the check
to report it.  Finally it runs the benchmark in a directory that holds only
``BENCHMARK.json`` and ``bench/`` and requires it to fail without a result.
Exits 0 only when every case behaves.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import subprocess
import sys
import tempfile

import gen
import run
import workloads
from workloads import Failed

SEED = 11
_failures: list[str] = []


def expect(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        _failures.append(label)


def end_to_end(name: str) -> None:
    for trace in (False, True):
        rec = run.run(name, SEED, seconds=0, trace=trace, tiny=True)
        res = rec["result"]
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 2,
               f"{name} trace={int(trace)} runs clean {rec['problems']}")


def prepared(name: str):
    prog = run.load_program()
    wl = workloads.build(name, SEED, tiny=True)
    state = wl.setup(prog, run.ensure_inputs(wl))
    outputs, captures = run.warm_up(prog, wl.ops(prog, state))
    table = gen.make_table(wl.name, wl.seed, wl.shape)
    return wl, table, state, outputs, captures


def caught(wl, table, state, outputs, captures, i: int = 0) -> bool:
    return bool(wl.check(table, state, outputs, captures)[i])


def selection_cases(name: str) -> None:
    wl, table, ds, outputs, captures = prepared(name)
    problems = wl.check(table, ds, outputs, captures)
    expect(not any(problems), f"{name} unmodified outputs pass {problems}")

    def mutated(i, fn):
        outs = copy.deepcopy(outputs)
        fn(outs[i])
        return caught(wl, table, ds, outs, captures, i)

    def swap(res):
        res.order[1], res.order[2] = res.order[2], res.order[1]
        res.names[1], res.names[2] = res.names[2], res.names[1]

    def nudge_score(res):
        res.scores[-1] += 1e-6

    def extra_term(res):
        res.total_mi_calls += 1
        res.step_mi_calls[-1] += 1

    for i, crit in enumerate(wl.criteria):
        expect(mutated(i, swap), f"{name} {crit}: swapped ranking is caught")
        expect(mutated(i, nudge_score), f"{name} {crit}: score off by 1e-6 is caught")
        expect(mutated(i, extra_term), f"{name} {crit}: one extra MI term is caught")
        if crit.startswith("hocmim"):
            def other_stop(res):
                t = res.step_traces[-1]
                t.stop_reason = "order_limit" if t.stop_reason != "order_limit" else "threshold"
            expect(mutated(i, other_stop), f"{name} {crit}: wrong stop reason is caught")
    codes = ds.codes.copy()
    codes[0, 0] = (codes[0, 0] + 1) % ds.arities[0]
    bad_ds = dataclasses.replace(ds, codes=codes)
    expect(caught(wl, table, bad_ds, outputs, captures), f"{name}: one wrong code is caught")
    raised = [Failed(RuntimeError("boom"))] + outputs[1:]
    expect(caught(wl, table, ds, raised, captures), f"{name}: a raising operation is caught")


def holdout_cases(name: str) -> None:
    wl, table, state, outputs, captures = prepared(name)
    problems = wl.check(table, state, outputs, captures)
    expect(not any(problems), f"{name} unmodified outputs pass {problems}")
    n_test = table.n_rows - int(wl.train_fraction * table.n_rows)

    off_by_one = copy.deepcopy(outputs)
    off_by_one[0].errors[1, 0, 2] += 1 / n_test
    expect(caught(wl, table, state, off_by_one, captures),
           f"{name}: error count off by one is caught")

    swapped_rows = copy.deepcopy(outputs)
    swapped_rows[0].errors = swapped_rows[0].errors[::-1].copy()
    expect(caught(wl, table, state, swapped_rows, captures),
           f"{name}: criteria swapped in the error array are caught")

    swapped_order = copy.deepcopy(captures)
    res = swapped_order[0].sfs[0][1]
    res.order[0], res.order[-1] = res.order[-1], res.order[0]
    expect(caught(wl, table, state, outputs, swapped_order),
           f"{name}: swapped mim ranking is caught")


def no_program_fails() -> None:
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        shutil.copy(run.REPO / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, f"{tmp}/bench",
                        ignore=shutil.ignore_patterns("_generated", "_results", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "select-small",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package the benchmark fails and prints no result")


def main() -> int:
    for name in workloads.NAMES:
        end_to_end(name)
    selection_cases("select-large")
    selection_cases("select-small")
    holdout_cases("knn-holdout")
    no_program_fails()
    print(f"\n{len(_failures)} failure(s)")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
