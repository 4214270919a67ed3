"""Seeded synthetic inputs for the benchmark workloads.

Every table has the same make-up, only its size differs per workload:

* ``P1..P4`` -- a planted parity group: P1 is a fair bit, P2..P4 are
  Bernoulli(0.15), and the target is their parity.  Only P1 carries marginal
  relevance, so only conditional scoring recovers the whole group.
* ``C1..C4`` -- noisy copies of P1..P4 with 5% of bits flipped; their
  redundancy with the selected parity bits makes the adaptive high-order
  search stop on its threshold.
* ``N01..`` -- noise columns, alternately categorical (string labels over 2
  to 4 levels) and Gaussian.
* ``Y`` -- ``P1^P2^P3^P4`` flipped on 2% of rows, written as the string labels
  ``neg`` / ``pos``.  With an exact parity every candidate left after the
  group has a conditional MI of exactly zero, and which one wins is decided
  by rounding error, which changes with the row order; the flips give those
  candidates real, distinct scores.

Every bit is embedded as the continuous column ``2*bit + U(0,1)``, so
equal-width binning into 5 bins keeps the bit in the occupied bins.
Continuous values are rounded to 6 decimals, so the CSV round trip through
``repr`` and ``float`` is exact and a reference can work on the in-memory
arrays.

The content of each table is drawn once from a fixed stream; the seed picks
the order of its rows.  Independent draws make the adaptive search do
different work (2.1 to 3.7 s over six draws of the 50,000-row table, 1,681
to 2,613 joint encodings over three of them), which would swamp a regression
bound, while a row order changes the file, the first-appearance codes and
the holdout splits but not the work.

Run as a script to write one workload's CSV::

    python3 bench/gen.py --workload select-large --seed 1 --out inputs.csv
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

P_BIAS = 0.15
P_FLIP = 0.05
P_LABEL = 0.02
TARGET = "Y"
CAT_LEVELS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Shape:
    n_rows: int
    n_noise: int            # categorical and Gaussian columns, alternating


#: D = 8 parity/copy columns + n_noise
SHAPES = {
    "select-large": Shape(50_000, 22),
    "select-small": Shape(2_000, 32),
    "knn-holdout": Shape(2_000, 4),
}
#: stream tag per workload, so that the three tables are independent
_STREAM = {"select-large": 1, "select-small": 2, "knn-holdout": 3}
#: the tables' content is drawn once; ``--seed`` picks the order of the rows
CONTENT_SEED = 20220708


@dataclass(frozen=True)
class Table:
    """Generated columns in file order; the target is the last column."""

    names: tuple[str, ...]
    columns: tuple[object, ...]       # float np.ndarray or list[str]

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])


def make_table(workload: str, seed: int, shape: Shape | None = None) -> Table:
    """The workload's table with its rows in the order ``seed`` picks."""
    shape = shape or SHAPES[workload]
    rng = np.random.default_rng([CONTENT_SEED, _STREAM[workload]])
    n = shape.n_rows
    bits = np.column_stack([rng.integers(0, 2, n)]
                           + [(rng.random(n) < P_BIAS).astype(np.int64) for _ in range(3)])
    y = bits[:, 0] ^ bits[:, 1] ^ bits[:, 2] ^ bits[:, 3] ^ (rng.random(n) < P_LABEL)
    copies = bits ^ (rng.random(bits.shape) < P_FLIP)

    def embed(b):
        return np.round(2.0 * b + rng.random(n), 6)

    names = [f"P{i + 1}" for i in range(4)] + [f"C{i + 1}" for i in range(4)]
    cols: list[object] = [embed(bits[:, i]) for i in range(4)]
    cols += [embed(copies[:, i]) for i in range(4)]
    for j in range(shape.n_noise):
        names.append(f"N{j + 1:02d}")
        if j % 2 == 0:
            levels = np.array(CAT_LEVELS[:2 + j // 2 % 3])
            cols.append(levels[rng.integers(0, len(levels), n)])
        else:
            cols.append(np.round(rng.standard_normal(n), 6))
    names.append(TARGET)
    cols.append(np.where(y == 1, "pos", "neg"))

    perm = np.random.default_rng([seed, _STREAM[workload]]).permutation(n)
    cols = [c[perm] if c.dtype.kind == "f" else c[perm].tolist() for c in cols]
    return Table(tuple(names), tuple(cols))


def write_csv(table: Table, path: str) -> None:
    """Write atomically: a half-written file never takes the final name."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in table.columns]
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.names) + "\n")
        for row in zip(*cells):
            fh.write(",".join(map(str, row)) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SHAPES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rows", type=int, help="override the row count (self-test sizes)")
    ap.add_argument("--noise", type=int, help="override the noise column count")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    base = SHAPES[args.workload]
    shape = Shape(args.rows or base.n_rows,
                  base.n_noise if args.noise is None else args.noise)
    write_csv(make_table(args.workload, args.seed, shape), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
