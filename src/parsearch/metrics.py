"""Parallel-overhead measures computed from run records.

Formulas: search overhead SO = expanded_parallel / expanded_serial - 1;
communication overhead CO = triplets sent to a different worker / total
generated (None if none were); load balance LB = max per-worker expansions
/ mean per-worker expansions; speedup = serial wall time / parallel wall
time. SO may be negative (a parallel run can expand fewer cost-tied nodes).

`bench_row` gathers these measures into one `parsearch bench` row, keyed by
CSV_COLUMNS; `rows_to_csv` writes rows of named cells, the bench table and
the `iasim` table alike.
"""

from __future__ import annotations

import csv
from contextlib import suppress
from dataclasses import dataclass
from io import StringIO

from parsearch.common import EPS, INF
from parsearch.serial import Solution

CSV_COLUMNS = [
    "instance", "algo", "strategy", "p", "cost", "expanded",
    "SO", "CO", "LB", "efficiency_fraction", "speedup", "wall_time",
]


@dataclass
class OverheadReport:
    search_overhead: float
    communication_overhead: float | None
    load_balance: float
    speedup: float


def overheads(serial: Solution, run: Solution) -> OverheadReport:
    """Compare a parallel run against its serial baseline on one instance."""
    serial_stats = serial.stats
    stats = run.stats
    if serial_stats.expanded == 0:
        raise ValueError("serial baseline expanded no nodes")
    per_worker = [w.expanded for w in (run.per_worker or [stats])]
    mean = sum(per_worker) / len(per_worker)
    if mean == 0:
        raise ValueError("load balance undefined: no worker expanded anything")
    so = stats.expanded / serial_stats.expanded - 1.0
    co = stats.sent / stats.generated if stats.generated else None
    lb = max(per_worker) / mean
    speedup = (
        serial_stats.wall_time / stats.wall_time if stats.wall_time > 0 else 0.0
    )
    return OverheadReport(
        search_overhead=so,
        communication_overhead=co,
        load_balance=lb,
        speedup=speedup,
    )


def efficiency_fraction(run: Solution, c_star: float) -> float:
    """Fraction of expanded nodes with f below the optimal cost.

    Raises ValueError when c_star is infinite (no solution exists), when
    nothing was expanded, or when the run did not record the f of every
    expansion (the parallel window engine records none).
    """
    if c_star == INF:
        raise ValueError("efficiency fraction undefined: no optimal cost")
    stats = run.stats
    if stats.expanded == 0:
        raise ValueError("efficiency fraction undefined: nothing expanded")
    if len(stats.expanded_f) != stats.expanded:
        raise ValueError(
            "efficiency fraction undefined: per-expansion f not recorded"
        )
    below = sum(1 for f in stats.expanded_f if f < c_star - EPS)
    return below / stats.expanded


def bench_row(
    instance: str, algo: str, strategy: str, p: int, run: Solution, baseline: Solution
) -> dict:
    """One bench row keyed by CSV_COLUMNS. SO, CO, LB and speedup compare
    `run` against `baseline`, the serial run of the same instance, and are
    empty on the baseline's own row; efficiency_fraction is measured against
    baseline.cost. A measure that refuses the run with ValueError leaves its
    cells empty (None)."""
    row = dict.fromkeys(CSV_COLUMNS)
    row.update(
        instance=instance, algo=algo, strategy=strategy, p=p, cost=run.cost,
        expanded=run.stats.expanded, wall_time=run.stats.wall_time,
    )
    if run is not baseline:
        with suppress(ValueError):
            report = overheads(baseline, run)
            row.update(
                SO=report.search_overhead, CO=report.communication_overhead,
                LB=report.load_balance, speedup=report.speedup,
            )
    with suppress(ValueError):
        row["efficiency_fraction"] = efficiency_fraction(run, baseline.cost)
    return row


def rows_to_csv(columns, rows, comments=()) -> str:
    """CSV text: a `# ` line per comment, the header of `columns`, then one
    line per row, a dict keyed by `columns`. None is an empty cell."""
    out = StringIO()
    out.writelines(f"# {comment}\n" for comment in comments)
    writer = csv.DictWriter(out, columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()
