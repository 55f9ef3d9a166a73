"""Parallel-overhead measures computed from run records.

Formulas: search overhead SO = expanded_parallel / expanded_serial - 1;
communication overhead CO = triplets sent to a different worker / total
generated; load balance LB = max per-worker expansions / mean per-worker
expansions; speedup = serial wall time / parallel wall time. SO may be
negative (a parallel run can expand fewer cost-tied nodes than serial).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from io import StringIO

from parsearch.common import EPS
from parsearch.serial import Solution

CSV_COLUMNS = [
    "instance",
    "algo",
    "strategy",
    "p",
    "cost",
    "expanded",
    "SO",
    "CO",
    "LB",
    "efficiency_fraction",
    "speedup",
    "wall_time",
]


@dataclass
class OverheadReport:
    search_overhead: float
    communication_overhead: float
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
    co = stats.sent / stats.generated if stats.generated else 0.0
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

    Raises ValueError when nothing was expanded or the run did not record
    the f of every expansion (the parallel window engine records none).
    """
    stats = run.stats
    if stats.expanded == 0:
        raise ValueError("efficiency fraction undefined: nothing expanded")
    if len(stats.expanded_f) != stats.expanded:
        raise ValueError(
            "efficiency fraction undefined: per-expansion f not recorded"
        )
    below = sum(1 for f in stats.expanded_f if f < c_star - EPS)
    return below / stats.expanded


def csv_row(
    instance: str,
    algo: str,
    strategy: str,
    p: int,
    run: Solution,
    report: OverheadReport | None,
    eff: float | None,
) -> list:
    return [
        instance,
        algo,
        strategy,
        p,
        repr(run.cost),
        run.stats.expanded,
        repr(report.search_overhead) if report else "",
        repr(report.communication_overhead) if report else "",
        repr(report.load_balance) if report else "",
        repr(eff) if eff is not None else "",
        repr(report.speedup) if report else "",
        repr(run.stats.wall_time),
    ]


def rows_to_csv(rows: list[list]) -> str:
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return out.getvalue()
