"""Parallel search engines: SPA*, HDA*, parallel window IDA*, dovetailing."""

from parsearch.engine.core import (
    AdversarialPolicy,
    EagerWorkerPolicy,
    EngineConfig,
    Incumbent,
    SchedulePolicy,
)
from parsearch.engine.dovetail import DEFAULT_WEIGHTS, dovetail
from parsearch.engine.hda import HDAStar, hdastar
from parsearch.engine.spa import SPAStar, spastar
from parsearch.engine.window import ParallelWindow, parallel_window

__all__ = [
    "AdversarialPolicy",
    "EagerWorkerPolicy",
    "EngineConfig",
    "Incumbent",
    "SchedulePolicy",
    "DEFAULT_WEIGHTS",
    "dovetail",
    "HDAStar",
    "hdastar",
    "SPAStar",
    "spastar",
    "ParallelWindow",
    "parallel_window",
]
