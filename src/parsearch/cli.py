"""Command-line harness: solve single instances, run sweeps, simulate costs.

Subcommands:
  solve   one instance, one algorithm; prints stats, writes a JSON record
  bench   sweep a suite file over algorithms/strategies/worker counts (CSV)
  iasim   iterative-allocation cost simulation (CSV)

Exit codes: 0 solved, 1 unsolvable, 2 resource limit exceeded, 3 usage or
input error, 4 internal error (a search broke its own invariants). Engines
run on the deterministic interleaved substrate, so every counter in the
output is reproducible for a fixed seed.
PARSEARCH_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
from pathlib import Path

from parsearch.allocation import CostModel, ratio_bounds, sweep
from parsearch.common import ConfigError, NodeLimitExceeded, unique_keys
from parsearch.domains import (
    GridProblem,
    LatticeProblem,
    TilePuzzle,
    parse_graph,
    parse_grid,
    random_grid,
    random_solvable,
)
from parsearch.domains.tiles import random_scramble
from parsearch.engine import EngineConfig, dovetail, hdastar, parallel_window, spastar
from parsearch.engine.core import TERMINATIONS
from parsearch.engine.dovetail import DEFAULT_WEIGHTS
from parsearch.hashing import STRATEGY_TOKENS, parse_strategy_config
from parsearch.metrics import CSV_COLUMNS, bench_row, rows_to_csv
from parsearch.serial import DEFAULT_NODE_LIMIT, astar, idastar, uniform_cost_oracle, wastar

SCHEMA_VERSION = 1

IASIM_COLUMNS = ("W_plus", "b", "model", "total_cost", "optimal_cost", "iterations", "ratio")


def _listed(names) -> str:
    """Column names as one indented, wrapped sentence for the epilog."""
    return textwrap.indent(textwrap.fill(", ".join(names) + ".", 70), "  ")


RECORD_FIELDS = f"""\
Run record JSON fields (schema 1):
  schema, algorithm, domain, instance, strategy, workers, batch_size,
  termination, execution, seed, cost (Infinity when unsolvable), solved,
  path_length, wall_time, expanded, generated, reopened, duplicates,
  max_open, sent, received, per_worker (list of counter objects),
  detection_rounds, detection_waves, winner_weight (dovetail only).
  execution is "interleaved" for spastar, hdastar, window and dovetail
  (dovetail: workers = number of weights) and "serial" otherwise.

Bench CSV columns:
{_listed(CSV_COLUMNS)}
  SO/CO/LB/speedup compare against the serial A* baseline row of the same
  instance. A measure undefined for a run leaves its cells empty and the
  sweep goes on: SO/CO/LB/speedup on the baseline row and when no worker
  expanded anything; efficiency_fraction when nothing was expanded, the
  instance is unsolvable, or the run records no per-expansion f (window
  runs). Counters are deterministic for a fixed seed; wall-time columns
  are not.

iasim CSV columns:
{_listed(IASIM_COLUMNS)}
"""

# Multi-worker engines: engine(problem, EngineConfig) -> Solution.
PARALLEL_ENGINES = {
    "spastar": spastar,
    "hdastar": hdastar,
    "window": parallel_window,
}
ALGOS = ("astar", "idastar", "wastar", "ucs", *PARALLEL_ENGINES, "dovetail")

# solve flag (argparse dest) -> the algorithms that read it; any other
# algorithm refuses the flag. The HDA*-only flags come first, so they are the
# ones named when several unread flags are given.
_FLAG_READERS = {
    "hash_config": ("hdastar",),
    "hash": ("hdastar",),
    "batch": ("hdastar",),
    "termination": ("hdastar",),
    "workers": tuple(PARALLEL_ENGINES),
    "weight": ("wastar",),
    "weights": ("dovetail",),
}


def default_seed() -> int:
    env = os.environ.get("PARSEARCH_SEED")
    if not env:
        return EngineConfig.seed
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"PARSEARCH_SEED must be an integer, got {env!r}") from None


def _parse_kv(text: str) -> dict[str, str]:
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return unique_keys(pairs, "generator key")


def _refuse_unread(unread, what: str) -> None:
    """Raise ConfigError naming the keys of `unread`, which no reader took."""
    if unread:
        raise ConfigError(f"{what} {', '.join(map(repr, sorted(unread)))}")


def _domain_spec(gen: dict[str, str], fields: dict) -> dict[str, str]:
    """The generator keys and the given fields in one dict; a key in both is refused."""
    given = {key: value for key, value in fields.items() if value is not None}
    _refuse_unread(set(gen) & set(given), "generator key also given as a field:")
    return {**gen, **given}


def _parse_cell(text: str) -> tuple[int, int]:
    x, y = text.split(",")
    return int(x), int(y)


def build_problem(domain: str, spec: dict[str, str], seed: int) -> tuple[object, str]:
    """Construct the problem of `domain` from `spec`, its inputs as text
    (e.g. {"n": "3", "seed": "7"}): tile reads `n`, `seed`, `depth`; grid
    `file`, `start`, `goal`, and without a file `w`, `h`, `fill`, `seed`,
    `conn`; graph `file`; lattice `dims`. Any other input is a ConfigError.
    `seed` is the default generator seed, or 1 when no generator input is given."""
    spec = dict(spec)  # each domain pops the inputs it reads
    if domain == "tile":
        spec = spec or {"seed": "1"}
        n = int(spec.pop("n", 3))
        seed = int(spec.pop("seed", seed))
        if "depth" in spec:
            state = random_scramble(n, int(spec.pop("depth")), seed)
        else:
            state = random_solvable(n, seed)
        problem, name = TilePuzzle(state), f"tile-n{n}-s{seed}"
    elif domain == "grid":
        file, start, goal = (spec.pop(key, None) for key in ("file", "start", "goal"))
        if file:
            grid = parse_grid(Path(file).read_text())
            name = Path(file).name
        else:
            spec = spec or {"seed": "1"}
            w, h = int(spec.pop("w", 16)), int(spec.pop("h", 16))
            fill = float(spec.pop("fill", 0.25))
            seed = int(spec.pop("seed", seed))
            conn = int(spec.pop("conn", 8))
            grid = random_grid(w, h, fill, seed, conn)
            name = f"grid-{w}x{h}-s{seed}"
        start = _parse_cell(start) if start else (0, 0)
        goal = _parse_cell(goal) if goal else (grid.width - 1, grid.height - 1)
        if not file:
            blocked = set(grid.blocked) - {start, goal}
            grid = type(grid)(grid.width, grid.height, frozenset(blocked), grid.connectivity)
        problem = GridProblem(grid, start, goal)
    elif domain == "graph":
        file = spec.pop("file", None)
        if not file:
            raise ConfigError("graph domain requires --file")
        problem, name = parse_graph(Path(file).read_text()), Path(file).name
    elif domain == "lattice":
        dims = spec.pop("dims", "4x4")
        problem = LatticeProblem(tuple(int(d) for d in dims.split("x")))
        name = f"lattice-{dims}"
    else:
        raise ConfigError(f"unknown domain {domain!r}")
    _refuse_unread(spec, f"domain {domain!r} reads no input")
    return problem, name


WASTAR_WEIGHT = 2.0  # wastar's weight when --weight is not given


def run_algorithm(problem, args, strategy_config: dict):
    """Dispatch one run; returns a Solution."""
    algo = args.algo
    if algo == "astar":
        return astar(problem, node_limit=args.node_limit)
    if algo == "ucs":
        return uniform_cost_oracle(problem, node_limit=args.node_limit)
    if algo == "idastar":
        return idastar(problem, node_limit=args.node_limit)
    if algo == "wastar":
        weight = WASTAR_WEIGHT if args.weight is None else args.weight
        return wastar(problem, weight, node_limit=args.node_limit)
    if algo == "dovetail":
        weights = DEFAULT_WEIGHTS
        if args.weights is not None:
            weights = [float(w) for w in args.weights.split(",")]
        return dovetail(problem, weights, node_limit=args.node_limit)
    if algo not in PARALLEL_ENGINES:
        raise ConfigError(f"unknown algorithm {algo!r}")
    settings = dict(
        workers=args.workers, strategy=args.hash, batch_size=args.batch,
        termination=args.termination, seed=args.seed, node_limit=args.node_limit,
    )
    # Settings not given keep their EngineConfig defaults.
    given = {key: value for key, value in settings.items() if value is not None}
    config = EngineConfig(strategy_config=strategy_config, **given)
    return PARALLEL_ENGINES[algo](problem, config)


def make_record(solution, args, instance: str) -> dict:
    stats = solution.stats
    record = {
        "schema": SCHEMA_VERSION,
        "algorithm": solution.meta.get("algorithm", args.algo),
        "domain": args.domain,
        "instance": instance,
        "strategy": solution.meta.get("strategy", ""),
        "workers": solution.meta.get("workers", 1),
        "batch_size": solution.meta.get("batch_size"),
        "termination": solution.meta.get("termination"),
        "execution": solution.meta.get("execution", "serial"),
        "seed": args.seed,
        "cost": solution.cost,
        "solved": solution.solved,
        "path_length": len(solution.path),
        "wall_time": stats.wall_time,
        "expanded": stats.expanded,
        "generated": stats.generated,
        "reopened": stats.reopened,
        "duplicates": stats.duplicates,
        "max_open": stats.max_open,
        "sent": stats.sent,
        "received": stats.received,
        "per_worker": [w.to_dict() for w in (solution.per_worker or [])],
        "detection_rounds": solution.meta.get("detection_rounds"),
        "detection_waves": solution.meta.get("detection_waves"),
    }
    if "winner_weight" in solution.meta:
        record["winner_weight"] = solution.meta["winner_weight"]
    return record


def cmd_solve(args) -> int:
    for dest, readers in _FLAG_READERS.items():
        if getattr(args, dest) is not None and args.algo not in readers:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"{flag} is read only by --algo {', '.join(readers)}")
    strategy_config = {}
    if args.hash_config:
        strategy_config = parse_strategy_config(Path(args.hash_config).read_text())
    fields = {"file": args.file, "start": args.start, "goal": args.goal}
    spec = _domain_spec(_parse_kv(args.gen or ""), fields)
    problem, instance = build_problem(args.domain, spec, args.seed)
    solution = run_algorithm(problem, args, strategy_config)
    record = make_record(solution, args, instance)
    print(
        f"{record['algorithm']} on {instance}: "
        f"cost={solution.cost} expanded={solution.stats.expanded} "
        f"wall={solution.stats.wall_time:.3f}s"
    )
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2))
        print(f"record written to {args.out}")
    return 0 if solution.solved else 1


def _suite_list(suite: dict, key: str, default: list) -> list:
    value = suite.pop(key, default)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"suite {key!r} must be a non-empty list")
    return value


def _suite_problem(entry, seed: int):
    """Build one suite instance: {"domain", "gen", "name", "file", "start",
    "goal"}, all strings but "gen", an object of generator fields with string
    or number values. build_problem refuses keys the domain does not read."""
    if not isinstance(entry, dict) or not isinstance(entry.get("domain"), str):
        raise ConfigError(f"suite instance {entry!r} is not an object with a domain")
    fields = dict(entry)
    domain, gen = fields.pop("domain"), fields.pop("gen", {})
    name = fields.pop("name", None)
    plain_gen = isinstance(gen, dict) and all(
        isinstance(v, (str, int, float)) and not isinstance(v, bool)
        for v in gen.values()
    )
    strings = all(f is None or isinstance(f, str) for f in (name, *fields.values()))
    if not plain_gen or not strings:
        raise ConfigError(f"suite instance {entry!r} has a malformed field")
    # Numbers become their text, as in a --gen spec.
    gen = {k: str(v) for k, v in gen.items()}
    problem, auto_name = build_problem(domain, _domain_spec(gen, fields), seed)
    return problem, auto_name if name is None else name


def _emit(text: str, count: int, out: str | None) -> None:
    """Print `text`, or write it to `out` and print how many rows it holds."""
    if out:
        Path(out).write_text(text)
        print(f"{count} rows written to {out}")
    else:
        print(text, end="")


def cmd_bench(args) -> int:
    suite = json.loads(
        Path(args.suite).read_text(),
        object_pairs_hook=lambda pairs: unique_keys(pairs, "suite key"),
    )
    if not isinstance(suite, dict):
        raise ConfigError("suite must be a JSON object")
    # Each key is popped where it is read; a key left over is refused.
    algos = _suite_list(suite, "algos", ["hdastar"])
    instances = _suite_list(suite, "instances", [])
    workers = _suite_list(suite, "workers", [2, 4])
    seed = suite.pop("seed", args.seed)
    strategies, hda_settings = [], {}
    if "hdastar" in algos:
        strategies = _suite_list(suite, "strategies", [EngineConfig.strategy])
        for key, field in (("batch", "batch_size"), ("termination", "termination")):
            if key in suite:
                hda_settings[field] = suite.pop(key)
    _refuse_unread(suite, "no run of this suite reads suite key")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("suite seed must be an integer")
    problems = [_suite_problem(entry, seed) for entry in instances]
    # (algo, strategy, workers, config) cells, validated before any run.
    cells = []
    for algo in algos:
        if not isinstance(algo, str) or algo not in PARALLEL_ENGINES:
            raise ConfigError(f"bench does not support algo {algo!r}")
        hda = algo == "hdastar"
        for strategy in strategies if hda else [""]:
            if hda and strategy not in STRATEGY_TOKENS:
                raise ConfigError(f"unknown strategy {strategy!r}")
            settings = {"strategy": strategy, **hda_settings} if hda else {}
            for p in workers:
                config = EngineConfig(workers=p, seed=seed, **settings)
                cells.append((algo, strategy, p, config))
    rows = []
    for problem, name in problems:
        baseline = astar(problem)
        rows.append(bench_row(name, "astar", "", 1, baseline, baseline))
        for algo, strategy, p, config in cells:
            sol = PARALLEL_ENGINES[algo](problem, config)
            rows.append(bench_row(name, algo, strategy, p, sol, baseline))
    _emit(rows_to_csv(CSV_COLUMNS, rows), len(rows), args.out)
    return 0


def cmd_iasim(args) -> int:
    model = CostModel(kind=args.model, spare_reuse=not args.no_reuse)
    worst, avg = ratio_bounds(args.b)
    rows = sweep(args.b, args.wmax, model, fail_time=args.e_fail, makespan=args.makespan)
    comments = (
        f"schema {SCHEMA_VERSION}",
        f"b={args.b} worst_bound={worst} average_bound={avg}",
    )
    cells = [
        {"W_plus": row.min_width, "b": row.b, "model": row.model,
         "total_cost": row.total_cost, "optimal_cost": row.optimal_cost,
         "iterations": row.iterations, "ratio": row.ratio}
        for row in rows
    ]
    _emit(rows_to_csv(IASIM_COLUMNS, cells, comments), len(rows), args.out)
    if args.out:
        print(f"bounds: worst={worst} average={avg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parsearch",
        description=__doc__,
        epilog=RECORD_FIELDS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("--domain", required=True, choices=["tile", "grid", "graph", "lattice"])
    solve.add_argument("--file", help="instance file (grid/graph)")
    solve.add_argument("--gen", help='generator spec, e.g. "n=3,seed=7"')
    solve.add_argument("--start", help="grid start cell x,y")
    solve.add_argument("--goal", help="grid goal cell x,y")
    solve.add_argument("--algo", default="astar", choices=ALGOS)
    cfg = EngineConfig  # the help texts quote its defaults
    solve.add_argument(
        "--hash", choices=STRATEGY_TOKENS, help=f"hdastar work distribution ({cfg.strategy})"
    )
    solve.add_argument("--hash-config", help="key = value strategy config file")
    solve.add_argument(
        "--workers", type=int, help=f"spastar/hdastar/window workers ({cfg.workers})"
    )
    solve.add_argument(
        "--batch", type=int, help=f"hdastar states per message ({cfg.batch_size})"
    )
    solve.add_argument(
        "--weight", type=float, help=f"wastar weight ({WASTAR_WEIGHT:g})"
    )
    weights = ",".join(f"{w:g}" for w in DEFAULT_WEIGHTS)
    solve.add_argument("--weights", help=f"dovetail weight list ({weights})")
    solve.add_argument(
        "--termination", choices=TERMINATIONS, help=f"hdastar detection ({cfg.termination})"
    )
    solve.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--out", help="write run record JSON here")

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("--suite", required=True, help="suite JSON file")
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--out", help="write CSV here (default stdout)")

    iasim = sub.add_parser("iasim", help="iterative-allocation simulation")
    iasim.add_argument("--b", type=float, default=2.0, help="geometric base")
    iasim.add_argument("--wmax", type=int, default=1024, help="max minimal width")
    iasim.add_argument("--model", default="discrete", choices=["discrete", "continuous"])
    iasim.add_argument("--e-fail", type=float, default=1.0, help="failing iteration hours")
    iasim.add_argument("--makespan", type=float, default=1.0, help="success hours")
    iasim.add_argument("--no-reuse", action="store_true", help="disable spare-time reuse")
    iasim.add_argument("--out", help="write CSV here (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "seed", None) is None:
            args.seed = default_seed()
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "iasim":
            return cmd_iasim(args)
        return 3
    except NodeLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a broken invariant or a stalled interleaver: a defect, not exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        # covers ConfigError, ParseError, JSON decoding, bad instances and
        # unreadable input files
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
