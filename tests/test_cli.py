"""Command-line harness: exit codes, record schema, suite sweeps."""

import csv
import json
import math
import re

import pytest

from parsearch.cli import ALGOS, main
from parsearch.common import SearchInvariantError
from parsearch.domains import random_solvable
from parsearch.engine.hda import HDAStar
from parsearch.metrics import CSV_COLUMNS
from parsearch.serial import astar


def run_cli(*argv):
    return main(list(argv))


class TestSolve:
    def test_tile_astar_record(self, tmp_path, tile3_bfs):
        out = tmp_path / "record.json"
        code = run_cli(
            "solve", "--domain", "tile", "--gen", "n=3,seed=7",
            "--algo", "astar", "--out", str(out),
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["schema"] == 1
        want = tile3_bfs[bytes(random_solvable(3, 7))]
        assert record["cost"] == want
        assert record["solved"] is True
        assert record["expanded"] >= 1

    def test_hdastar_record_has_worker_counters(self, tmp_path):
        out = tmp_path / "record.json"
        code = run_cli(
            "solve", "--domain", "tile", "--gen", "n=3,seed=3",
            "--algo", "hdastar", "--workers", "4", "--hash", "azh",
            "--out", str(out),
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["strategy"] == "azh"
        assert len(record["per_worker"]) == 4
        sent = sum(w["sent"] for w in record["per_worker"])
        received = sum(w["received"] for w in record["per_worker"])
        assert sent == received

    def test_unknown_hash_token_usage_error(self):
        assert run_cli(
            "solve", "--domain", "tile", "--algo", "hdastar",
            "--hash", "nonsense",
        ) == 3

    def test_unreachable_goal_exit_one(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("start s\ngoal t\ns a 1\n")
        out = tmp_path / "r.json"
        code = run_cli(
            "solve", "--domain", "graph", "--file", str(graph),
            "--out", str(out),
        )
        assert code == 1
        record = json.loads(out.read_text())
        assert record["cost"] == math.inf
        assert record["solved"] is False

    def test_node_limit_exit_two(self):
        code = run_cli(
            "solve", "--domain", "tile", "--gen", "n=4,seed=5",
            "--algo", "astar", "--node-limit", "50",
        )
        assert code == 2

    def test_node_limit_zero_fails_on_root_exit_two(self):
        for algo in ("astar", "hdastar"):
            assert run_cli(
                "solve", "--domain", "tile", "--algo", algo, "--node-limit", "0",
            ) == 2

    def test_bad_node_limit_exit_three(self):
        for algo in ALGOS:
            for limit in ("-3", "1.5"):
                assert run_cli(
                    "solve", "--domain", "tile", "--algo", algo,
                    "--node-limit", limit,
                ) == 3, (algo, limit)

    def test_negative_scramble_depth_exit_three(self):
        assert run_cli("solve", "--domain", "tile", "--gen", "n=3,depth=-4") == 3

    def test_tile_board_wider_than_16_exit_three(self, capsys):
        # States hold one byte per cell, so a 17x17 board is refused before
        # any search starts.
        assert run_cli(
            "solve", "--domain", "tile", "--gen", "n=17,seed=1", "--algo", "astar",
        ) == 3
        assert "limited to 16x16" in capsys.readouterr().err

    def test_nan_weights_exit_three(self):
        assert run_cli(
            "solve", "--domain", "tile", "--algo", "wastar", "--weight", "nan",
        ) == 3
        # float() reads inf in any case and with spaces, nan as nan: the
        # first two lists run, the last is refused.
        for weights, code in (("1, INF ", 0), ("1,Infinity", 0), ("1,nan", 3)):
            assert run_cli(
                "solve", "--domain", "tile", "--algo", "dovetail",
                "--weights", weights,
            ) == code, weights

    def test_grid_file_with_blocked_start(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("2 2 8\n#.\n..\n")
        assert run_cli(
            "solve", "--domain", "grid", "--file", str(m), "--start", "0,0",
        ) == 3

    def test_grid_start_outside_the_map_exit_three(self, capsys):
        assert run_cli(
            "solve", "--domain", "grid", "--gen", "w=4,h=4,seed=1",
            "--start", "9,9", "--algo", "astar",
        ) == 3
        assert "start (9, 9) is outside the 4x4 map" in capsys.readouterr().err

    def test_missing_file_exit_three(self):
        assert run_cli("solve", "--domain", "graph", "--file", "/nope") == 3

    def test_hyperplane_with_config_file(self, tmp_path):
        cfg = tmp_path / "strategy.cfg"
        cfg.write_text("d = 1/2\n")
        assert run_cli(
            "solve", "--domain", "lattice", "--gen", "dims=3x3",
            "--algo", "hdastar", "--hash", "hyperplane", "--workers", "3",
            "--hash-config", str(cfg),
        ) == 0

    def test_zero_denominator_thickness_exit_three(self, tmp_path):
        cfg = tmp_path / "strategy.cfg"
        cfg.write_text("d = 1/0\n")
        assert run_cli(
            "solve", "--domain", "lattice", "--gen", "dims=3x3",
            "--algo", "hdastar", "--hash", "hyperplane", "--workers", "3",
            "--hash-config", str(cfg),
        ) == 3

    def test_unread_hash_config_key_exit_three(self, tmp_path, capsys):
        # A misspelt multiplier and a thickness mult never reads.
        cfg = tmp_path / "strategy.cfg"
        cfg.write_text("multipler = 0.5\nd = 3\n")
        assert run_cli(
            "solve", "--domain", "tile", "--gen", "n=3,seed=2",
            "--algo", "hdastar", "--workers", "3", "--hash", "mult",
            "--hash-config", str(cfg),
        ) == 3
        err = capsys.readouterr().err
        assert "strategy 'mult' reads no config key 'd', 'multipler'" in err

    @pytest.mark.parametrize("algo", ["spastar", "astar"])
    def test_hash_config_without_hdastar_exit_three(self, tmp_path, capsys, algo):
        # Only HDA* reads a strategy config; any other algorithm refuses one.
        cfg = tmp_path / "strategy.cfg"
        cfg.write_text("multipler = 0.5\nd = 3\n")
        assert run_cli(
            "solve", "--domain", "tile", "--gen", "n=3,seed=2",
            "--algo", algo, "--workers", "3", "--hash", "mult",
            "--hash-config", str(cfg),
        ) == 3
        assert "--hash-config is read only by --algo hdastar" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["spastar", "astar"])
    @pytest.mark.parametrize("flag", [("--hash", "mult"), ("--batch", "5")])
    def test_hda_flag_without_hdastar_exit_three(self, capsys, algo, flag):
        # Only HDA* hashes and batches its work; any other algorithm
        # refuses the flags rather than ignore them.
        assert run_cli(
            "solve", "--domain", "tile", "--gen", "n=3,seed=2",
            "--algo", algo, "--workers", "3", *flag,
        ) == 3
        want = f"{flag[0]} is read only by --algo hdastar"
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, want",
        [
            (
                ("--algo", "spastar", "--workers", "3", "--termination", "time"),
                "--termination is read only by --algo hdastar",
            ),
            (
                ("--algo", "astar", "--workers", "4"),
                "--workers is read only by --algo spastar, hdastar, window",
            ),
            (
                ("--algo", "window", "--workers", "2", "--weight", "3"),
                "--weight is read only by --algo wastar",
            ),
            (
                ("--algo", "astar", "--weights", "1,2"),
                "--weights is read only by --algo dovetail",
            ),
        ],
    )
    def test_unread_flag_exit_three(self, capsys, flags, want):
        # Each flag has its readers; any other algorithm refuses it rather
        # than run without it.
        assert run_cli("solve", "--domain", "tile", "--gen", "n=3,seed=2", *flags) == 3
        assert want in capsys.readouterr().err

    def test_hdastar_routes_by_zobrist_by_default(self, tmp_path):
        out = tmp_path / "record.json"
        assert run_cli(
            "solve", "--domain", "tile", "--gen", "n=3,seed=2",
            "--algo", "hdastar", "--workers", "3", "--out", str(out),
        ) == 0
        record = json.loads(out.read_text())
        assert record["strategy"] == "zobrist"
        assert record["batch_size"] == 10

    def test_unreadable_hash_config_exit_three(self, tmp_path):
        assert run_cli(
            "solve", "--domain", "tile", "--algo", "hdastar",
            "--hash-config", str(tmp_path),
        ) == 3

    def test_nan_heuristic_graph_exit_three(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("start s\ngoal t\nh s nan\ns a 1\na t 1\n")
        assert run_cli(
            "solve", "--domain", "graph", "--file", str(graph),
            "--algo", "hdastar", "--workers", "2",
        ) == 3

    @pytest.mark.parametrize("domain", ["tile", "grid"])
    def test_hyperplane_refuses_non_lattice_exit_three(self, domain):
        # Every tile state has the same coordinate sum, so hyperplane
        # distribution would put all the work on one worker.
        assert run_cli(
            "solve", "--domain", domain, "--algo", "hdastar",
            "--hash", "hyperplane", "--workers", "4",
        ) == 3

    @pytest.mark.parametrize(
        "gen, want",
        [
            ("conn=5,seed=42", "grid connectivity must be 4 or 8, got 5"),
            ("w=0,h=3,seed=1", "grid width and height must be positive, got 0x3"),
            ("fill=nan", "grid fill must be in [0, 1], got nan"),
            ("fill=1.5", "grid fill must be in [0, 1], got 1.5"),
            ("fill=-0.1", "grid fill must be in [0, 1], got -0.1"),
        ],
    )
    def test_bad_grid_generator_input_exit_three(self, capsys, gen, want):
        assert run_cli("solve", "--domain", "grid", "--gen", gen) == 3
        captured = capsys.readouterr()
        assert want in captured.err and captured.out == ""

    def test_bad_subcommand_exit_three(self):
        assert run_cli("frobnicate") == 3

    def test_internal_error_exit_four(self, monkeypatch, capsys):
        # A broken invariant is a defect, not an unsolvable instance.
        def broken(self):
            raise SearchInvariantError("premature termination")

        monkeypatch.setattr(HDAStar, "check", broken)
        argv = ("solve", "--domain", "tile", "--gen", "n=3,seed=7", "--algo", "hdastar")
        assert run_cli(*argv) == 4
        assert "internal error: premature termination" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv("PARSEARCH_SEED", "123")
        run_cli("solve", "--domain", "tile", "--algo", "astar",
                "--gen", "n=3", "--out", str(out))
        record = json.loads(out.read_text())
        assert record["seed"] == 123

    def test_non_integer_env_seed_exit_three(self, monkeypatch, capsys):
        monkeypatch.setenv("PARSEARCH_SEED", "abc")
        assert run_cli("solve", "--domain", "tile", "--gen", "n=3,seed=1") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "PARSEARCH_SEED" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ["solve", "--domain", "tile", "--gen", "n=3,sed=2"],
            "domain 'tile' reads no input 'sed'",
        ),
        (
            ["solve", "--domain", "tile", "--gen", "n=3,seed=2", "--file", "no-such-file.txt"],
            "domain 'tile' reads no input 'file'",
        ),
        (
            ["solve", "--domain", "tile", "--gen", "n=3,seed=2", "--start", "0,0"],
            "domain 'tile' reads no input 'start'",
        ),
        (
            ["solve", "--domain", "lattice", "--gen", "dims=3x3,seed=4"],
            "domain 'lattice' reads no input 'seed'",
        ),
        (
            ["solve", "--domain", "lattice", "--gen", "dims=3x3", "--goal", "1,1"],
            "domain 'lattice' reads no input 'goal'",
        ),
        (
            ["solve", "--domain", "grid", "--file", "{map}", "--gen", "w=9"],
            "domain 'grid' reads no input 'w'",
        ),
        (
            ["bench", "--suite", "{suite}"],
            "domain 'tile' reads no input 'sed', 'start'",
        ),
        (
            ["solve", "--domain", "grid", "--file", "{map}", "--gen", "file=x"],
            "generator key also given as a field: 'file'",
        ),
    ],
)
def test_unread_domain_input_exit_three(tmp_path, capsys, argv, want):
    # Each domain reads its own inputs; any other is refused, not ignored.
    grid = tmp_path / "map.txt"
    grid.write_text("4 4 8\n....\n....\n....\n....\n")
    suite = tmp_path / "suite.json"
    entry = {"domain": "tile", "gen": {"n": 3, "sed": 7}, "start": "0,0"}
    suite.write_text(
        json.dumps({"instances": [entry], "algos": ["spastar"], "workers": [2]})
    )
    argv = [arg.format(map=grid, suite=suite) for arg in argv]
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert want in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, text, want",
    [
        (
            ["solve", "--domain", "tile", "--gen", "n=3,seed=2,n=2"],
            None,
            "generator key 'n' given twice",
        ),
        (
            [
                "solve", "--domain", "lattice", "--gen", "dims=3x3",
                "--algo", "hdastar", "--hash", "hyperplane", "--hash-config", "{file}",
            ],
            "d = 1\nd = 2\n",
            "config key 'd' given twice",
        ),
        (
            ["bench", "--suite", "{file}"],
            '{"instances": [{"domain": "tile"}], "workers": [2], "workers": [3]}',
            "suite key 'workers' given twice",
        ),
        (
            ["bench", "--suite", "{file}"],
            '{"instances": [{"domain": "tile", "gen": {"n": 3, "n": 2}}]}',
            "suite key 'n' given twice",
        ),
    ],
    ids=["gen", "hash-config", "suite", "suite-gen"],
)
def test_repeated_key_exit_three(tmp_path, capsys, argv, text, want):
    # A key given twice is refused, where a dict would keep the last value.
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    assert run_cli(*[arg.format(file=path) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert want in captured.err and captured.out == ""


class TestBench:
    @pytest.fixture()
    def suite_file(self, tmp_path):
        suite = {
            "instances": [
                {"domain": "tile", "gen": {"n": 3, "seed": s}} for s in range(5)
            ],
            "algos": ["hdastar"],
            "strategies": ["zobrist", "azh", "abstraction"],
            "workers": [2, 4],
            "seed": 42,
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        return path

    def test_row_count_and_cost_agreement(self, tmp_path, suite_file):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--suite", str(suite_file), "--out", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        # per instance: 1 serial baseline + 3 strategies x 2 worker counts
        assert len(rows) == 5 * (1 + 3 * 2)
        by_instance = {}
        for row in rows:
            by_instance.setdefault(row["instance"], set()).add(row["cost"])
        assert all(len(costs) == 1 for costs in by_instance.values())

    def test_deterministic_counters_across_reruns(self, tmp_path, suite_file):
        out1 = tmp_path / "b1.csv"
        out2 = tmp_path / "b2.csv"
        run_cli("bench", "--suite", str(suite_file), "--out", str(out1))
        run_cli("bench", "--suite", str(suite_file), "--out", str(out2))
        r1 = list(csv.DictReader(out1.read_text().splitlines()))
        r2 = list(csv.DictReader(out2.read_text().splitlines()))
        volatile = {"speedup", "wall_time"}
        for a, b in zip(r1, r2):
            for key in a:
                if key not in volatile:
                    assert a[key] == b[key], key

    def test_window_efficiency_cell_empty(self, tmp_path):
        # The second instance starts at the goal, so the window engine
        # expands nothing: its undefined measures are empty cells, and the
        # sweep goes on.
        suite = {
            "instances": [
                {"domain": "tile", "gen": {"n": 3, "seed": 7}},
                {"domain": "tile", "gen": {"n": 3, "seed": 1, "depth": 0}},
            ],
            "algos": ["window"],
            "workers": [2],
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--suite", str(path), "--out", str(out)) == 0
        baseline, window, _, at_goal = csv.DictReader(out.read_text().splitlines())
        assert window["algo"] == "window"
        assert window["efficiency_fraction"] == ""
        assert 0.0 <= float(baseline["efficiency_fraction"]) <= 1.0
        assert (at_goal["algo"], at_goal["cost"], at_goal["expanded"]) == ("window", "0.0", "0")
        for column in ("SO", "CO", "LB", "speedup", "efficiency_fraction"):
            assert at_goal[column] == "", column

    def test_undefined_co_cell_empty(self, tmp_path):
        # At the goal, HDA* and SPA* expand the root and generate nothing,
        # so CO (sent / generated) is undefined; SO and LB are defined, LB
        # with the one expansion on one of two workers.
        suite = {
            "instances": [{"domain": "tile", "gen": {"n": 3, "seed": 1, "depth": 0}}],
            "algos": ["hdastar", "spastar"],
            "workers": [2],
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--suite", str(path), "--out", str(out)) == 0
        _, *rows = csv.DictReader(out.read_text().splitlines())
        assert [row["algo"] for row in rows] == ["hdastar", "spastar"]
        for row in rows:
            assert row["CO"] == "", row["algo"]
            assert (row["SO"], row["LB"]) == ("0.0", "2.0"), row["algo"]

    def test_empty_suite_exit_three(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"instances": []}))
        assert run_cli("bench", "--suite", str(path)) == 3

    def test_serial_or_unknown_algo_exit_three(self, tmp_path):
        for algo in ("astar", "nosuch"):
            suite = {
                "instances": [{"domain": "tile", "gen": {"n": 3, "seed": 1}}],
                "algos": ["hdastar", algo],
            }
            path = tmp_path / "suite.json"
            path.write_text(json.dumps(suite))
            assert run_cli("bench", "--suite", str(path)) == 3, algo

    @pytest.mark.parametrize(
        "suite",
        [
            {"instances": [{"gen": {"n": 3}}]},
            {"instances": [42]},
            {"instances": [{"domain": "tile"}], "workers": ["2"]},
            {"instances": [{"domain": "tile"}], "workers": [2.5]},
            {"instances": [{"domain": "tile"}], "batch": "10"},
            {"instances": [{"domain": "tile"}], "workers": 2},
            {"instances": [{"domain": "tile", "gen": [3]}]},
            {"instances": [{"domain": "grid", "start": [0, 0]}]},
            {"instances": [{"domain": "tile"}], "algos": [["hdastar"]]},
            {"instances": [{"domain": "tile"}], "seed": "1"},
            [{"domain": "tile"}],
            {"instances": [{"domain": "tile", "gen": {"n": "3,seed=9"}}]},
            {"instances": [{"domain": "tile", "gen": {"n": True}}]},
            {"instances": [{"domain": "tile", "gen": {"n": [3]}}]},
            # Keys no run reads: HDA*'s keys without hdastar, a misspelt key.
            {
                "instances": [{"domain": "tile", "gen": {"n": 3, "seed": 1}}],
                "algos": ["spastar"],
                "workers": [2],
                "batch": 7,
                "batchsize": 5,
                "termination": "time",
                "strategies": ["mult"],
            },
            {"instances": [{"domain": "tile"}], "batchsize": 5},
            {"instances": [{"domain": "tile"}], "algos": ["spastar"], "batch": 7},
            {"instances": [{"domain": "tile"}], "strategies": [""]},
        ],
    )
    def test_malformed_suite_exit_three(self, tmp_path, suite):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        assert run_cli("bench", "--suite", str(path)) == 3

    def test_unread_suite_key_named(self, tmp_path, capsys):
        # HDA*'s keys are read only when algos holds hdastar.
        suite = {
            "instances": [{"domain": "tile"}],
            "algos": ["spastar"],
            "batch": 7,
            "batchsize": 5,
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        assert run_cli("bench", "--suite", str(path)) == 3
        err = capsys.readouterr().err
        assert "no run of this suite reads suite key 'batch', 'batchsize'" in err

    def test_unparseable_instance_aborts(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1 9\n.\n")
        suite = {"instances": [{"domain": "grid", "file": str(bad)}]}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        assert run_cli("bench", "--suite", str(path)) == 3


class TestIasim:
    def test_bounds_in_header_and_ratios(self, tmp_path):
        out = tmp_path / "ia.csv"
        assert run_cli("iasim", "--b", "2", "--wmax", "128", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert "worst_bound=4.0" in lines[1]
        assert "average_bound=2.666" in lines[1]
        data = lines[3:]
        assert len(data) == 128
        for line in data:
            ratio = float(line.rsplit(",", 1)[1])
            assert ratio <= 4.0 + 1e-9

    def test_large_base_sweeps_every_width(self, tmp_path):
        # the first width >= W+ can reach ceil(b * W+), beyond 4 * wmax
        out = tmp_path / "ia.csv"
        assert run_cli("iasim", "--b", "10", "--wmax", "2", "--out", str(out)) == 0
        data = out.read_text().splitlines()[3:]
        assert [int(line.split(",")[0]) for line in data] == [1, 2]

    def test_base_one_rejected(self):
        assert run_cli("iasim", "--b", "1") == 3

    def test_nan_base_rejected(self, capsys):
        assert run_cli("iasim", "--b", "nan") == 3
        assert "geometric base must be > 1" in capsys.readouterr().err

    def test_infinite_base_rejected(self, capsys):
        assert run_cli("iasim", "--b", "inf", "--wmax", "2") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "geometric base must be > 1 and finite" in captured.err

    def test_overflowing_sweep_cap_rejected(self, capsys):
        # b is finite, but the sweep's width cap ceil(b * wmax) is not
        assert run_cli("iasim", "--b", "1e308", "--wmax", "2") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweep cap" in captured.err

    def test_nonpositive_wmax_rejected(self, capsys):
        for value in ("0", "-5"):
            assert run_cli("iasim", "--wmax", value) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "max minimal width" in captured.err

    def test_bad_makespan_or_fail_time_rejected(self, capsys):
        for model in ("discrete", "continuous"):
            iasim = ("iasim", "--wmax", "4", "--model", model)
            for value in ("0", "-1", "nan", "inf"):
                assert run_cli(*iasim, "--makespan", value) == 3
            for value in ("-1", "nan", "inf"):
                assert run_cli(*iasim, "--e-fail", value) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "makespan must be finite and > 0, got inf" in captured.err
        assert "fail_time must be finite and >= 0, got inf" in captured.err

    def test_overflowing_cost_rejected(self, capsys):
        # finite durations whose costs pass the largest float
        for argv in (
            ("--wmax", "8", "--e-fail", "1e308"),
            ("--wmax", "4", "--no-reuse", "--e-fail", "1e308"),
            ("--wmax", "4", "--model", "continuous", "--makespan", "1e308"),
        ):
            assert run_cli("iasim", *argv) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert "cost of duration 1e+308 at width 2 overflows" in captured.err

    def test_continuous_model(self, tmp_path):
        out = tmp_path / "ia.csv"
        assert run_cli(
            "iasim", "--b", "2", "--wmax", "16", "--model", "continuous",
            "--e-fail", "0.5", "--out", str(out),
        ) == 0


def help_sections(capsys) -> dict:
    """Each name list the `--help` epilog gives, keyed by its heading: the
    indented lines up to the first that does not end a name with a comma
    or a period, parenthetical notes dropped."""
    assert run_cli("--help") == 0
    lines = capsys.readouterr().out.splitlines()
    sections = {}
    for i, heading in enumerate(lines):
        if not heading.endswith(":") or heading.startswith(" "):
            continue
        text = ""
        for line in lines[i + 1 :]:
            if not line.startswith("  ") or text.endswith("."):
                break
            text += " " + re.sub(r" \([^)]*\)", "", line.strip())
        sections[heading] = [name.strip() for name in text.rstrip(".").split(",")]
    return sections


class TestHelp:
    def test_record_fields_match_solve_records(self, tmp_path, capsys):
        listed = help_sections(capsys)["Run record JSON fields (schema 1):"]
        keys = {}
        for algo in ("astar", "dovetail"):
            out = tmp_path / f"{algo}.json"
            assert run_cli(
                "solve", "--domain", "tile", "--gen", "n=3,seed=7",
                "--algo", algo, "--out", str(out),
            ) == 0
            keys[algo] = list(json.loads(out.read_text()))
        assert keys["dovetail"] == listed
        assert keys["astar"] == [name for name in listed if name != "winner_weight"]

    def test_csv_columns_match_headers(self, tmp_path, capsys):
        sections = help_sections(capsys)
        out = tmp_path / "ia.csv"
        assert run_cli("iasim", "--wmax", "2", "--out", str(out)) == 0
        header = out.read_text().splitlines()[2]
        assert header.split(",") == sections["iasim CSV columns:"]
        assert sections["Bench CSV columns:"] == CSV_COLUMNS
