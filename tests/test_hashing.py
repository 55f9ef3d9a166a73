"""Hash strategies: key identities, owner ranges, balance, fan-out bounds."""

import hashlib
import random
from fractions import Fraction

import pytest

from parsearch.common import ConfigError
from parsearch.domains import (
    GridProblem,
    LatticeProblem,
    TilePuzzle,
    goal_state,
    parse_grid,
    random_solvable,
)
from parsearch.hashing import (
    GOLDEN_FRAC,
    HyperplaneStrategy,
    MultiplicativeStrategy,
    STRATEGY_TOKENS,
    RandomStrategy,
    ZobristStrategy,
    ZobristTable,
    azh_key,
    hyperplane_fanout_bound,
    make_strategy,
    parse_strategy_config,
    zobrist_key,
)

TILE3 = TilePuzzle(goal_state(3))


class TestZobrist:
    def test_empty_feature_list_is_zero(self):
        assert zobrist_key(ZobristTable(1), []) == 0

    def test_single_feature_is_table_entry(self):
        t = ZobristTable(1)
        assert zobrist_key(t, [(0, 5)]) == t[(0, 5)]

    def test_order_independent(self):
        t = ZobristTable(3)
        feats = [(0, 1), (1, 2), (2, 3)]
        assert zobrist_key(t, feats) == zobrist_key(t, list(reversed(feats)))

    def test_deterministic_for_seed(self):
        assert ZobristTable(7)[(4, 4)] == ZobristTable(7)[(4, 4)]
        assert ZobristTable(7)[(4, 4)] != ZobristTable(8)[(4, 4)]

    def test_tile_move_key_equals_full_recompute(self):
        p = TilePuzzle(goal_state(4))
        t = ZobristTable(42)
        rng = random.Random(10)
        state = bytes(random_solvable(4, rng))
        key = zobrist_key(t, p.features(state))
        strategies = [
            make_strategy(token, p, seed=42)
            for token in ("zobrist", "azh", "abstraction", "mult")
        ]
        keys = [strategy.key(state) for strategy in strategies]
        random_strategy = make_strategy("random", p, seed=42)
        for _ in range(10_000):
            records = p.successors(state, 0.0)
            for child, _, _, move in records:
                for strategy, parent_key in zip(strategies, keys):
                    got = strategy.child_key(parent_key, child, move)
                    assert got == strategy.key(child), strategy.name
                # A random key is a fresh draw, routed like any other key.
                k = random_strategy.child_key(None, child, move)
                assert random_strategy.owner(k, 7) == k % 7
            succ, _, _, move = rng.choice(records)
            key ^= zobrist_key(t, p.move_features(move))
            assert key == zobrist_key(t, p.features(succ))
            keys = [strategy.key(succ) for strategy in strategies]
            state = succ


    @pytest.mark.parametrize("token", ["zobrist", "azh", "abstraction", "mult"])
    def test_tuple_and_bytes_forms_share_a_key(self, token):
        # Engines hash a tile's bytes state; a caller hashing the public
        # tuple form must route it to the same worker.
        p = TilePuzzle(goal_state(4))
        strategy = make_strategy(token, p, seed=42)
        rng = random.Random(3)
        for _ in range(200):
            state = random_solvable(4, rng)
            assert strategy.key(state) == strategy.key(bytes(state))
        assert strategy.key(goal_state(4)) == strategy.key(p.goal)


class TestAbstractZobrist:
    def test_identity_projection_degenerates_to_zobrist(self):
        p = TilePuzzle(goal_state(3))
        t = ZobristTable(5)
        rng = random.Random(1)
        for _ in range(100):
            s = random_solvable(3, rng)
            assert azh_key(t, None, p.features(s)) == zobrist_key(t, p.features(s))

    def test_all_to_one_depends_on_count_parity(self):
        t = ZobristTable(5)
        proj = {f: ("one",) for f in [(0, 1), (1, 2), (2, 3)]}
        even = azh_key(t, proj, [(0, 1), (1, 2)])
        assert even == 0
        odd = azh_key(t, proj, [(0, 1), (1, 2), (2, 3)])
        assert odd == t[("one",)]

    def test_projected_equal_states_share_keys(self):
        # Swapping tiles 1 and 2 keeps every feature in the same row-pair
        # block, so the default projection cannot tell the states apart.
        p = TilePuzzle(goal_state(3))
        strat = make_strategy("azh", p, seed=3)
        s1 = (1, 2, 3, 4, 5, 6, 7, 8, 0)
        s2 = (2, 1, 3, 4, 5, 6, 7, 8, 0)
        assert strat.key(s1) == strat.key(s2)
        s3 = (4, 2, 3, 1, 5, 6, 7, 8, 0)  # tile 1 moved to row 1: same block
        assert strat.key(s1) == strat.key(s3)


class TestMultiplicative:
    def test_zero_key_owner_zero(self):
        assert MultiplicativeStrategy(TILE3).owner(0, 16) == 0

    def test_golden_ratio_reference_value(self):
        # floor(16 * frac(1 * 0.6180339887498949)) = floor(9.888...) = 9
        strat = MultiplicativeStrategy(TILE3, 0.6180339887498949)
        assert strat.owner(1, 16) == 9

    def test_owner_range_random_keys(self):
        strat = MultiplicativeStrategy(TILE3)
        rng = random.Random(2)
        for _ in range(100_000):
            assert 0 <= strat.owner(rng.getrandbits(64), 7) < 7

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            MultiplicativeStrategy(TILE3).owner(1, 0)
        with pytest.raises(ConfigError):
            MultiplicativeStrategy(TILE3, 1.5)

    def test_strategy_owner_equals_reference(self):
        # Exact oracle: with a = num/den, frac(k * a) = (k * num % den) / den.
        # Both multipliers are dyadic with den <= 2**64, so the strategy's
        # 64-bit quantization of a loses nothing.
        rng = random.Random(9)
        keys = [rng.getrandbits(64) for _ in range(10_000)]
        for a in (GOLDEN_FRAC, 0.3):
            num, den = Fraction(a).as_integer_ratio()
            strat = make_strategy("mult", TILE3, config={"multiplier": str(a)})
            for p in range(1, 65):
                for k in keys:
                    assert strat.owner(k, p) == p * (k * num % den) // den

    def test_bad_multiplier_rejected_at_construction(self):
        problem = TilePuzzle(goal_state(3))
        with pytest.raises(ConfigError):
            make_strategy("mult", problem, config={"multiplier": "1.5"})


class TestHyperplane:
    def test_integer_thickness_reference_values(self):
        lattice = LatticeProblem((4, 4))
        for d, plane, owner in ((1, 5, 1), (2, 2, 2)):
            strat = HyperplaneStrategy(lattice, d=d)
            assert strat.key((2, 3)) == plane
            assert strat.owner(plane, 4) == owner

    def test_fanout_bound_small(self):
        assert hyperplane_fanout_bound(2, 1) == 3

    def test_successor_owner_fanout_n2_d1(self):
        p = LatticeProblem((5, 5))
        strat = HyperplaneStrategy(p, d=1)
        for s in p.all_states():
            owners = {strat.owner(strat.key(t), 64) for t, _ in p.expand(s)}
            assert len(owners) <= hyperplane_fanout_bound(2, 1)

    def test_integer_thickness_needs_no_key(self):
        lattice = LatticeProblem((4, 4, 4))
        for d in (1, 2):
            strat = HyperplaneStrategy(lattice, d=d)
            for s in lattice.all_states():
                key = strat.key(s)
                assert key == sum(s) // d
                for t, _ in lattice.expand(s):
                    assert strat.child_key(key, t, None) == sum(t) // d
                assert strat.owner(key, 7) == sum(s) // d % 7
            assert len(strat.table) == 0

    def test_fractional_thickness_parsing(self):
        strat = HyperplaneStrategy(LatticeProblem((3, 3)), d="1/3")
        assert strat.d == Fraction(1, 3)
        with pytest.raises(ConfigError):
            HyperplaneStrategy(LatticeProblem((3, 3)), d="2/3")
        with pytest.raises(ConfigError):
            HyperplaneStrategy(LatticeProblem((3, 3)), d=1.5)

    def test_zero_denominator_thickness_rejected(self):
        with pytest.raises(ConfigError):
            HyperplaneStrategy(LatticeProblem((3, 3)), d="1/0")

    def test_requires_coordinate_states(self):
        # graph states are strings, not coordinate tuples
        from parsearch.domains import missorder_graph

        with pytest.raises(ConfigError):
            HyperplaneStrategy(missorder_graph(), d=1)


class TestAbstraction:
    def test_irrelevant_tile_position_ignored(self):
        p = TilePuzzle(goal_state(3))
        strat = make_strategy("abstraction", p, seed=1)
        s1 = (1, 2, 3, 4, 5, 6, 7, 8, 0)
        s2 = (1, 2, 3, 4, 5, 6, 8, 7, 0)  # tiles 7/8 swapped; 1,2,3 fixed
        for p_count in (2, 4, 8):
            assert strat.owner(strat.key(s1), p_count) == strat.owner(
                strat.key(s2), p_count
            )

    def test_grid_blocks(self):
        g = parse_grid("8 8 8\n" + "\n".join(["." * 8] * 8))
        prob = GridProblem(g, (0, 0), (7, 7))
        strat = make_strategy("abstraction", prob, seed=1)
        assert strat.key((0, 0)) == strat.key((3, 3))
        assert strat.key((3, 3)) != strat.key((4, 3))


class TestRandomStrategy:
    def test_single_worker(self):
        p = TilePuzzle(goal_state(3))
        strat = RandomStrategy(p, seed=1)
        assert all(strat.owner(strat.key(p.goal), 1) == 0 for _ in range(50))

    def test_uniform_frequencies(self):
        p = TilePuzzle(goal_state(3))
        strat = RandomStrategy(p, seed=1)
        workers = 8
        counts = [0] * workers
        draws = 1_000_000
        for _ in range(draws):
            counts[strat.owner(strat.key(p.goal), workers)] += 1
        for c in counts:
            assert abs(c / draws - 1 / workers) <= 0.02
        off_worker = sum(c for w, c in enumerate(counts) if w != 0) / draws
        assert abs(off_worker - (1 - 1 / workers)) <= 0.02


class TestStrategySurface:
    def test_owner_ranges_all_strategies(self):
        tile = TilePuzzle(goal_state(3))
        lattice = LatticeProblem((4, 4))
        rng = random.Random(0)
        tile_states = [random_solvable(3, rng) for _ in range(50)]
        lattice_states = list(lattice.all_states())
        for token in ("zobrist", "azh", "mult", "abstraction", "random"):
            strat = make_strategy(token, tile, seed=11)
            for p in range(1, 65):
                for s in tile_states[:10]:
                    assert 0 <= strat.owner(strat.key(s), p) < p
        strat = make_strategy("hyperplane", lattice, seed=11, config={"d": "2"})
        for p in range(1, 65):
            for s in lattice_states[:10]:
                assert 0 <= strat.owner(strat.key(s), p) < p

    def test_single_worker_maps_everything_to_zero(self):
        tile = TilePuzzle(goal_state(3))
        rng = random.Random(0)
        states = [random_solvable(3, rng) for _ in range(20)]
        for token in ("zobrist", "azh", "mult", "abstraction", "random"):
            strat = make_strategy(token, tile, seed=5)
            assert all(strat.owner(strat.key(s), 1) == 0 for s in states)

    @pytest.mark.parametrize("token", STRATEGY_TOKENS)
    def test_owner_rejects_worker_count_below_one(self, token):
        lattice = LatticeProblem((4, 4))
        config = {"d": "1/2"} if token == "hyperplane" else None
        strat = make_strategy(token, lattice, seed=3, config=config)
        key = strat.key((1, 2))
        for p in (0, -1):
            with pytest.raises(ConfigError, match="worker count must be >= 1"):
                strat.owner(key, p)

    def test_unknown_token_rejected(self):
        with pytest.raises(ConfigError):
            make_strategy("perfect", TilePuzzle(goal_state(3)))

    def test_balance_zobrist_sample(self):
        p = TilePuzzle(goal_state(4))
        strat = ZobristStrategy(p, seed=17)
        rng = random.Random(4)
        workers = 8
        counts = [0] * workers
        for _ in range(10_000):
            counts[strat.owner(strat.key(random_solvable(4, rng)), workers)] += 1
        mean = sum(counts) / workers
        assert max(counts) / mean <= 1.06

    def test_config_parsing(self):
        cfg = parse_strategy_config("d = 1/2\n# comment\nmultiplier = 0.5\n")
        assert cfg == {"d": "1/2", "multiplier": "0.5"}
        with pytest.raises(ConfigError):
            parse_strategy_config("not a pair")

    def test_mult_strategy_uses_golden_default(self):
        p = TilePuzzle(goal_state(3))
        strat = MultiplicativeStrategy(p)
        assert strat.a == GOLDEN_FRAC

    @pytest.mark.parametrize(
        "token, config, named",
        [
            ("mult", {"multipler": "0.5", "d": "3"}, "'d', 'multipler'"),
            ("hyperplane", {"d": "2", "multiplier": "0.5"}, "'multiplier'"),
            ("zobrist", {"d": "1/2"}, "'d'"),
            ("azh", {"multiplier": "0.5"}, "'multiplier'"),
            ("abstraction", {"seed": "1"}, "'seed'"),
            ("random", {"d": "1"}, "'d'"),
        ],
    )
    def test_unread_config_key_rejected(self, token, config, named):
        lattice = LatticeProblem((4, 4))
        with pytest.raises(ConfigError, match=f"reads no config key {named}$"):
            make_strategy(token, lattice, config=config)


# sha256 over the owner bytes of 300 15-puzzle states and every point of a
# 5x4x3 lattice, for each deterministic token and thickness, at p = 2, 3, 8
# and 32. Recorded when `owner` still took the state (and computed its key
# itself), so routing by key alone sends every state where it went before.
ROUTING_DIGEST = "af19b797f7764647e99d3b0fdc16e9f7fc3ca3b430f38fe7e7561ea9681d7ab6"


def test_routing_digest_pinned():
    rng = random.Random(20)
    tile = TilePuzzle(goal_state(4))
    tile_states = [random_solvable(4, rng) for _ in range(300)]
    lattice = LatticeProblem((5, 4, 3))
    lattice_states = list(lattice.all_states())
    tokens = ("zobrist", "azh", "abstraction", "mult")
    runs = [(tile, tile_states, token, None) for token in tokens]
    runs += [(lattice, lattice_states, token, None) for token in tokens]
    runs += [
        (lattice, lattice_states, "hyperplane", {"d": d})
        for d in ("1", "2", "1/2", "1/3")
    ]
    digest = hashlib.sha256()
    for problem, states, token, config in runs:
        strategy = make_strategy(token, problem, config=config)
        for p in (2, 3, 8, 32):
            digest.update(bytes(strategy.owner(strategy.key(s), p) for s in states))
    assert len(lattice_states) == 120
    assert digest.hexdigest() == ROUTING_DIGEST
