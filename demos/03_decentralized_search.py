"""Hash-distributed A* on one instance: overheads across strategies.

Runs the decentralized engine over every strategy and several worker
counts, comparing against the serial baseline: search overhead SO (extra
expansions), communication overhead CO (fraction of generated states sent
to another worker), and load balance LB (max/mean worker expansions).

Also replays the classic expansion-misordering scenario: with an
adversarial ownership and delivery schedule, a worker closes a state via
the expensive route, later receives the cheap route, and must reopen it --
the final cost is still optimal.
"""

from parsearch.domains import TilePuzzle, missorder_graph, random_solvable
from parsearch.engine import EagerWorkerPolicy, EngineConfig
from parsearch.engine.hda import HDAStar, hdastar
from parsearch.hashing import Strategy
from parsearch.metrics import efficiency_fraction, overheads
from parsearch.serial import astar

puzzle = TilePuzzle(random_solvable(3, 11))
baseline = astar(puzzle)
print(f"serial A*: cost {baseline.cost:.0f}, {baseline.stats.expanded} expansions")
print()
print(f"{'strategy':>12} {'p':>3} {'SO':>7} {'CO':>6} {'LB':>6} {'eff':>6}")
for strategy in ("zobrist", "azh", "mult", "abstraction", "random"):
    for workers in (2, 4, 8):
        sol = hdastar(puzzle, EngineConfig(workers=workers, strategy=strategy))
        assert sol.cost == baseline.cost
        report = overheads(baseline, sol)
        eff = efficiency_fraction(sol, baseline.cost)
        print(f"{strategy:>12} {workers:>3} {report.search_overhead:>7.2f} "
              f"{report.communication_overhead:>6.2f} "
              f"{report.load_balance:>6.2f} {eff:>6.2f}")

print()
print("Expansion misordering (4-node digraph, h==0):")


class PinnedOwners(Strategy):
    """The key is the worker; the inherited owner(key, p) is key % p."""

    name = "pinned"

    def __init__(self, assign):
        self.assign = assign

    def key(self, state):
        return self.assign[state]


engine = HDAStar(
    missorder_graph(),
    EngineConfig(workers=2, batch_size=1),
    strategy=PinnedOwners({"a": 0, "c": 0, "d": 0, "b": 1}),
    policy=EagerWorkerPolicy(),
)
sol = engine.run()
print(f"  cost {sol.cost:.0f} via {sol.path}; reopened per worker: "
      f"{[w.reopened for w in sol.per_worker]}")
print("  worker 0 closed d at g=4 via a,c,d and reopened it when g=2 "
      "arrived via b.")
