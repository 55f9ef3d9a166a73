"""Distributed termination detection under hostile message schedules.

The decentralized engine cannot stop just because every local open list
looks exhausted: a message still in flight may carry a cheaper route. The
detectors count sent/received messages -- two sampling waves, or one ring
stamped with logical clocks -- and only fire when the books balance while
every worker is quiescent.

This demo runs the same instance under increasingly delivery-starved
schedules and shows how many detection attempts fail before the books
balance, for both counting modes.
"""

from parsearch.domains import TilePuzzle, random_scramble
from parsearch.engine import EngineConfig, SchedulePolicy
from parsearch.engine.hda import HDAStar
from parsearch.serial import astar

puzzle = TilePuzzle(random_scramble(3, 14, 3))
want = astar(puzzle).cost
print(f"instance optimal cost: {want:.0f}")
print()
print(f"{'delivery bias':>13} {'mode':>9} {'cost':>5} {'attempts':>9} "
      f"{'waves/rings':>11} {'ticks':>7}")
for bias in (0.9, 0.5, 0.15):
    for mode in ("two-wave", "time"):
        engine = HDAStar(
            puzzle,
            EngineConfig(workers=3, termination=mode, seed=4),
            policy=SchedulePolicy(seed=4, delivery_bias=bias),
        )
        sol = engine.run()
        assert sol.cost == want
        print(f"{bias:>13} {mode:>9} {sol.cost:>5.0f} "
              f"{sol.meta['detection_rounds']:>9} "
              f"{sol.meta['detection_waves']:>11} {sol.meta['ticks']:>7}")

print()
print("Starved delivery (low bias) leaves messages in flight longer, so")
print("early attempts fail on unbalanced counters and the engine keeps")
print("searching until a clean pair of waves (or one clean ring) proves")
print("no improving work exists anywhere.")
