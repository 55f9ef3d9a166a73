"""How the work-distribution strategies split states across workers.

Samples random 15-puzzle boards and shows each strategy's bucket balance at
p=8, a state going to `owner(key(state), p)`, then the expected fraction of
cross-worker traffic. Zobrist spreads nearly perfectly (max/mean close to 1)
but sends almost every generated state away; abstraction keeps states local
at the price of balance.
"""

import random

from parsearch.domains import TilePuzzle, goal_state, random_solvable
from parsearch.hashing import make_strategy

WORKERS = 8
SAMPLES = 20_000

puzzle = TilePuzzle(goal_state(4))
rng = random.Random(1)
states = [random_solvable(4, rng) for _ in range(SAMPLES)]

print(f"{'strategy':>12} {'max/mean':>9} {'buckets (p=8)':>40}")
for token in ("zobrist", "azh", "mult", "abstraction", "random"):
    strategy = make_strategy(token, puzzle, seed=17)
    counts = [0] * WORKERS
    for s in states:
        counts[strategy.owner(strategy.key(s), WORKERS)] += 1
    ratio = max(counts) / (sum(counts) / WORKERS)
    print(f"{token:>12} {ratio:>9.3f} {str(counts):>40}")

print()
print("Cross-worker traffic: a uniformly hashed successor lands on another")
print("worker with probability 1 - 1/p:")
for p in (2, 4, 8, 16):
    print(f"  p={p:>2}: {1 - 1 / p:.4f}")
