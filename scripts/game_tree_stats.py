#!/usr/bin/env python3
"""Measure the full adversary game tree of the champion strategy.

Enumerates every starting set of a given size over a small grid and walks
all adversary choice sequences, reporting how large and how deep the trees
get.  Useful for sizing exhaustive verification runs.
"""

import argparse
import itertools
from dataclasses import dataclass

from perron import champion_moves, is_won


@dataclass(frozen=True)
class Config:
    dim: int
    set_size: int
    max_entry: int


def tree_stats(vectors):
    """(leaves, max depth) of the exhaustive adversary tree from this start."""
    leaves = 0
    max_depth = 0
    stack = [(tuple(vectors), 0, 0)]
    while stack:
        vs, champ, depth = stack.pop()
        champ, moves = champion_moves(vs, champ)
        if not moves:
            assert is_won(vs) is not None
            leaves += 1
            max_depth = max(max_depth, depth)
        stack += [(child, champ, depth + 1) for _, child in moves]
    return leaves, max_depth


def run(config: Config):
    grid = list(itertools.product(range(config.max_entry + 1), repeat=config.dim))
    total = unwon = 0
    worst_leaves = worst_depth = 0
    leaf_sum = 0
    for combo in itertools.combinations(grid, config.set_size):
        total += 1
        leaves, depth = tree_stats(combo)
        if depth > 0:
            unwon += 1
        leaf_sum += leaves
        worst_leaves = max(worst_leaves, leaves)
        worst_depth = max(worst_depth, depth)
    print(f"n={config.dim} |V|={config.set_size} entries<={config.max_entry}: "
          f"{total} starting sets, {unwon} need play")
    print(f"  leaves: total {leaf_sum}, worst tree {worst_leaves}; "
          f"max depth {worst_depth}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--set-size", type=int, default=2)
    parser.add_argument("--max-entry", type=int, default=3)
    args = parser.parse_args()
    run(Config(args.dim, args.set_size, args.max_entry))


if __name__ == "__main__":
    main()
