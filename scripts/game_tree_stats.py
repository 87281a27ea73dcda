#!/usr/bin/env python3
"""Measure the full adversary game tree of the champion strategy.

Enumerates every starting set of a given size over a small grid and walks
all adversary choice sequences, reporting how large and how deep the trees
get.  Useful for sizing exhaustive verification runs.
"""

import argparse
import itertools

from perron import game_tree, is_won


def tree_stats(vectors):
    """(leaves, max depth) of the exhaustive adversary tree from this start."""
    leaves = 0
    max_depth = 0
    for path, vs, _, moves in game_tree(vectors):
        if not moves:
            assert is_won(vs) is not None
            leaves += 1
            max_depth = max(max_depth, len(path))
    return leaves, max_depth


def run(args):
    grid = list(itertools.product(range(args.max_entry + 1), repeat=args.dim))
    total = unwon = 0
    worst_leaves = worst_depth = 0
    leaf_sum = 0
    for combo in itertools.combinations(grid, args.set_size):
        total += 1
        leaves, depth = tree_stats(combo)
        if depth > 0:
            unwon += 1
        leaf_sum += leaves
        worst_leaves = max(worst_leaves, leaves)
        worst_depth = max(worst_depth, depth)
    print(f"n={args.dim} |V|={args.set_size} entries<={args.max_entry}: "
          f"{total} starting sets, {unwon} need play")
    print(f"  leaves: total {leaf_sum}, worst tree {worst_leaves}; "
          f"max depth {worst_depth}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--set-size", type=int, default=2)
    parser.add_argument("--max-entry", type=int, default=3)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
