#!/usr/bin/env python3
"""Sample the distribution of descent-trace lengths.

No bound on the number of rounds is known as a function of the inputs, so
this experiment measures it empirically: random vector pairs per dimension,
played against each adversary.
"""

import argparse
import random
import statistics

from perron import FirstIndex, MaxGrowth, SeededRandom, run_pair


ADVERSARIES = {
    "first": lambda seed: FirstIndex(),
    "max_growth": lambda seed: MaxGrowth(),
    "random": lambda seed: SeededRandom(seed),
}


def run(args):
    rng = random.Random(args.seed)
    print(f"{'n':>3} {'adversary':>11} {'mean':>8} {'p95':>6} {'max':>6}")
    for n in args.dims:
        pairs = [(tuple(rng.randint(0, args.max_entry) for _ in range(n)),
                  tuple(rng.randint(0, args.max_entry) for _ in range(n)))
                 for _ in range(args.samples)]
        for name, factory in ADVERSARIES.items():
            lengths = [run_pair(a, b, factory(k)).rounds
                       for k, (a, b) in enumerate(pairs)]
            lengths.sort()
            p95 = lengths[int(0.95 * (len(lengths) - 1))]
            print(f"{n:>3} {name:>11} {statistics.mean(lengths):>8.2f} "
                  f"{p95:>6} {lengths[-1]:>6}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 6, 8])
    parser.add_argument("--max-entry", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
