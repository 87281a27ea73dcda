#!/usr/bin/env python3
"""Check that the package behaves byte-identically at another revision.

    python scripts/differential.py --rev REV [--jobs N] [--seed S] [--counts]
    python scripts/differential.py --rev REV --replay FAMILY:INDEX [--seed S]

Exports REV's src/ with `git archive` into a temporary directory, then runs
the same seeded jobs in two fresh interpreters: one imports perron from REV's
src/, the other from the working tree's (uncommitted edits included).  Prints
one digest per job family and exits 0 when every family is identical.  At
the first job whose outcome differs it prints the job and the command that
replays it, and exits 1; a git or usage error exits 2.  Only the standard
library is used.

Families, N jobs each (default 2000):
  run_pair        run_pair against FirstIndex, MaxGrowth, SeededRandom,
                  Scripted and a FirstIndex that aborts after some runs;
  solve           solve on 2-5 points against the same adversaries;
  positivize_all  positivize_all, and positivize of the first element;
  monomialize     monomialize on rings with 1-3 toric variables, and
                  divisibility_transform of two of its terms' toric parts;
  cli             perron.cli.main in-process on every subcommand, with and
                  without --trace, malformed jobs among them.
Step limits are None or 0-1000.  Inputs include mixed-magnitude entries of
up to 4,096 bits, lopsided pairs and Perron runs that last up to 10^30
rounds, and norm ties.  A job's digest covers its result (steps.runs
included) or its exception's type, message and partial trace; for the CLI,
the exit code and the bytes written to stdout and stderr.  Job k of a family
depends only on the seed, the family and k, so a larger --jobs extends the
corpus and --replay reruns one job on both sides.

--counts also prints, for each side, how many times each family's jobs call
four names of perron.engine, wrapped from outside: _J_rule (one decision of
the descent), _repeat_count (one run or block length), apply_run (one row
moved by one run) and advance_champion (one champion sweep); the workers
always count.  Counts show cost without a clock; they are printed and never
compared, since a change may move them on purpose.
tests/test_differential.py holds those of a 200-job slice.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from enum import Enum
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("run_pair", "solve", "positivize_all", "monomialize", "cli")
COUNTED = ("_J_rule", "_repeat_count", "apply_run", "advance_champion")
ADVERSARIES = ("first", "max_growth", "random", "scripted", "abort")


# ---------------------------------------------------------------------------
# job generators: plain data only, so a job prints as a Python literal

def entry(rng, bits):
    """Below 2^k, k uniform in 0..bits: mixed magnitudes in one vector."""
    return rng.getrandbits(rng.randint(0, bits)) if bits else 0


def adversary_and_limit(rng, n):
    """(adversary spec, step limit, entry bits).  Adversaries that answer one
    round at a time get small entries when nothing limits the rounds."""
    kind = rng.choice(ADVERSARIES)
    spec = {"first": ["first"], "max_growth": ["max_growth"],
            "random": ["random", rng.getrandbits(32)],
            "scripted": ["scripted", [rng.randint(1, n + 1) for _ in range(rng.randint(0, 6))]],
            "abort": ["abort", rng.randint(0, 4)]}[kind]
    limit = rng.choice([None, None, rng.randint(0, 12), rng.randint(0, 1000)])
    runs_whole = kind in ("first", "abort")
    bits = rng.choice([4, 16, 64, 256, 4096] if runs_whole or limit is not None else [3, 5])
    return spec, limit, bits


def pair_job(rng):
    n = rng.randint(2, 5)
    adversary, limit, bits = adversary_and_limit(rng, n)
    if bits > 256:
        n = min(n, 3)
    shape = rng.choice(["mixed", "mixed", "lopsided", "tie"])
    if shape == "lopsided":  # (N, 0, ...) against (0, ..., 1): runs of about N rounds
        N = entry(rng, bits) + 2
        alpha = [N] + [entry(rng, 2) for _ in range(n - 1)]
        beta = [entry(rng, 2) for _ in range(n - 1)] + [1]
        alpha[-1], beta[0] = 0, 0
    else:
        alpha = [entry(rng, bits) for _ in range(n)]
        beta = [entry(rng, bits) for _ in range(n)]
        if shape == "tie":  # equal norms: the reduced pair starts at a tie
            beta[-1] = max(0, sum(alpha) - sum(beta[:-1]))
    return {"alpha": alpha, "beta": beta, "adversary": adversary, "step_limit": limit}


def solve_job(rng):
    n = rng.randint(2, 4)
    adversary, limit, bits = adversary_and_limit(rng, n)
    bits = min(bits, 64)
    vectors = [[entry(rng, bits) for _ in range(n)] for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.2:  # a point off the common dimension
        vectors[-1] = vectors[-1][:-1]
    return {"vectors": vectors, "adversary": adversary, "step_limit": limit}


def rational(rng, bits):
    return Fraction(rng.randint(-entry(rng, bits), entry(rng, bits)), entry(rng, bits) + 1)


def group_images(rng, rank, dim, bits):
    """Lex-positive images: echelon-shaped (independent), or dense with a
    positive first entry (independent almost always; otherwise the job checks
    the validation message)."""
    if rng.random() < 0.5:
        rows = []
        for i in range(rank):
            row = [Fraction(0)] * dim
            row[i] = Fraction(entry(rng, bits) + 1, entry(rng, bits) + 1)
            row[i + 1:] = [rational(rng, bits) for _ in range(dim - i - 1)]
            rows.append(row)
        return rows
    return [[Fraction(entry(rng, bits) + 1, entry(rng, bits) + 1)]
            + [rational(rng, bits) for _ in range(dim - 1)] for _ in range(rank)]


def lex_sign(v):
    return next((1 if x > 0 else -1 for x in v if x), 0)


def positive_coords(rng, images, bits):
    coords = [rng.randint(-entry(rng, bits), entry(rng, bits)) for _ in images]
    value = [sum(c * img[k] for c, img in zip(coords, images))
             for k in range(len(images[0]))]
    return [-c for c in coords] if lex_sign(value) < 0 else coords


def fractions_out(rows):
    return [[str(x) for x in row] for row in rows]


def positivize_job(rng):
    limit = rng.choice([None, None, rng.randint(0, 12), rng.randint(0, 1000)])
    if rng.random() < 0.3:  # the long-descent shape: one run of N - 1 rounds
        N = rng.choice([rng.randint(2, 10 ** 4), rng.randint(2, 10 ** 30)])
        images = [[Fraction(1), Fraction(0)], [Fraction(1, N), Fraction(1)]]
        elements = [[1, -(N - 1)]]
    else:
        # without a limit, 64-bit images of rank 3 or more, or 64-bit
        # coordinates, can take 10^5 runs of one round each
        bits = rng.choice([3, 8, 64])
        rank = rng.randint(1, 2 if bits > 8 and limit is None else 4)
        dim = rng.randint(rank, rank + 1)
        images = group_images(rng, rank, dim, bits)
        elements = [positive_coords(rng, images, rng.choice([4, 16] if limit is None else [4, 16, 64]))
                    for _ in range(rng.randint(0, 4))]
    return {"images": fractions_out(images), "elements": elements, "step_limit": limit}


def monomialize_job(rng):
    n = rng.randint(1, 3)
    images = group_images(rng, n, n, rng.choice([3, 8, 32]))
    tails = []
    for _ in range(rng.randint(0, 2)):
        tail = [rational(rng, 3) for _ in range(n)]
        if lex_sign(tail) <= 0:
            tail = [-x for x in tail] if lex_sign(tail) else [Fraction(1)] + tail[1:]
        tails.append(tail)
    m = n + len(tails)
    terms = [[[rng.randint(0, 4) for _ in range(m)],
              str(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))]
             for _ in range(rng.randint(1, 5))]
    return {"num_vars": m, "num_toric": n, "values": fractions_out(images + tails),
            "terms": terms,
            "step_limit": rng.choice([None, None, rng.randint(0, 12), rng.randint(0, 1000)])}


def cli_adversary(spec):
    """The job document's adversary; the aborting one becomes interactive."""
    kind = spec[0]
    if kind in ("random", "scripted"):
        return {"kind": kind, ("seed" if kind == "random" else "choices"): spec[1]}
    return {"kind": "interactive" if kind == "abort" else kind}


def cli_job(rng):
    """argv and stdin text for one in-process call of perron.cli.main.  The
    job's step limit, when it has one, becomes --step-limit; else the CLI's
    default of 10^6 applies."""
    command = rng.choice(["compare", "game solve", "game play", "positivize",
                          "monomialize", "usage"])
    if command == "usage":
        argv = rng.choice([["--help"], ["game"], ["compare", "--bogus"], [],
                           ["game", "play", "--help"], ["positivize", "--step-limit", "x"]])
        return {"argv": argv, "stdin": ""}
    if command == "compare":
        job = pair_job(rng)
        doc = {"alpha": job["alpha"], "beta": job["beta"],
               "adversary": cli_adversary(job["adversary"])}
    elif command.startswith("game"):
        job = solve_job(rng)
        doc = {"vectors": job["vectors"]}
        if command == "game solve":
            doc["adversary"] = cli_adversary(job["adversary"])
    elif command == "positivize":
        job = positivize_job(rng)
        doc = {"generator_images": job["images"], "elements": job["elements"]}
    else:
        job = monomialize_job(rng)
        doc = {key: job[key] for key in ("num_vars", "num_toric", "values")}
        doc["polynomial"] = [{"coeff": c, "exponents": e} for e, c in job["terms"]]
    if rng.random() < 0.1:  # malformed: a field missing or of the wrong type
        key = rng.choice(sorted(doc))
        if rng.random() < 0.5:
            del doc[key]
        else:
            doc[key] = rng.choice([None, "x", 1.5, [], {}])
    text = json.dumps(doc, separators=(",", ":"))
    if rng.random() < 0.05:
        text += rng.choice([" x", "}", "\n\n"])
    # interactive choices: a wrong one or an early end of input among them
    choices = "".join(rng.choice(["1\n", "2\n", "3\n", "x\n", "\n"])
                      for _ in range(rng.randint(0, 8)))
    argv = command.split() + (["--trace"] if rng.random() < 0.5 else [])
    if job["step_limit"] is not None:
        argv += ["--step-limit", str(job["step_limit"])]
    return {"argv": argv, "stdin": text + "\n" + choices}


GENERATORS = {"run_pair": pair_job, "solve": solve_job, "positivize_all": positivize_job,
              "monomialize": monomialize_job, "cli": cli_job}


def make_job(seed, family, k):
    return GENERATORS[family](random.Random(f"{seed}:{family}:{k}"))


# ---------------------------------------------------------------------------
# the worker side: run jobs against the perron on sys.path, digest outcomes

def canon(x):
    """A plain, ordered form of a result, whose repr is its digest input."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return x if abs(x) < 1 << 64 else ("int", hex(x))  # repr caps digits
    if isinstance(x, Fraction):
        return ("Fraction", canon(x.numerator), canon(x.denominator))
    if isinstance(x, Enum):
        return (type(x).__name__, x.name)
    name = type(x).__name__
    if name == "Step":
        return ("Step", sorted(x.J), x.j, x.dim)
    if name == "Trace":
        return ("Trace", canon(x.runs))
    if isinstance(x, (set, frozenset)):
        return (name, sorted(map(canon, x), key=repr))
    if isinstance(x, dict):
        return (name, sorted(([canon(k), canon(v)] for k, v in x.items()), key=repr))
    if hasattr(x, "_fields"):
        return (name, [[f, canon(getattr(x, f))] for f in x._fields])
    if isinstance(x, (tuple, list)):
        return (name, [canon(v) for v in x])
    return ("object", name, repr(x))


def outcome(call):
    try:
        return ("ok", canon(call()))
    except (Exception, SystemExit) as exc:
        return ("raised", type(exc).__name__, str(exc), canon(getattr(exc, "steps", None)))


def runner(perron):
    """Job runners for each family, bound to the imported package."""
    from perron import cli

    class Aborting(perron.FirstIndex):
        """FirstIndex that raises InteractiveAborted at its (runs + 1)-th
        choice.  Its answer holds for whole runs and blocks: repeat answers
        limit."""

        def __init__(self, runs):
            self.runs = runs

        def choose(self, J, vectors, round_no):
            if not self.runs:
                raise perron.InteractiveAborted("aborted")
            self.runs -= 1
            return min(J)

        def repeat(self, block, limit):
            return limit

    def adversary(spec):
        kind, *args = spec
        return {"first": perron.FirstIndex, "max_growth": perron.MaxGrowth,
                "random": perron.SeededRandom, "scripted": perron.Scripted,
                "abort": Aborting}[kind](*args)

    def order(rows):
        return perron.GroupOrder(tuple(perron.lexvec(row) for row in rows))

    def run_pair(job):
        return outcome(lambda: perron.run_pair(job["alpha"], job["beta"],
                                               adversary(job["adversary"]), job["step_limit"]))

    def solve(job):
        return outcome(lambda: perron.solve(job["vectors"], adversary(job["adversary"]),
                                            job["step_limit"]))

    def positivize_all(job):
        def elements():
            basis = perron.GroupBasis.initial(order(job["images"]))
            return basis, [perron.GroupElement(basis, tuple(e)) for e in job["elements"]]

        def first():
            basis, found = elements()
            return perron.positivize(basis, found[0], job["step_limit"]) if found else None

        return (outcome(lambda: perron.positivize_all(*elements(), job["step_limit"])),
                outcome(first))

    def monomialize(job):
        def ring():
            return perron.ValuedRing(job["num_vars"], job["num_toric"],
                                     order(job["values"]).images)

        def call():
            f = perron.polynomial([(e, Fraction(c)) for e, c in job["terms"]])
            return perron.monomialize(ring(), f, job["step_limit"])

        # the toric parts of the first and last terms, in that order: M1 may
        # be above M2, or equal to it
        m1, m2 = (e[:job["num_toric"]] + [0] * (job["num_vars"] - job["num_toric"])
                  for e, _ in (job["terms"][0], job["terms"][-1]))
        return outcome(call), outcome(lambda: perron.divisibility_transform(ring(), m1, m2))

    def run_cli(job):
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(job["stdin"]), io.StringIO(), io.StringIO()
        try:
            code = outcome(lambda: cli.main(list(job["argv"])))
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        # a trace of 10^6 rounds is about 18 MB: keep long streams as digests
        return code, *[text if len(text) < 4096 else
                       ("sha256", hashlib.sha256(text.encode()).hexdigest(), len(text))
                       for text in (out, err)]

    return {"run_pair": run_pair, "solve": solve, "positivize_all": positivize_all,
            "monomialize": monomialize, "cli": run_cli}


def job_digests(run, seed, family, jobs):
    """sha256 of the outcome of each of the family's first `jobs` jobs."""
    return [hashlib.sha256(repr(run[family](make_job(seed, family, k))).encode()).hexdigest()
            for k in range(jobs)]


@contextlib.contextmanager
def counting(engine):
    """Wrap each COUNTED name of the engine module while the block runs;
    yield the dict of their call counts, which the block fills."""
    counts = dict.fromkeys(COUNTED, 0)
    saved = {name: getattr(engine, name) for name in COUNTED}

    def counted(name, f):
        def call(*args):
            counts[name] += 1
            return f(*args)
        return call

    for name, f in saved.items():
        setattr(engine, name, counted(name, f))
    try:
        yield counts
    finally:
        for name, f in saved.items():
            setattr(engine, name, f)


def family_digest(digests):
    """The digest printed for a family: 16 hex digits of the sha256 of its
    job digests.  tests/test_differential.py holds those of a 200-job slice."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def worker(src, seed, jobs, only):
    """Print, as one JSON line, each family's per-job digests and engine call
    counts (or, for only = (family, k), that job's outcome)."""
    sys.path.insert(0, src)
    import perron
    if not Path(perron.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"perron imported from {perron.__file__}, not from {src}")
    run = runner(perron)
    if only:
        family, k = only
        print(json.dumps(repr(run[family](make_job(seed, family, k)))))
        return
    digests, tallies = {}, {}
    for family in FAMILIES:
        with counting(perron.engine) as tally:
            digests[family] = job_digests(run, seed, family, jobs)
        tallies[family] = tally
    print(json.dumps({"digests": digests, "counts": tallies}))


# ---------------------------------------------------------------------------
# the driver: export REV, run both sides, compare

def fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def export(rev, into):
    """Write REV's src/ under the directory `into`; return the src path."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True)
    if tar.returncode:
        fail(f"git archive {rev} failed: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        # the "data" filter exists from Python 3.12 and in late 3.10/3.11 releases
        archive.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return os.path.join(into, "src")


def side(src, args, only=None):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, __file__, "--worker", src, "--seed", str(args.seed),
           "--jobs", str(args.jobs)]
    if only:
        cmd += ["--replay", f"{only[0]}:{only[1]}"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if done.returncode:
        fail(f"worker on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def parse_replay(text):
    family, _, k = text.partition(":")
    if family not in FAMILIES or not k.isdigit():
        raise argparse.ArgumentTypeError(f"expected FAMILY:INDEX, FAMILY one of {FAMILIES}")
    return family, int(k)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rev", help="git revision to compare the working tree with")
    parser.add_argument("--jobs", type=int, default=2000, help="jobs per family (2000)")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (0)")
    parser.add_argument("--replay", type=parse_replay, metavar="FAMILY:INDEX",
                        help="rerun one job on both sides and print both outcomes")
    parser.add_argument("--counts", action="store_true",
                        help="also print each side's engine call counts per family")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.seed, args.jobs, args.replay)
    if not args.rev:
        parser.error("--rev is required")
    with tempfile.TemporaryDirectory(prefix="perron-differential-") as tmp:
        sides = {args.rev: export(args.rev, tmp), "working tree": str(ROOT / "src")}
        if args.replay:
            print(f"job {args.replay[0]}:{args.replay[1]} (seed {args.seed}):",
                  make_job(args.seed, *args.replay))
            for name, src in sides.items():
                print(f"{name}:", side(src, args, args.replay))
            return 0
        results = {name: side(src, args) for name, src in sides.items()}
    if args.counts:
        print(f"{'family':<15} {'side':<15}" + "".join(f"{name:>17}" for name in COUNTED))
        for family in FAMILIES:
            for name, result in results.items():
                print(f"{family:<15} {name:<15}"
                      + "".join(f"{result['counts'][family][c]:>17,}" for c in COUNTED))
        print()
    base, new = (result["digests"] for result in results.values())
    print(f"{'family':<15} {'jobs':>5}  digest (sha256 of the job digests)")
    for family in FAMILIES:
        same = base[family] == new[family]
        print(f"{family:<15} {args.jobs:>5}  {family_digest(new[family])}  "
              f"{'identical' if same else 'DIFFERENT'}")
        if not same:
            k = next(k for k, (a, b) in enumerate(zip(base[family], new[family])) if a != b)
            print(f"\nfirst differing job, {family}:{k}:", make_job(args.seed, family, k))
            print(f"replay: python scripts/differential.py --rev {args.rev} "
                  f"--seed {args.seed} --replay {family}:{k}")
            return 1
    print(f"identical to {args.rev} on {len(FAMILIES) * args.jobs} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
