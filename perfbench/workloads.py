"""The benchmark's workloads: seeded input generators, the timed op, and the
exact oracle that checks each op's output.

Every workload is a pool of op inputs built from one seed.  `run(op)` is the
only part that is timed; `check(op, result)` runs with the clock stopped,
raises `OracleFailure` on a wrong answer, and returns the op's exact counts.
Library functions are looked up on the `perron` package at call time, so the
tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import array
import contextlib
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import perron


class OracleFailure(Exception):
    """An op returned a result its exact oracle rejects."""


def tally(rounds=0, nodes=0, leaves=0, max_depth=0, max_entry_bits=0):
    return {"rounds": rounds, "nodes": nodes, "leaves": leaves,
            "max_depth": max_depth, "max_entry_bits": max_entry_bits}


def add_tally(total, t):
    """Fold one op's tally into a running total: sums, and maxima for max_*."""
    for key, value in t.items():
        if key.startswith("max_"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def _require(condition, message):
    if not condition:
        raise OracleFailure(message)


def _entry_bits(vectors):
    return max((abs(x).bit_length() for v in vectors for x in v), default=0)


def _check_trace(steps, n, starts, finals):
    """The composed step matrix is unimodular and maps each start to its final."""
    m = perron.compose_trace(steps, n)
    _require(perron.determinant(m) == 1, "trace matrix has determinant != 1")
    for start, final in zip(starts, finals):
        _require(perron.apply_matrix(m, start) == tuple(final),
                 "trace matrix does not map the start to the final vector")


# ---------------------------------------------------------------------------
# game-tree: the criterion-4 adversary-tree walk

GRID_DIM = 3
GRID_MAX_ENTRY = 4
SET_SIZE = 3


class GameTree:
    """op = one starting set (n=3, entries <= 4, |V|=3, in grid order) walked
    over every adversary choice sequence, as acceptance criterion 4 does.

    Starting sets are drawn on demand, uniformly and without repeats, and
    kept as packed point indices: the walk, not the input pool, fills the
    worker's memory and set-up time."""

    name = "game-tree"
    block = 1

    def __init__(self, seed):
        self.points = [perron.natvec(p) for p in
                       itertools.product(range(GRID_MAX_ENTRY + 1), repeat=GRID_DIM)]
        self.sets = math.comb(len(self.points), SET_SIZE)
        self.rng = random.Random(seed)
        self.drawn = array.array("I")
        self.seen = set()

    def op(self, k):
        p = len(self.points)
        while len(self.drawn) <= k and len(self.drawn) < self.sets:
            key = 0
            for i in sorted(self.rng.sample(range(p), SET_SIZE)):
                key = key * p + i
            if key not in self.seen:
                self.seen.add(key)
                self.drawn.append(key)
        key = self.drawn[k % len(self.drawn)]
        combo = []
        for _ in range(SET_SIZE):
            key, i = divmod(key, p)
            combo.append(self.points[i])
        return tuple(reversed(combo))

    def run(self, combo):
        advance_champion, choose_J = perron.advance_champion, perron.choose_J
        Step, apply_step, is_won = perron.Step, perron.apply_step, perron.is_won
        n = len(combo[0])
        nodes = 0
        leaves = []
        stack = [(combo, 0, 0)]
        while stack:
            vs, champ, depth = stack.pop()
            nodes += 1
            champ, target = advance_champion(vs, champ)
            if target is None:
                leaves.append((vs, is_won(vs), depth))
                continue
            J = choose_J(vs[champ], vs[target])
            for j in sorted(J):
                step = Step(J, j, n)
                stack.append((tuple(apply_step(step, v) for v in vs), champ,
                              depth + 1))
        return nodes, leaves

    def check(self, combo, result):
        nodes, leaves = result
        for vs, winner, _ in leaves:
            _require(winner is not None, "leaf position is not won")
            _require(all(all(x <= y for x, y in zip(vs[winner], v)) for v in vs),
                     "winner is not a componentwise minimum")
        return tally(rounds=nodes - 1, nodes=nodes, leaves=len(leaves),
                     max_depth=max(d for _, _, d in leaves),
                     max_entry_bits=max(_entry_bits(vs) for vs, _, _ in leaves))


# ---------------------------------------------------------------------------
# long-descent: lopsided pairs, games and groups that take many rounds

# One block: fifteen jobs whose target round counts are log-spaced from 10^3
# to 2*10^4, the kinds taking turns along that ladder, in a fixed order.
# Every block has the same sizes, kinds, shapes and order, so runs made of
# whole blocks have the same mix (and allocation pattern) whatever the seed.
# The odd block size puts the median of any number of whole blocks among the
# samples of one job of the block, never between two jobs of different size.
BLOCK_JOBS = 15
KINDS = ("pair", "solve", "positivize")
LADDER = tuple(round(1000 * 20 ** (j / (BLOCK_JOBS - 1)))
               for j in range(BLOCK_JOBS))
JITTER = 0.01
POOL_BLOCKS = 24

# (alpha, beta, k) for run_pair against FirstIndex: with alpha's first
# coordinate set to k*R the pair takes R rounds (R+1 for the third shape).
# Zero coordinates may be inserted anywhere without changing the descent.
PAIR_SHAPES = (
    ((1, 1), (0, 2), 1),
    ((1, 0), (0, 1), 1),
    ((1, 1, 0), (0, 0, 1), 1),
    ((1, 1, 0), (0, 0, 2), 2),
    ((1, 0, 1), (0, 1, 2), 2),
)


def _lopsided_pair(rng, rounds, variant):
    alpha, beta, k = PAIR_SHAPES[variant % len(PAIR_SHAPES)]
    alpha = (rounds * k,) + alpha[1:]
    while len(alpha) < 3 + variant % 2:
        at = rng.randint(0, len(alpha))
        alpha = alpha[:at] + (0,) + alpha[at:]
        beta = beta[:at] + (0,) + beta[at:]
    return perron.natvec(alpha), perron.natvec(beta)


def _ill_conditioned_group(rng, rounds, variant):
    """Images (s,0), (s/N, s*t) and the element (1, -(N-1)), which takes N-1
    positivize steps; in odd variants a third generator stays out of the
    descent."""
    big = rounds + 1
    s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    images = [(s, Fraction(0)), (s / big, s * t)]
    coords = [1, -(big - 1)]
    if variant % 2:
        images = [img + (Fraction(0),) for img in images]
        images.append((Fraction(0), Fraction(rng.randint(0, 9), 7),
                       Fraction(rng.randint(1, 9), 5)))
        coords.append(0)
    order = perron.GroupOrder(tuple(perron.lexvec(img) for img in images))
    _require(not perron.validate_order(order), "generated an invalid order")
    basis = perron.GroupBasis.initial(order)
    element = perron.GroupElement(basis, tuple(coords))
    if perron.lex_sign(perron.element_value(element)) < 0:
        coords = [-c for c in coords]
    return order.images, tuple(coords)


class LongDescent:
    """op = one job: run_pair against FirstIndex on a lopsided pair, solve on
    a 3-4 point set containing one, or positivize in an ill-conditioned
    group; 10^3 to 2*10^4 rounds each."""

    name = "long-descent"
    block = BLOCK_JOBS

    def __init__(self, seed):
        rng = random.Random(seed)
        self.pool = []
        for _ in range(POOL_BLOCKS):
            for j, size in enumerate(LADDER):
                rounds = round(size * rng.uniform(1 - JITTER, 1 + JITTER))
                self.pool.append(self._job(rng, KINDS[j % len(KINDS)], rounds,
                                           variant=j // len(KINDS)))

    @staticmethod
    def _job(rng, kind, rounds, variant):
        """The seed picks the numbers; `variant` picks the pair shape,
        dimension, set size and rank."""
        if kind == "positivize":
            return (kind,) + _ill_conditioned_group(rng, rounds, variant)
        alpha, beta = _lopsided_pair(rng, rounds, variant)
        if kind == "pair":
            return kind, alpha, beta
        vectors = [alpha, beta]
        for _ in range(1 + variant % 2):
            vectors.append(perron.natvec(
                max(a, b) + rng.randint(1, 3) for a, b in zip(alpha, beta)))
        rng.shuffle(vectors)
        return kind, tuple(vectors)

    def op(self, k):
        return self.pool[k % len(self.pool)]

    def run(self, job):
        kind = job[0]
        if kind == "pair":
            return perron.run_pair(job[1], job[2], perron.FirstIndex())
        if kind == "solve":
            return perron.solve(job[1], perron.FirstIndex())
        basis = perron.GroupBasis.initial(perron.GroupOrder(job[1]))
        return perron.positivize(basis, perron.GroupElement(basis, job[2]))

    def check(self, job, result):
        kind = job[0]
        if kind == "pair":
            alpha, beta = job[1], job[2]
            _check_trace(result.steps, len(alpha), (alpha, beta),
                         (result.final_alpha, result.final_beta))
            relation = perron.comparability(result.final_alpha, result.final_beta)
            _require(relation is not perron.Comparability.INCOMPARABLE,
                     "final pair is not comparable")
            _require(relation is result.outcome, "reported relation is wrong")
            return tally(rounds=result.rounds, nodes=result.rounds + 1,
                         max_entry_bits=_entry_bits(
                             (result.final_alpha, result.final_beta)))
        if kind == "solve":
            vectors = job[1]
            _check_trace(result.trace, len(vectors[0]), vectors,
                         result.final_vectors)
            _require(perron.is_won(result.final_vectors) == result.winner_index,
                     "reported winner is not the won position's minimum")
            return tally(rounds=result.rounds, nodes=result.rounds + 1,
                         max_entry_bits=_entry_bits(result.final_vectors))
        images, coords, out = job[1], job[2], result
        _require(all(c >= 0 for c in out.coords), "a coordinate is negative")
        _require(_expansion(out.coords, out.basis.images)
                 == _expansion(coords, images), "expansion identity fails")
        m = perron.compose_trace(out.steps, len(coords))
        _require(perron.determinant(m) == 1, "trace matrix has determinant != 1")
        _require(perron.apply_matrix(m, coords) == out.coords,
                 "trace matrix does not map the element's coordinates")
        rounds = len(out.steps)
        return tally(rounds=rounds, nodes=rounds + 1,
                     max_entry_bits=_entry_bits((coords, out.coords)))


def _expansion(coords, images):
    total = [Fraction(0)] * len(images[0])
    for c, img in zip(coords, images):
        for k, x in enumerate(img):
            total[k] += c * x
    return tuple(total)


# ---------------------------------------------------------------------------
# cli-jobs: small valid jobs through perron.cli.main

ADVERSARIES = ("first", "random", "max_growth")
# One block: the job kinds in fixed proportion, shuffled.
CLI_BLOCK = ("compare", "compare", "game", "game",
             "positivize", "positivize", "monomialize", "monomialize")
CLI_POOL_BLOCKS = 1024


def _random_order(rng, n, d):
    """n rational lex-positive, independent images of length d, drawn as
    criteria 5 and 7 draw them."""
    while True:
        rows = []
        for _ in range(n):
            row = [Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                   for _ in range(d)]
            if perron.lex_sign(tuple(row)) < 0:
                row = [-c for c in row]
            rows.append(tuple(row))
        order = perron.GroupOrder(tuple(rows))
        if not perron.validate_order(order):
            return order


def _positive_coords(rng, basis):
    """Random non-zero coordinates, flipped when the element is negative."""
    while True:
        coords = tuple(rng.randint(-9, 9) for _ in range(basis.rank))
        if any(coords):
            break
    element = perron.GroupElement(basis, coords)
    if perron.lex_sign(perron.element_value(element)) < 0:
        coords = tuple(-c for c in coords)
    return coords


def _adversary(rng):
    kind = rng.choice(ADVERSARIES)
    if kind == "random":
        return {"kind": "random", "seed": rng.randrange(2 ** 32)}
    return {"kind": kind}


def _cli_job(rng, kind):
    """(argv, job document) of one small job the CLI must accept.  Compare
    and game jobs report their rounds, so only some ask for the trace;
    positivize and monomialize always do, since the trace is their round count."""
    flags = ["--trace"] if rng.random() < 0.3 else []
    if kind == "compare":
        n = rng.randint(2, 5)
        while True:
            alpha = [rng.randint(0, 30) for _ in range(n)]
            beta = [rng.randint(0, 30) for _ in range(n)]
            if perron.comparability(perron.natvec(alpha), perron.natvec(beta)) \
                    is perron.Comparability.INCOMPARABLE:
                break
        return ["compare"] + flags, {"alpha": alpha, "beta": beta,
                                     "adversary": _adversary(rng)}
    if kind == "game":
        n = rng.randint(2, 4)
        vectors = [[rng.randint(0, 12) for _ in range(n)]
                   for _ in range(rng.randint(2, 4))]
        for v in vectors:
            perron.natvec(v)
        return ["game", "solve"] + flags, {"vectors": vectors,
                                           "adversary": _adversary(rng)}
    if kind == "positivize":
        d = rng.randint(1, 3)
        order = _random_order(rng, rng.randint(1, min(4, d)), d)
        basis = perron.GroupBasis.initial(order)
        elements = [list(_positive_coords(rng, basis))
                    for _ in range(rng.randint(1, 3))]
        return ["positivize", "--trace"], {
            "generator_images": [[str(c) for c in img] for img in order.images],
            "elements": elements}
    return ["monomialize", "--trace"], _monomialize_job(rng)


def _monomialize_job(rng):
    """A ring and polynomial drawn as criterion 7 draws them."""
    n = rng.randint(1, 3)
    values = list(_random_order(rng, n, n).images)
    extra = rng.randint(0, 5 - n)
    for _ in range(extra):
        row = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        if perron.lex_sign(tuple(row)) <= 0:
            row[0] = Fraction(1) + abs(row[0])
        values.append(tuple(row))
    m = n + extra
    ring = perron.ValuedRing(m, n, tuple(values))
    _require(not perron.validate_ring(ring), "generated an invalid ring")
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exponents = tuple(rng.randint(0, 4) for _ in range(m))
        terms[exponents] = Fraction(rng.choice([c for c in range(-9, 10) if c]),
                                    rng.randint(1, 9))
    return {"num_vars": m, "num_toric": n,
            "values": [[str(c) for c in v] for v in values],
            "polynomial": [{"coeff": str(c), "exponents": list(e)}
                           for e, c in terms.items()]}


def cli_jobs(seed, count):
    """`count` seeded jobs as (argv, stdin text), in whole shuffled blocks."""
    rng = random.Random(seed)
    jobs = []
    while len(jobs) < count:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for kind in block:
            argv, doc = _cli_job(rng, kind)
            jobs.append((argv, json.dumps(doc)))
    return jobs[:count]


def check_cli_output(argv, stdin_text, code, stdout_text):
    """One result document, status ok, exit 0, and the exact identities the
    document lets us rebuild; returns the op's tally."""
    _require(code == 0, f"exit code {code}")
    doc, end = json.JSONDecoder().raw_decode(stdout_text)
    _require(not stdout_text[end:].strip(), "more than one result document")
    _require(doc.get("status") == "ok", "status is not ok")
    job = json.loads(stdin_text)
    payload = doc["payload"]
    steps = doc.get("trace")
    if argv[0] == "monomialize":
        _check_factorization(job, payload)
    if argv[0] == "compare":
        finals = [tuple(int(x) for x in payload[k])
                  for k in ("final_alpha", "final_beta")]
        starts = [tuple(job["alpha"]), tuple(job["beta"])]
        m = tuple(tuple(int(x) for x in row) for row in payload["matrix"])
        _require(perron.determinant(m) == 1, "compare matrix has determinant != 1")
        for start, final in zip(starts, finals):
            _require(perron.apply_matrix(m, start) == final,
                     "compare matrix does not map the start to the final")
        rounds = payload["rounds"]
        bits = _entry_bits(finals)
    elif argv[0] == "game":
        finals = [tuple(int(x) for x in v) for v in payload["final_vectors"]]
        _require(perron.is_won(finals) == payload["winner_index"],
                 "reported winner is not the won position's minimum")
        rounds = payload["rounds"]
        bits = _entry_bits(finals)
    elif argv[0] == "positivize":
        coords = [tuple(int(x) for x in c) for c in payload["coords"]]
        images = [tuple(Fraction(x) for x in img)
                  for img in payload["basis_images"]]
        original = [tuple(Fraction(x) for x in img)
                    for img in job["generator_images"]]
        for before, after in zip(job["elements"], coords):
            _require(all(c >= 0 for c in after), "a coordinate is negative")
            _require(_expansion(after, images) == _expansion(before, original),
                     "expansion identity fails")
        rounds = len(steps)
        bits = _entry_bits(coords)
    else:
        rounds = len(steps)
        bits = _entry_bits([payload["factor_exponents"]])
    if steps is not None:
        _require(len(steps) == rounds, "trace length differs from rounds")
    return tally(rounds=rounds, nodes=rounds + 1, max_entry_bits=bits)


def _check_factorization(job, payload):
    """f under the emitted substitution equals monomial * unit, exactly."""
    m, n = job["num_vars"], job["num_toric"]
    f = perron.polynomial([(t["exponents"], Fraction(t["coeff"]))
                           for t in job["polynomial"]])
    substitution = perron.Substitution(
        tuple(tuple(int(x) for x in row) for row in payload["substitution"]), m)
    _require(perron.determinant(substitution.matrix) == 1,
             "substitution has determinant != 1")
    shift = tuple(int(x) for x in payload["factor_exponents"]) + (0,) * (m - n)
    unit = {tuple(int(x) for x in t["exponents"]): Fraction(t["coeff"])
            for t in payload["unit"]}
    product = {tuple(x + y for x, y in zip(e, shift)): c for e, c in unit.items()}
    _require(product == perron.apply_substitution(f, substitution),
             "factorization identity fails")
    _require(any(all(e[k] == 0 for k in range(n)) for e in unit),
             "unit part lies inside the toric ideal")


class CliJobs:
    """op = one small job through in-process perron.cli.main(argv), with
    stdin and stdout redirected: compare, game solve, positivize, monomialize."""

    name = "cli-jobs"
    block = len(CLI_BLOCK)

    def __init__(self, seed):
        import perron.cli  # noqa: F401  (the op needs it; importing is set-up)
        self.pool = cli_jobs(seed, CLI_POOL_BLOCKS * len(CLI_BLOCK))

    def op(self, k):
        return self.pool[k % len(self.pool)]

    def run(self, job):
        argv, stdin_text = job
        out = io.StringIO()
        with contextlib.redirect_stdout(out), _redirect_stdin(stdin_text):
            code = perron.cli.main(list(argv))
        return code, out.getvalue()

    def check(self, job, result):
        return check_cli_output(job[0], job[1], *result)


@contextlib.contextmanager
def _redirect_stdin(text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


WORKLOADS = {cls.name: cls for cls in (GameTree, LongDescent, CliJobs)}
