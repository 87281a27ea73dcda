"""The first 200 jobs of each family of scripts/differential.py's corpus,
run in-process and checked against digests and engine call counts committed
here.

The digests and counts are those that `python scripts/differential.py --rev
HEAD --jobs 200 --counts` prints, and hold on Python 3.10-3.13 under any
PYTHONHASHSEED.  An intended change of behaviour that moves a digest updates
it here and says so in CHANGES.md, as the golden CLI tests do.  So does a
change of cost that moves a count: a count that falls says what it saves, one
that rises says why.
"""

import importlib.util
from pathlib import Path

import pytest

import perron

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "differential.py"
SEED, JOBS = 0, 200
DIGESTS = {
    "run_pair": "8481643d0eb846ee",
    "solve": "26f273fd04774825",
    "positivize_all": "0ebc32144df12512",
    "monomialize": "370255df1194311c",
    "cli": "7ef05188d20f1b35",
}
# calls of perron.engine's _J_rule, _repeat_count, apply_run and advance_champion
COUNTS = {
    "run_pair": (752, 159, 710, 315),
    "solve": (2167, 151, 7088, 287),
    "positivize_all": (3290, 1388, 4884, 525),
    "monomialize": (373, 116, 387, 361),
    "cli": (2267, 1026, 5286, 206),
}


@pytest.fixture(scope="module")
def differential():
    spec = importlib.util.spec_from_file_location("differential", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus_slice(differential):
    """family -> (job digests, engine call counts), each family run once."""
    run, done = differential.runner(perron), {}

    def of(family):
        if family not in done:
            with differential.counting(perron.engine) as counts:
                done[family] = differential.job_digests(run, SEED, family, JOBS), counts
        return done[family]
    return of


def test_every_family_is_checked(differential):
    assert tuple(DIGESTS) == tuple(COUNTS) == differential.FAMILIES


@pytest.mark.parametrize("family", list(DIGESTS))
def test_corpus_slice_matches_its_digest(differential, corpus_slice, family):
    assert differential.family_digest(corpus_slice(family)[0]) == DIGESTS[family]


@pytest.mark.parametrize("family", list(COUNTS))
def test_corpus_slice_matches_its_counts(differential, corpus_slice, family):
    counts = corpus_slice(family)[1]
    assert tuple(counts[name] for name in differential.COUNTED) == COUNTS[family]
