"""The first 200 jobs of each family of scripts/differential.py's corpus,
run in-process and checked against digests committed here.

The digests are those that `python scripts/differential.py --rev HEAD --jobs
200` prints, and hold on Python 3.10-3.13 under any PYTHONHASHSEED.  An
intended change of behaviour that moves a digest updates it here and says so
in CHANGES.md, as the golden CLI tests do.
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


@pytest.fixture(scope="module")
def differential():
    spec = importlib.util.spec_from_file_location("differential", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_family_is_checked(differential):
    assert tuple(DIGESTS) == differential.FAMILIES


@pytest.mark.parametrize("family", list(DIGESTS))
def test_corpus_slice_matches_its_digest(differential, family):
    run = differential.runner(perron)
    digests = differential.job_digests(run, SEED, family, JOBS)
    assert differential.family_digest(digests) == DIGESTS[family]
