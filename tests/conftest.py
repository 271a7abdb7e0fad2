import os
from pathlib import Path

import pytest

import ncbeta

# child interpreters started by the tests import the same ncbeta as this one
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(ncbeta.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Run one evaluation and one inversion before any timed test runs, so
    first-call import and cache costs stay out of the runtime budgets."""
    ncbeta.warmup()
