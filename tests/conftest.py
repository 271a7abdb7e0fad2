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
    """Compile (or cache-load) every jit kernel before any timed test runs."""
    ncbeta.warmup()
