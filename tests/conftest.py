import gc
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nsmlimit.spectral import Grid

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

SPILL_GLOB = "nsmlimit-spill-*"  # a run's snapshot spill files (``harness._Snapshots``)


def pytest_configure(config):
    """Give the session a temporary directory of its own, through TMPDIR, so
    that what a test or a subprocess leaves there is the session's."""
    config.session_tmpdir = Path(tempfile.mkdtemp(prefix="nsmlimit-tests-"))
    os.environ["TMPDIR"] = str(config.session_tmpdir)
    tempfile.tempdir = None  # read TMPDIR again


def pytest_sessionfinish(session, exitstatus):
    """Fail the session if a spill file outlived the records that own it."""
    tmpdir = getattr(session.config, "session_tmpdir", None)
    if tmpdir is None:
        return
    gc.collect()  # records held by a failed test's traceback
    left = sorted(p.name for p in tmpdir.glob(SPILL_GLOB))
    if left:
        session.config.get_terminal_writer().line(f"spill files left behind in {tmpdir}: {left}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
    else:
        shutil.rmtree(tmpdir, ignore_errors=True)


@pytest.fixture(scope="session")
def grid64():
    return Grid(dims_active=1, points_per_dim=64)


@pytest.fixture(scope="session")
def grid2d():
    return Grid(dims_active=2, points_per_dim=16)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
