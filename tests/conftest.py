from __future__ import annotations

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    assert FIXTURES_DIR.is_dir(), "fixtures/ missing; run fixtures.write_all"
    return FIXTURES_DIR


@pytest.fixture(autouse=True)
def fresh_sweep_pool():
    """Drop the sweeps' shared process pool when each test ends.  Its
    workers run the modules as they were when it forked, so a test that
    patches sweep internals and then sweeps at ``jobs > 1`` needs a pool
    forked after the patch, and a test that fakes the pool class must not
    be handed a real pool an earlier test left alive."""
    yield
    from pirates_treasure.theory import sweeps

    sweeps._drop_pool()


@pytest.fixture
def sweeps_must_not_start(monkeypatch):
    """Make any graph enumeration, graph draw or sweep runner call fail at
    once, so a missing input check fails fast instead of checking millions
    of boards."""
    from pirates_treasure.theory import sweeps

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep must not start")

    for name in ("connected_adjacencies", "random_uniform_bits", "_sweep"):
        monkeypatch.setattr(sweeps, name, refuse)
