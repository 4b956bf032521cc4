"""Shared fixtures for the EM-X reproduction test suite."""

from __future__ import annotations

import os

import pytest

from repro import EMX, MachineConfig


@pytest.fixture
def machine4() -> EMX:
    """A 4-processor machine with small memory, detailed network."""
    return EMX(MachineConfig(n_pes=4, memory_words=1 << 16))


@pytest.fixture
def machine16() -> EMX:
    """A 16-processor machine (one of the paper's platforms)."""
    return EMX(MachineConfig(n_pes=16, memory_words=1 << 16))


@pytest.fixture(autouse=True)
def _tiny_scale(monkeypatch):
    """Default every test to the tiny experiment scale."""
    monkeypatch.setenv("REPRO_SCALE", "tiny")


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the default disk-cache root at a session-temporary one.

    Keeps the suite hermetic: no test reads results a developer's
    ``~/.cache/repro`` happens to hold, and no test pollutes it.
    """
    root = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    yield root
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous

