"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest


def pytest_configure(config):
    """Child processes that run python -m fqdyn find the package where
    this one does, in src/, whether or not fqdyn is installed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid of every child os.fork starts in this process during the
    test, in order; a forked child records nothing here."""
    pids = []
    fork = os.fork

    def counted() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids
