"""Fixtures shared by the test modules."""

import os

import pytest


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
