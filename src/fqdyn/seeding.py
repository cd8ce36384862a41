"""Deterministic per-sample random streams.

Each sample index gets its own generator derived from (seed, index), so
a sampled run produces identical draws no matter how the index range is
split across workers.  Seeding random.Random with a string hashes it
through SHA-512, which is stable across processes, platforms, and
Python versions (unlike hash()).

A stream serves exactly one sample and is then dropped.  So a sampler
may draw past what it keeps, as the random baseline's bulk draw does,
without moving any other sample's draws.
"""

from __future__ import annotations

import random


def per_index_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")
