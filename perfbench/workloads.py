"""The four benchmark workloads and the checks on their CLI reports.

Each workload is one `python -m fqdyn` invocation at `--jobs 2` (the core
count of the reference machine), sized to take one to two and a half
seconds there so that a timed run holds many calls.  The reasons for the
choice are in BENCHMARK.json and README.md.  Sampled workloads take `--seed` from the
benchmark's seed argument; the exhaustive ones do not depend on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

JOBS = 2
REFERENCES = Path(__file__).resolve().parent / "references.json"

# numeric report fields pinned per workload (and per seed when sampled)
PINNED_KEYS = (
    "map_count",
    "graph_count",
    "sample_count",
    "seed",
    "avg_components",
    "avg_periodic",
    "avg_k_cycles",
    "stderr_components",
    "stderr_periodic",
    "stderr_k_cycles",
)

# an unpinned sampled average must lie this many standard errors from
# the closed form, plus one map's worth (1/samples) for tiny stderrs
Z_LIMIT = 6


@dataclass(frozen=True)
class Workload:
    name: str
    cli: tuple[str, ...]
    setup: tuple[str, ...]  # timed as setup_s: everything but the census itself
    vertices_per_map: int
    exit_codes: frozenset[int] = frozenset({0})
    samples: int | None = None  # set for sampled workloads
    family: str | None = None  # "poly" | "rational" for field workloads
    p: int = 0
    n: int = 1
    d: int = 0

    @property
    def q(self) -> int:
        return self.p**self.n

    def argv(self, seed: int, jobs: int = JOBS) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.samples is not None else []
        return [*self.cli, *seed_args, "--jobs", str(jobs)]

    def expected_counts(self) -> dict[str, int]:
        """Closed forms for the enumeration counters: raw candidates
        visited and maps accepted, over the exhaustive space."""
        q, d = self.q, self.d
        if self.family == "poly":
            maps = q**d * (q - 1)
            return {"raw_pairs": maps, "maps_accepted": maps}
        # monic denominators of each degree e <= d times every numerator of
        # degree <= d; accepted maps are the coprime pairs of degree exactly
        # d, q^(2d-1)(q^2-1) of them for d >= 1
        return {
            "raw_pairs": q ** (d + 1) * sum(q**e for e in range(d + 1)),
            "maps_accepted": q ** (2 * d - 1) * (q * q - 1),
        }


def _field_theory(p: int, n: int, d: int) -> tuple[str, ...]:
    return ("theory", "--p", str(p), "--n", str(n), "--d", str(d))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="poly-exhaustive",
            cli=("census", "--family", "poly", "--p", "3", "--n", "2", "--d", "4"),
            setup=_field_theory(3, 2, 4),
            vertices_per_map=9,
            family="poly",
            p=3,
            n=2,
            d=4,
        ),
        Workload(
            name="rat-exhaustive",
            cli=("census", "--family", "rat", "--p", "7", "--n", "1", "--d", "2"),
            setup=_field_theory(7, 1, 2),
            vertices_per_map=8,
            family="rational",
            p=7,
            n=1,
            d=2,
        ),
        Workload(
            name="bigfield-sampled",
            cli=("census", "--family", "poly", "--p", "2", "--n", "14", "--d", "2", "--samples", "24"),
            setup=_field_theory(2, 14, 2),
            vertices_per_map=2**14,
            # known defect: sampled poly censuses at d >= 2 report their
            # Monte Carlo averages as failing the exact closed form, exit 1
            exit_codes=frozenset({0, 1}),
            samples=24,
            family="poly",
            p=2,
            n=14,
            d=2,
        ),
        Workload(
            name="baseline-sampled",
            cli=("baseline", "random", "--size", "1000", "--samples", "1000"),
            # no field: the closed-form stats at this size and two draws
            setup=("baseline", "random", "--size", "1000", "--samples", "2", "--seed", "0", "--jobs", "1"),
            vertices_per_map=1000,
            samples=1000,
        ),
    )
}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def pinned_payload(report: dict) -> dict:
    return {k: report[k] for k in PINNED_KEYS if k in report}


def _frac(x: dict) -> Fraction:
    return Fraction(int(x["num"]), int(x["den"]))


def failed_comparisons(report: dict) -> int:
    return sum(1 for c in report.get("theory_comparison", ()) if c.get("status") != "pass")


def map_count(report: dict) -> int:
    return report["map_count"] if "map_count" in report else report["graph_count"]


def check_report(w: Workload, seed: int, exit_code: int, text: str, refs: dict) -> list[str]:
    """Every way one CLI result differs from what the workload must give."""
    problems = []
    if exit_code not in w.exit_codes:
        problems.append(f"exit code {exit_code}, allowed {sorted(w.exit_codes)}")
    try:
        report = json.loads(text)["report"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    ref = refs.get(w.name, {})
    pinned = ref.get("pinned", {}).get("*" if w.samples is None else str(seed))
    try:
        if pinned is not None and pinned_payload(report) != pinned:
            problems.append("payload differs from the pinned reference")
        if w.samples is None:
            if pinned is None:
                problems.append("no pinned reference")
            bad = failed_comparisons(report)
            if bad:
                problems.append(f"{bad} theory comparisons did not pass")
            return problems
        if map_count(report) != w.samples or report.get("seed") != seed:
            problems.append("sample count or seed echo is wrong")
        if pinned is None:
            problems += _unpinned_checks(report, ref, w.samples)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def _unpinned_checks(report: dict, ref: dict, samples: int) -> list[str]:
    """Seed-independent checks on a sampled census: each closed-form average
    lies within Z_LIMIT standard errors of the sampled one."""
    problems = []
    for k, expected in ref.get("expected_avg_k", {}).items():
        observed = _frac(report["avg_k_cycles"].get(k, {"num": "0", "den": "1"}))
        se = report["stderr_k_cycles"].get(k) or 0.0
        if abs(float(observed - _frac(expected))) > Z_LIMIT * se + 1 / samples:
            problems.append(f"avg {k}-cycles {observed} is far from the closed form")
    return problems
