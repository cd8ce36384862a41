"""Command-line front end.

Subcommands:
  census             exhaustive or sampled cycle census over one map family
  verify lemma-polys exact k-cycle totals over polynomials vs closed form
  verify rat-count   enumerated rational-map counts vs closed form
  verify prov        brute-force interpolation-family counts vs case table
  verify cycle-bounds rational k-cycle totals vs strict sandwich bounds
  baseline random    uniform random self-maps
  baseline quadratic in-degree-{0,m} graphs
  theory             closed-form values for a (q, d) pair, no enumeration
  rho                iteration tail+cycle length experiment

Exit codes: 0 success, 1 when any theory comparison in the emitted
report has status "fail", 2 on usage, precondition, or budget errors,
3 on an internal error: any other exception, a bug in fqdyn, or a --jobs
worker that ended without a result, as a killed one does.

JSON output echoes the run configuration, the evaluation budget included
for every command that takes --budget; worker count, format, and output
path are excluded from the echo so reports are byte-identical across
--jobs values.  All output is UTF-8 and newline-terminated.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from functools import partial
from pathlib import Path

from .census import (
    cycle_totals_at_most,
    enumerate_S,
    poly_census,
    random_constraint_instance,
    rat_census,
    resolve_budget,
    rho_experiment,
    run_blocks,
    sampled_census,
    solution_count_case,
    usable_cpus,
    _check_budget,
    _per_index_block,
    _rational_raw_count,
)
from .baseline import baseline_census
from .ffield import FieldCtx, field_order, make_field
from .fmaps import enumerate_rationals
from .reportio import frac_json, render_csv, render_json
from .seeding import per_index_rng
from .theory import (
    coprime_prob,
    poly_avg_k,
    poly_component_bounds,
    poly_cycle_sum,
    poly_periodic_lower,
    poly_periodic_minorant,
    rat_avg_k_bounds,
    rat_component_bounds,
    rat_count,
    rat_k_cycle_total_bounds,
    rat_periodic_lower,
    rat_periodic_minorant,
)


def _canon_family(name: str) -> str:
    return {"poly": "poly", "rat": "rational", "rational": "rational"}[name]


def _int_at_least(low: int, what: str):
    """An argparse type: an int below low is a usage error naming what."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


_worker_count = _int_at_least(1, "worker count")
_cycle_length_cap = _int_at_least(0, "cycle length cap")
_max_degree = _int_at_least(0, "maximum degree")
_instance_count = _int_at_least(1, "instance count")
_evaluation_budget = _int_at_least(0, "evaluation budget")


def _add_field_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    p.add_argument("--n", type=int, default=1, help="extension degree (default 1)")


def _add_common_flags(p: argparse.ArgumentParser, fmt: bool = False) -> None:
    p.add_argument("--jobs", type=_worker_count, default=None, help="worker count >= 1 (default and cap: usable CPUs)")
    p.add_argument("--output", type=str, default=None, help="write report to file instead of stdout")
    p.add_argument("--budget", type=_evaluation_budget, default=None, help="evaluation budget override")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fqdyn", description=__doc__.splitlines()[0])
    subs = top.add_subparsers(dest="command", required=True)

    cen = subs.add_parser("census", help="cycle census over one map family")
    _add_field_flags(cen)
    cen.add_argument("--family", choices=("poly", "rat", "rational"), default="poly")
    cen.add_argument("--d", type=int, required=True, help="map degree")
    cen.add_argument("--kmax", type=_cycle_length_cap, default=None)
    # a sample count and the whole support are the two sampled modes, so one run takes one of them
    sampled = cen.add_mutually_exclusive_group()
    sampled.add_argument("--samples", type=int, default=None, help="switch to sampled mode")
    sampled.add_argument(
        "--full-support",
        action="store_true",
        help="sampled mode: walk the whole space once instead of drawing",
    )
    cen.add_argument("--seed", type=int, default=0)
    _add_common_flags(cen, fmt=True)
    cen.set_defaults(handler=_cmd_census)

    ver = subs.add_parser("verify", help="exact checks against closed forms")
    vsubs = ver.add_subparsers(dest="check", required=True)

    vlp = vsubs.add_parser("lemma-polys", help="k-cycle totals over polynomials")
    _add_field_flags(vlp)
    vlp.add_argument("--dmax", type=_max_degree, required=True)
    _add_common_flags(vlp)
    vlp.set_defaults(handler=partial(_cmd_verify_totals, "poly", 0, _poly_total_verdict))

    vrc_help = "rational map counts from the independent reference enumerator, in one process (ignores --jobs)"
    vrc = vsubs.add_parser("rat-count", help=vrc_help, description=vrc_help)
    _add_field_flags(vrc)
    vrc.add_argument("--dmax", type=_max_degree, required=True)
    _add_common_flags(vrc)
    vrc.set_defaults(handler=_cmd_verify_rat_count)

    vpr = vsubs.add_parser("prov", help="interpolation-family counts vs case table")
    _add_field_flags(vpr)
    vpr.add_argument("--instances", type=_instance_count, default=200)
    vpr.add_argument("--seed", type=int, default=0)
    _add_common_flags(vpr)
    vpr.set_defaults(handler=_cmd_verify_prov)

    vcb = vsubs.add_parser("cycle-bounds", help="rational k-cycle total sandwich")
    _add_field_flags(vcb)
    # the sandwich bounds start at d = 1
    vcb.add_argument("--dmax", type=_int_at_least(1, "maximum degree"), required=True)
    _add_common_flags(vcb)
    vcb.set_defaults(handler=partial(_cmd_verify_totals, "rational", 1, _rat_total_verdict))

    base = subs.add_parser("baseline", help="reference graph families")
    base.set_defaults(handler=_cmd_baseline)
    bsubs = base.add_subparsers(dest="kind", required=True)

    brand = bsubs.add_parser("random", help="uniform random self-maps")
    brand.add_argument("--size", type=int, required=True, help="vertex count")
    brand.add_argument("--samples", type=int, default=None)
    brand.add_argument("--seed", type=int, default=0)
    _add_common_flags(brand, fmt=True)

    bquad = bsubs.add_parser("quadratic", help="in-degree-{0,m} graphs")
    bquad.add_argument("--m", type=int, required=True)
    bquad.add_argument("--t", type=int, required=True)
    bquad.add_argument("--samples", type=int, default=None)
    bquad.add_argument("--seed", type=int, default=0)
    _add_common_flags(bquad, fmt=True)

    theo = subs.add_parser("theory", help="closed-form values, no enumeration")
    _add_field_flags(theo)
    theo.add_argument("--d", type=int, required=True)
    theo.add_argument("--kmax", type=_cycle_length_cap, default=None)
    theo.add_argument("--output", type=str, default=None)
    theo.set_defaults(handler=_cmd_theory)

    rho = subs.add_parser("rho", help="iteration tail+cycle experiment")
    _add_field_flags(rho)
    rho.add_argument("--family", choices=("poly", "rat", "rational"), default="poly")
    rho.add_argument("--d", type=int, required=True)
    rho.add_argument("--samples", type=int, default=1000)
    rho.add_argument("--seed", type=int, default=0)
    rho.add_argument(
        "--strict-rho",
        action="store_true",
        help="fail (exit 1) when the mean lies outside the diagnostic band",
    )
    _add_common_flags(rho)
    rho.set_defaults(handler=_cmd_rho)

    return top


def _field(args) -> FieldCtx:
    return make_field(args.p, args.n)


def _cmd_census(args, jobs: int):
    family = _canon_family(args.family)
    ctx = _field(args)
    common = {"kmax": args.kmax, "jobs": jobs, "budget": args.budget}
    if args.samples is not None or args.full_support:  # --full-support tallies the whole support: samples=None
        rep = sampled_census(ctx, args.d, family, None if args.full_support else args.samples, args.seed, **common)
    else:
        rep = {"poly": poly_census, "rational": rat_census}[family](ctx, args.d, **common)
    config = {
        "command": "census",
        "family": family,
        "p": args.p,
        "n": args.n,
        "q": ctx.q,
        "d": args.d,
        "kmax": rep.kmax,
        "mode": rep.mode,
    }
    if rep.mode == "sampled":
        config["samples"] = rep.sample_count
        config["seed"] = rep.seed
        config["full_support"] = rep.full_support
    return config, rep, bool(rep.failed)


def _verify_result(args, q: int, checks: list[dict], echo: dict | None = None, **extra):
    """(config, report, has_fail) of one verify check.  The config echoes
    the field and `echo` (by default --dmax); the report holds `extra`, the
    checks and whether all of them pass."""
    config = {"command": f"verify:{args.check}", "p": args.p, "n": args.n, "q": q}
    config.update(echo if echo is not None else {"dmax": args.dmax})
    all_pass = all(c["status"] == "pass" for c in checks)
    return config, {**extra, "checks": checks, "all_pass": all_pass}, not all_pass


def _poly_total_verdict(q: int, d: int, k: int, observed: int) -> dict:
    expected = poly_cycle_sum(q, d, k)
    return {"expected_total": expected, "status": "pass" if observed == expected else "fail"}


def _rat_total_verdict(q: int, d: int, k: int, observed: int) -> dict:
    b = rat_k_cycle_total_bounds(q, d, k)
    entry = {"lower": frac_json(b.lower), "upper": frac_json(b.upper), "vacuous_lower": b.vacuous_lower}
    if b.lower_is_tight:
        entry["note"] = "no k-cycle at k > q+1; checked as exactly 0"
    elif b.vacuous_lower:
        entry["note"] = "lower bound vacuous at q <= k+1; upper checked only"
    ok = observed == b.lower if b.lower_is_tight else (b.vacuous_lower or b.lower < observed) and observed < b.upper
    return entry | {"status": "pass" if ok else "fail"}


def _cmd_verify_totals(family: str, first: int, verdict, args, jobs: int):
    """The family's k-cycle totals over degree <= d, for every d from first
    to --dmax, from one run; verdict gives the check fields of each total."""
    ctx = _field(args)
    rows = cycle_totals_at_most(ctx, args.dmax, family, jobs=jobs, budget=args.budget)
    checks = []
    for d in range(first, args.dmax + 1):
        totals, count = rows[d]
        for k in range(1, d + 2):
            observed = totals.get(k, 0)
            checks.append({"d": d, "k": k, "maps": count, "observed_total": observed} | verdict(ctx.q, d, k, observed))
    return _verify_result(args, ctx.q, checks)


def _cmd_verify_rat_count(args, jobs: int):
    # enumerate_rationals is the independent reference that the census's
    # block walk is checked against, so it runs whole in one process, once:
    # a map of degree e comes from every walk over degree >= e, so the maps
    # of one walk over degree <= --dmax, counted by degree, give both modes
    ctx = _field(args)
    # every raw pair is decoded and gcd-tested, so each counts as one evaluation
    what = f"rational count at q={ctx.q} d<={args.dmax}"
    _check_budget(_rational_raw_count(ctx, args.dmax), args.budget, what, "lower --dmax")
    by_degree = Counter(m.degree for m in enumerate_rationals(ctx, args.dmax, "at_most"))
    checks = []
    for d in range(args.dmax + 1):
        for mode, observed in (("at_most", sum(by_degree[e] for e in range(d + 1))), ("exactly", by_degree[d])):
            expected = rat_count(ctx.q, d, mode)
            checks.append(
                {
                    "d": d,
                    "mode": mode,
                    "observed_count": observed,
                    "expected_count": expected,
                    "status": "pass" if observed == expected else "fail",
                }
            )
    return _verify_result(args, ctx.q, checks)


def _prov_check(ctx: FieldCtx, instances: list, i: int) -> tuple:
    """Instance i's check as one row (i, g0, g1, betas, gammas, case,
    expected count, observed count, status): the family's brute-force
    count against the case its shape falls in."""
    g0, g1, betas, gammas = instances[i]
    case, exponent = solution_count_case(ctx, g0, g1, betas)
    count = enumerate_S(ctx, g0, g1, betas, gammas)
    expected = ctx.q**exponent if case == "exactly" else None
    ok = count == expected if case == "exactly" else count <= 1
    return i, g0, g1, betas, gammas, case, expected, count, "pass" if ok else "fail"


def _cmd_verify_prov(args, jobs: int):
    ctx = _field(args)
    instances = [random_constraint_instance(ctx, per_index_rng(args.seed, i)) for i in range(args.instances)]
    # enumerate_S walks the q^deg(g1) monic multiples of g0 of each instance
    walked = sum(ctx.q ** (len(g1) - 1) for _, g1, _, _ in instances)
    what = f"counting {args.instances} interpolation families over q={ctx.q}"
    _check_budget(walked, args.budget, what, "lower --instances")
    # one row per instance, each tallied once; sorted, they are in instance order
    [rows] = run_blocks(_per_index_block, [((_prov_check, (ctx, instances), None), len(instances))], jobs)
    keys = ("instance", "g0", "g1", "betas", "gammas", "case", "expected_count", "observed_count", "status")
    checks = [dict(zip(keys, row)) for row in sorted(rows)]
    case_tally = {case: sum(c["case"] == case for c in checks) for case in ("exactly", "at_most_one")}
    echo = {"instances": args.instances, "seed": args.seed}
    return _verify_result(args, ctx.q, checks, echo, case_tally=case_tally)


def _cmd_baseline(args, jobs: int):
    common = {"samples": args.samples, "seed": args.seed, "jobs": jobs, "budget": args.budget}
    if args.kind == "random":
        rep = baseline_census("random", n=args.size, **common)
        config = {"command": "baseline:random", "size": args.size, "mode": rep.mode}
    else:
        rep = baseline_census("quadratic", m=args.m, t=args.t, **common)
        config = {"command": "baseline:quadratic", "m": args.m, "t": args.t, "mode": rep.mode}
    if rep.mode == "sampled":
        config["samples"] = args.samples
        config["seed"] = args.seed
    return config, rep, bool(rep.failed)


def _cmd_theory(args, jobs: int):
    if args.d < 0:
        raise ValueError("degree must be >= 0")
    q, d = field_order(args.p, args.n), args.d
    kmax = args.kmax if args.kmax is not None else d + 1
    # no per-k closed form holds past k = d + 1, so a larger kmax adds no
    # row and no k past it is tried; poly_avg_k stops at d (at 1 when d = 0)
    ks = range(1, min(kmax, d + 1) + 1)
    # exact integers are decimal strings, as in frac_json, so any JSON parser reads them whole
    poly = {
        "cycle_totals_at_most": {str(k): str(poly_cycle_sum(q, d, k)) for k in ks},
        "avg_k": {str(k): frac_json(poly_avg_k(q, d, k)) for k in ks if k <= max(d, 1)},
        "component_bounds": poly_component_bounds(q, d).to_jsonable(),
        "periodic_lower": frac_json(poly_periodic_lower(q, d)),
        "periodic_minorant": poly_periodic_minorant(q, d),
    }
    rat = {
        "count_at_most": str(rat_count(q, d, "at_most")),
        "count_exactly": str(rat_count(q, d, "exactly")),
        "coprime_prob": frac_json(coprime_prob(q, d)),
        "k_total_bounds": {str(k): rat_k_cycle_total_bounds(q, d, k).to_jsonable() for k in ks},
        "avg_k_bounds": {str(k): rat_avg_k_bounds(q, d, k).to_jsonable() for k in ks},
        "component_bounds": rat_component_bounds(q, d).to_jsonable(),
        "periodic_lower": frac_json(rat_periodic_lower(q, d)),
        "periodic_minorant": rat_periodic_minorant(q, d),
    }
    config = {"command": "theory", "p": args.p, "n": args.n, "q": q, "d": d, "kmax": kmax}
    return config, {"poly": poly, "rational": rat}, False


def _cmd_rho(args, jobs: int):
    ctx = _field(args)
    family = _canon_family(args.family)
    summary = rho_experiment(ctx, args.d, family, args.samples, args.seed, jobs=jobs, budget=args.budget)
    mean = float(summary.mean_rho)
    low, high = 0.5 * math.sqrt(ctx.q), 3.0 * math.sqrt(ctx.q)
    in_band = low <= mean <= high
    if in_band:
        status = "pass"
    else:
        status = "fail" if args.strict_rho else "miss"
    report = summary.to_jsonable()
    report["band"] = {
        "low": low,
        "high": high,
        "mean_rho": mean,
        "gating": args.strict_rho,
        "status": status,
    }
    config = {
        "command": "rho",
        "family": family,
        "p": args.p,
        "n": args.n,
        "q": ctx.q,
        "d": args.d,
        "samples": args.samples,
        "seed": args.seed,
        "strict_rho": args.strict_rho,
    }
    return config, report, status == "fail"


def _write_report(path: Path, text: str) -> None:
    """Write to a temporary file beside path, then rename it onto path, so a
    failed write neither leaves a partial report nor clobbers the old one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact counts and budget figures can pass 4,300 digits
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    jobs = usable_cpus() if getattr(args, "jobs", None) is None else args.jobs
    try:
        config, rep, has_fail = args.handler(args, jobs)
        if hasattr(args, "budget"):  # every command whose parser has --budget echoes it
            config["budget"] = resolve_budget(args.budget)
        if getattr(args, "format", "json") == "csv":
            text = render_csv(rep)
        else:  # a record without to_jsonable is a bug, not a JSON list
            text = render_json(config, rep if isinstance(rep, dict) else rep.to_jsonable())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug in fqdyn, such as a broken invariant, or a worker that died
        print(f"internal error: {exc}", file=sys.stderr)
        return 3

    if args.output:
        try:
            _write_report(Path(args.output), text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if has_fail else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
