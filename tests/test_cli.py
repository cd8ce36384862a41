"""Front-end behavior: flags, exit codes, report schemas, and the
byte-level determinism contract."""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from fqdyn import baseline, census, cli, fmaps
from fqdyn.census import RhoSummary
from fqdyn.ffield import make_field


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "fqdyn", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCensusCommand:
    def test_poly_example(self):
        code, out, err = run_cli(
            "census", "--family", "poly", "--p", "2", "--n", "1", "--d", "2", "--format", "json"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["report"]["avg_components"] == {"num": "5", "den": "4"}

    def test_rat_family_spelling(self):
        # both short and long family names drive the same census
        a = run_cli("census", "--family", "rat", "--p", "2", "--n", "1", "--d", "1")
        b = run_cli("census", "--family", "rational", "--p", "2", "--n", "1", "--d", "1")
        assert a == b and a[0] == 0

    def test_budget_exit(self):
        code, out, err = run_cli("census", "--family", "rat", "--p", "5", "--n", "1", "--d", "9")
        assert code == 2
        assert "budget" in err and "sampled" in err

    def test_full_support_budget_exit(self, capsys):
        code = cli.run(["census", "--p", "5", "--d", "3", "--full-support", "--budget", "10", "--jobs", "1"])
        assert code == 2
        assert "2500 map evaluations" in capsys.readouterr().err

    def test_full_support_refusal_advises_a_sample_count(self, capsys):
        # the advice used to be "use the sampled mode instead", which a
        # --full-support run already is
        code = cli.run(["census", "--p", "2", "--n", "16", "--d", "1000", "--full-support", "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "; use --samples instead, or raise --budget" in err and "sampled mode" not in err
        assert err.count("\n") == 1 and len(err) < 200

    def test_samples_and_full_support_exclude_each_other(self, capsys):
        # the pair used to exit 0 and echo the map count as "samples"
        assert cli.run(["census", "--p", "3", "--d", "1", "--full-support", "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --samples: not allowed with argument --full-support" in captured.err

    def test_jobs_byte_identity(self):
        outs = set()
        for jobs in ("1", "2", "8"):
            code, out, err = run_cli(
                "census", "--p", "5", "--n", "1", "--d", "2", "--jobs", jobs
            )
            assert code == 0, err
            outs.add(out)
        assert len(outs) == 1

    def test_output_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run_cli(
            "census", "--p", "3", "--n", "1", "--d", "1", "--output", str(path)
        )
        assert code == 0 and out == ""
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == 1

    def test_csv_exact_rationals(self):
        code, out, err = run_cli("census", "--p", "5", "--n", "1", "--d", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,q,d,k,avg_num,avg_den,theory_num,theory_den,bound_status"
        assert all("." not in line for line in lines[1:])  # no floats anywhere
        k1 = next(line for line in lines if line.startswith("poly,5,2,1,"))
        assert k1.split(",")[4:8] == ["1", "1", "1", "1"]

    def test_sampled_census(self):
        code, out, err = run_cli(
            "census", "--family", "rat", "--p", "3", "--n", "1", "--d", "1",
            "--samples", "200", "--seed", "7",
        )
        assert code in (0, 1), err
        doc = json.loads(out)
        assert doc["report"]["mode"] == "sampled"
        assert doc["config"]["seed"] == 7

    def test_sampled_poly_equalities_are_z_checks(self, capsys):
        # a Monte Carlo mean is checked against the exact closed form by
        # its z-score; exact equality failed every sampled run at d >= 2
        code = cli.run(["census", "--p", "7", "--d", "2", "--samples", "60", "--seed", "3", "--jobs", "1"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["report"]["theory_comparison"]
        exact = [c for c in rows if c["name"] == "poly_avg_k_exact"]
        assert [c["k"] for c in exact] == [1, 2]
        assert all(c["relation"].startswith("|z| <= 5") and c["status"] == "pass" for c in exact)

    def test_extension_field(self):
        code, out, err = run_cli("census", "--p", "2", "--n", "2", "--d", "1")
        assert code == 0, err
        assert json.loads(out)["config"]["q"] == 4


class TestVerifyCommands:
    def test_lemma_polys_example(self):
        code, out, err = run_cli("verify", "lemma-polys", "--p", "3", "--n", "1", "--dmax", "3")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["report"]["all_pass"] is True
        assert len(doc["report"]["checks"]) == 1 + 2 + 3 + 4

    def test_rat_count(self):
        code, out, err = run_cli("verify", "rat-count", "--p", "2", "--n", "1", "--dmax", "2")
        assert code == 0, err
        assert json.loads(out)["report"]["all_pass"] is True

    def test_rat_count_budget_exit(self, monkeypatch, capsys):
        # the one walk over degree <= 2 over GF(3) decodes 351 raw pairs, and
        # the budget is checked on them before the first decode
        def no_walk(*args):
            raise AssertionError("a rational map was enumerated before the budget check")

        monkeypatch.setattr(cli, "enumerate_rationals", no_walk)
        code = cli.run(["verify", "rat-count", "--p", "3", "--dmax", "2", "--budget", "10", "--jobs", "1"])
        assert code == 2
        assert "351 map evaluations" in capsys.readouterr().err

    def test_rat_count_walks_once(self, monkeypatch, capsys):
        """One walk over degree <= --dmax gives both modes of every d: each
        raw pair is decoded once, not once per mode and degree."""
        walks, decodes = [], []
        enumerate_rationals, decode = cli.enumerate_rationals, fmaps.poly_at_most_at

        def walk(ctx, d, mode="exactly"):
            walks.append((d, mode))
            return enumerate_rationals(ctx, d, mode)

        def spy(ctx, d, index):
            decodes.append(index)
            return decode(ctx, d, index)

        monkeypatch.setattr(cli, "enumerate_rationals", walk)
        monkeypatch.setattr(fmaps, "poly_at_most_at", spy)
        assert cli.run(["verify", "rat-count", "--p", "3", "--dmax", "3", "--jobs", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["all_pass"] is True
        assert walks == [(3, "at_most")]
        assert len(decodes) == census._rational_raw_count(cli.make_field(3, 1), 3) == 3240

    def test_prov_budget_exit(self, monkeypatch, capsys):
        # --budget used to be ignored: GF(31) with 3 instances ran for
        # minutes; the budget is checked on the drawn instances, before any count
        def count(*args):
            raise AssertionError("interpolation family counted over budget")

        monkeypatch.setattr(cli, "enumerate_S", count)
        assert cli.run(["verify", "prov", "--p", "31", "--instances", "3", "--budget", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: counting 3 interpolation families over q=31 needs ")
        assert "over the budget of 10" in err

    def test_prov(self):
        code, out, err = run_cli("verify", "prov", "--p", "5", "--n", "1", "--instances", "30")
        assert code == 0, err
        doc = json.loads(out)
        tally = doc["report"]["case_tally"]
        assert tally["exactly"] + tally["at_most_one"] == 30

    def test_prov_deterministic(self):
        a = run_cli("verify", "prov", "--p", "3", "--n", "1", "--instances", "20")
        b = run_cli("verify", "prov", "--p", "3", "--n", "1", "--instances", "20")
        assert a == b

    def test_prov_splits_its_instances_across_workers(self, monkeypatch, tmp_path):
        """--jobs used to be ignored; the per-instance rows of two blocks,
        listed in instance order, give the one-process report byte for byte."""
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        calls = []

        def spy(fn, tasks, jobs):
            calls.append((fn.__name__, [total for _, total in tasks], jobs))
            return census.run_blocks(fn, tasks, jobs)

        monkeypatch.setattr(cli, "run_blocks", spy)
        texts = []
        for jobs in ("1", "2"):
            out = tmp_path / f"prov-{jobs}.json"
            argv = ["verify", "prov", "--p", "3", "--instances", "9", "--jobs", jobs, "--output", str(out)]
            assert cli.run(argv) == 0
            texts.append(out.read_text(encoding="utf-8"))
        assert calls == [("_per_index_block", [9], 1), ("_per_index_block", [9], 2)]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("field", [("--p", "2"), ("--p", "2", "--n", "2")])
    def test_lemma_polys_at_degrees_past_q(self, field, jobs, monkeypatch, capsys):
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        assert cli.run(["verify", "lemma-polys", *field, "--dmax", "4", "--jobs", jobs]) == 0
        checks = json.loads(capsys.readouterr().out)["report"]["checks"]
        assert len(checks) == 1 + 2 + 3 + 4 + 5 and {c["status"] for c in checks} == {"pass"}

    def test_cycle_bounds(self):
        code, out, err = run_cli("verify", "cycle-bounds", "--p", "3", "--n", "1", "--dmax", "2")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["report"]["all_pass"] is True
        vacuous = [c for c in doc["report"]["checks"] if c["vacuous_lower"]]
        assert vacuous, "q=3 has k with q <= k+1, so some lower bounds are vacuous"


class TestNoCyclePastQPlus1:
    """P^1(F_q) has q + 1 points, so no rational map has a longer cycle:
    past k = q + 1 both bounds are 0, and a row checks the value as
    exactly 0.  Strict bounds used to fail the true value 0 there."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "argv, tight",
        [
            (["census", "--family", "rat", "--p", "2", "--d", "3", "--kmax", "5"], [4]),
            (["census", "--family", "rat", "--p", "2", "--d", "3", "--kmax", "5", "--full-support"], [4]),
            (["census", "--family", "rat", "--p", "2", "--d", "3", "--kmax", "5", "--samples", "100"], [4]),
            (["census", "--family", "rat", "--p", "3", "--d", "4", "--kmax", "6"], [5]),
        ],
    )
    def test_census(self, argv, tight, jobs, monkeypatch, capsys):
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        assert cli.run([*argv, "--jobs", jobs]) == 0
        rows = json.loads(capsys.readouterr().out)["report"]["theory_comparison"]
        exact = [row for row in rows if row["name"] == "rat_avg_k_exact"]
        assert [row["k"] for row in exact] == tight
        assert all(row["expected"] == {"num": "0", "den": "1"} and row["status"] == "pass" for row in exact)
        if "--samples" not in argv:
            assert [row["relation"] for row in exact] == ["== (tight: k > q+1)"]
        assert {row["status"] for row in rows} == {"pass"}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("p, dmax", [(2, 3), (3, 4)])
    def test_cycle_bounds(self, p, dmax, jobs, monkeypatch, capsys):
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        assert cli.run(["verify", "cycle-bounds", "--p", str(p), "--dmax", str(dmax), "--jobs", jobs]) == 0
        checks = json.loads(capsys.readouterr().out)["report"]["checks"]
        past = [c for c in checks if c["k"] > p + 1]
        assert [(c["d"], c["k"]) for c in past] == [(dmax, p + 2)]
        assert past[0]["observed_total"] == 0 and past[0]["note"] == "no k-cycle at k > q+1; checked as exactly 0"
        assert {c["status"] for c in checks} == {"pass"}

    def test_a_cycle_past_q_plus_1_fails(self):
        assert cli._rat_total_verdict(2, 3, 4, 0)["status"] == "pass"
        assert cli._rat_total_verdict(2, 3, 4, 1)["status"] == "fail"
        rep = census.rat_census(make_field(2), 3, kmax=5)
        [row] = [c for c in census._rat_comparisons(replace(rep, avg_k_cycles={4: Fraction(1, 10)})) if c.k == 4]
        assert (row.name, row.status) == ("rat_avg_k_exact", "fail")


# the at-most totals checks: argv, map family and the degrees they walk
AT_MOST_CHECKS = {
    "lemma-polys": (["verify", "lemma-polys", "--p", "3", "--dmax", "3"], census.POLY, range(4)),
    "cycle-bounds": (["verify", "cycle-bounds", "--p", "3", "--dmax", "2"], census.RATIONAL, range(3)),
}


class TestAtMostTotalsRunOnce:
    """verify lemma-polys and cycle-bounds tally each degree 0..--dmax once,
    in one run: one set of workers and one budget check per command."""

    @pytest.mark.parametrize("check", list(AT_MOST_CHECKS))
    def test_one_worker_pool(self, check, monkeypatch, capsys, forks):
        """One forked child beside the parent for the whole command, and
        the report of one process."""
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        assert cli.run([*AT_MOST_CHECKS[check][0], "--jobs", "1"]) == 0
        one_process = capsys.readouterr().out
        assert forks == []
        assert cli.run([*AT_MOST_CHECKS[check][0], "--jobs", "2"]) == 0
        assert len(forks) == 1
        assert capsys.readouterr().out == one_process

    @pytest.mark.parametrize("check", list(AT_MOST_CHECKS))
    def test_every_slot_walked_once(self, check, monkeypatch, capsys):
        argv, family, degrees = AT_MOST_CHECKS[check]
        walked = []
        block = census._census_block

        def spy(ctx, fam, d, start, stop):
            walked.extend((d, i) for i in range(start, stop))
            return block(ctx, fam, d, start, stop)

        monkeypatch.setattr(census, "_census_block", spy)
        assert cli.run([*argv, "--jobs", "1"]) == 0
        ctx = cli.make_field(3, 1)
        assert sorted(walked) == [(d, i) for d in degrees for i in range(family.index_count(ctx, d))]

    @pytest.mark.parametrize("check", list(AT_MOST_CHECKS))
    def test_budget_refusal_advises_lowering_dmax(self, check, capsys):
        # the advice used to be "use the sampled mode (sampled_census)
        # instead", which neither command has
        assert cli.run([*AT_MOST_CHECKS[check][0], "--jobs", "1", "--budget", "10"]) == 2
        err = capsys.readouterr().err
        assert "; lower --dmax, or raise --budget" in err and "sampled" not in err

    @pytest.mark.parametrize("check", list(AT_MOST_CHECKS))
    def test_budget_refused_before_any_block(self, check, monkeypatch, capsys):
        argv, family, degrees = AT_MOST_CHECKS[check]
        ctx = cli.make_field(3, 1)
        need = sum(family.map_count(ctx, d) for d in degrees) * family.vertices(ctx)

        def no_block(*args):
            raise AssertionError("a block ran before the budget check")

        monkeypatch.setattr(census, "_census_block", no_block)
        assert cli.run([*argv, "--jobs", "1", "--budget", str(need - 1)]) == 2
        err = capsys.readouterr().err
        assert f"needs {need} map evaluations, over the budget of {need - 1}" in err


class TestWorkerFailures:
    """An exception in a forked child's block ends the CLI as it would in
    one process: a usage error (ValueError) exits 2, and any other
    exception, a bug, exits 3.  A child that dies without a result exits
    3 too."""

    @pytest.mark.parametrize(
        "exc_type, code", [(ValueError, 2), (AssertionError, 3), (KeyError, 3), (TypeError, 3)]
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_exit_code(self, exc_type, code, jobs, monkeypatch, capsys, forks):
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        block = census._per_index_block

        def last_block_raises(fn, args, seed, start, stop):
            if stop == 4:  # the child's block at --jobs 2
                raise exc_type(f"raised in pid {os.getpid()}")
            return block(fn, args, seed, start, stop)

        monkeypatch.setattr(census, "_per_index_block", last_block_raises)
        argv = ["census", "--p", "3", "--d", "2", "--samples", "4", "--jobs", jobs]
        assert cli.run(argv) == code
        raiser = forks[0] if jobs == "2" else os.getpid()
        err = capsys.readouterr().err
        assert f"raised in pid {raiser}" in err and err.count("\n") == 1
        assert len(forks) == int(jobs) - 1

    def test_dead_worker_exits_3(self, monkeypatch, capsys, forks):
        """A child that ends without a result, as a killed one does, is an
        internal error: one line on stderr, nothing on stdout."""
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        block = census._per_index_block
        parent = os.getpid()

        def child_dies(fn, args, seed, start, stop):
            if os.getpid() != parent:
                os._exit(9)
            return block(fn, args, seed, start, stop)

        monkeypatch.setattr(census, "_per_index_block", child_dies)
        assert cli.run(["census", "--p", "3", "--d", "2", "--samples", "4", "--jobs", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: worker process") and "exit code 9" in err
        assert err.count("\n") == 1
        assert len(forks) == 1


class TestSampledPaths:
    @pytest.mark.parametrize("family", ["poly", "rat"])
    def test_degree_zero(self, family, capsys):
        """A map of degree 0 is constant: one fixed point and nothing else
        periodic, so any draw of them averages exactly 1."""
        argv = ["census", "--family", family, "--p", "3", "--d", "0", "--samples", "7", "--jobs", "1"]
        assert cli.run(argv) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        one = {"num": "1", "den": "1"}
        assert report["avg_components"] == report["avg_periodic"] == one
        assert report["avg_k_cycles"] == {"1": one}
        assert {row["status"] for row in report["theory_comparison"]} == {"pass"}

    def test_one_sample(self, capsys):
        """One draw has no standard error, and its rows still pass."""
        assert cli.run(["census", "--p", "3", "--d", "2", "--samples", "1", "--jobs", "1"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["sample_count"] == 1 and report["stderr_components"] is None


class TestExactIntegersOfAnySize:
    """Exact counts and budget figures past Python's 4,300-digit
    int-to-str limit still reach the output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("baseline", "random", "--size", "2000", "--samples", "5"),
            ("theory", "--p", "65521", "--d", "500", "--kmax", "1"),
        ],
    )
    def test_report(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 0, err
        assert out.endswith("}\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit before 3.11")
    def test_theory_parses_at_the_default_digit_limit(self):
        """theory writes its exact integers as strings, so a reader that
        keeps Python's default limit parses them; as bare JSON integers of
        4,822 digits they raised "Exceeds the limit (4300 digits)"."""
        code, out, err = run_cli("theory", "--p", "65521", "--d", "500", "--kmax", "1")
        assert code == 0, err
        limit = sys.get_int_max_str_digits()  # an in-process cli.run lifts it
        try:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
            doc = json.loads(out)
            sys.set_int_max_str_digits(0)
            assert int(doc["report"]["rational"]["count_at_most"]) == 65521**1001 + 1
        finally:
            sys.set_int_max_str_digits(limit)

    def test_budget_refusal(self):
        # 65536^1000 (q - 1) polynomials times 65536 points: 4,827 digits
        code, out, err = run_cli("census", "--p", "2", "--n", "16", "--d", "1000")
        assert code == 2 and out == ""
        assert "over the budget" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--p", "2", "--n", "16", "--d", "1000"),
            ("verify", "rat-count", "--p", "65521", "--dmax", "500"),
            ("baseline", "random", "--size", "1400"),
        ],
    )
    def test_refusal_prints_long_counts_in_short_form(self, argv, capsys):
        # each count has over 4,000 digits
        assert cli.run([*argv, "--jobs", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "over the budget of 1000000000;" in err
        assert err.count("\n") == 1 and len(err) < 200, err[:300]


@pytest.mark.parametrize("module", ["fqdyn.ffield", "fqdyn.fmaps", "fqdyn.census", "fqdyn.cli"])
def test_any_module_imports_first(module):
    """ffield imports fmaps' polynomial helpers at call time, since fmaps
    imports FieldCtx from ffield; a field builds whichever module a fresh
    interpreter imports first."""
    code = f"import {module}; from fqdyn.ffield import make_field; print(make_field(3, 2).modulus)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(1, 0, 1)\n"


def test_import_starts_no_pool_machinery():
    """The CLI forks its workers itself; importing it loads neither
    concurrent.futures nor multiprocessing, which cost start-up time."""
    code = "import sys, fqdyn.cli; print([m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _leaf_parsers(parser: argparse.ArgumentParser, path: tuple = ()):
    """(command words, parser) of every parser that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


# every command that takes --budget, with a tiny input for it
BUDGETED = {
    ("census",): ["--p", "2", "--d", "1"],
    ("verify", "lemma-polys"): ["--p", "2", "--dmax", "1"],
    ("verify", "rat-count"): ["--p", "2", "--dmax", "1"],
    ("verify", "prov"): ["--p", "3", "--instances", "2"],
    ("verify", "cycle-bounds"): ["--p", "2", "--dmax", "1"],
    ("baseline", "random"): ["--size", "3"],
    ("baseline", "quadratic"): ["--m", "2", "--t", "2"],
    ("rho",): ["--p", "5", "--d", "1", "--samples", "3"],
}


class TestBudgetEcho:
    def test_table_lists_every_command_with_a_budget(self):
        leaves = {path for path, p in _leaf_parsers(cli.build_parser()) if "--budget" in p._option_string_actions}
        assert leaves == set(BUDGETED)

    @pytest.mark.parametrize("path", list(BUDGETED), ids=" ".join)
    def test_config_echoes_the_budget(self, path, capsys):
        budget = 123_457
        assert cli.run([*path, *BUDGETED[path], "--budget", str(budget), "--jobs", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["budget"] == budget

    def test_environment_budget_is_not_read(self, monkeypatch):
        # FQDYN_BUDGET used to override the default budget, in the library
        # and in the CLI; at 0 it refused every run
        monkeypatch.setenv("FQDYN_BUDGET", "0")
        assert census.poly_census(make_field(5), 2).map_count == 100
        code, out, err = run_cli("census", "--p", "5", "--d", "2")
        assert code == 0, err
        assert '"budget": 1000000000' in out


class TestBudgetRefusal:
    """A refusal names the flag that sets its limit."""

    @pytest.mark.parametrize("path", list(BUDGETED), ids=" ".join)
    def test_given_budget_names_the_flag(self, path, capsys):
        assert cli.run([*path, *BUDGETED[path], "--budget", "0", "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert "over the budget of 0;" in err and err.endswith(", or raise --budget\n")


class TestBaselineCommands:
    @pytest.mark.parametrize("argv", [["--size", "1000", "--samples", "50"], ["--size", "5"]])
    def test_budget_exit(self, argv, capsys):
        # 50 draws of 1000 points, or all 5^5 maps of 5 points, are far
        # over 10 evaluations
        code = cli.run(["baseline", "random", *argv, "--budget", "10", "--jobs", "1"])
        assert code == 2 and "over the budget of 10" in capsys.readouterr().err

    def test_sampled_size_past_32_bits_exit(self, capsys, monkeypatch):
        # a budget past n * samples, so the size bound refuses the run
        # before any draw
        monkeypatch.setattr(baseline, "_random_map", None)
        n = 2**32
        code = cli.run(["baseline", "random", "--size", str(n), "--samples", "2", "--budget", str(2 * n + 1), "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 2 and "needs n <= 4294967295" in err and "budget" not in err

    def test_random_exhaustive(self):
        code, out, err = run_cli("baseline", "random", "--size", "4")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["report"]["avg_components"] == {"num": "195", "den": "128"}

    def test_quadratic_csv(self):
        code, out, err = run_cli("baseline", "quadratic", "--m", "2", "--t", "3", "--format", "csv")
        assert code == 0, err
        assert out.startswith("family,q,d,k,")
        assert "baseline:quadratic,6," in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["baseline", "quadratic", "--m", "2", "--t", "3"],
            ["baseline", "quadratic", "--m", "2", "--t", "8", "--samples", "20"],
            ["baseline", "random", "--size", "4"],
            ["census", "--family", "rat", "--p", "3", "--d", "1"],
            ["census", "--p", "5", "--d", "2", "--samples", "5", "--seed", "1"],
        ],
    )
    def test_csv_has_one_row_per_comparison(self, argv, capsys):
        # rows follow each comparison's fields; a name that mentions
        # neither average (quadratic_graph_count) used to be dropped
        assert cli.run([*argv, "--jobs", "1"]) in (0, 1)
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["report"]["theory_comparison"]]
        assert cli.run([*argv, "--jobs", "1", "--format", "csv"]) in (0, 1)
        rows = capsys.readouterr().out.splitlines()[1:]
        checked = [r.split(",")[3] for r in rows if r.rsplit(",", 1)[1]]
        assert len(checked) == len(names)
        if argv[1] == "quadratic" and "--samples" not in argv:
            assert checked == ["quadratic_periodic_exact", "quadratic_graph_count"]

    def test_quadratic_exhaustive_splits_across_jobs(self, monkeypatch, capsys, forks):
        """The labellings of one image set split into blocks: one forked
        child beside the parent, and the report of one process."""
        monkeypatch.setattr(census, "usable_cpus", lambda: 2)
        argv = ["baseline", "quadratic", "--m", "2", "--t", "3", "--jobs"]
        assert cli.run([*argv, "1"]) == 0
        one_process = capsys.readouterr().out
        assert forks == []
        assert cli.run([*argv, "2"]) == 0
        assert len(forks) == 1
        assert capsys.readouterr().out == one_process

    def test_random_sampled(self):
        code, out, err = run_cli(
            "baseline", "random", "--size", "25", "--samples", "400", "--seed", "3"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["report"]["mode"] == "sampled"

    def test_size_cap(self):
        code, out, err = run_cli("baseline", "random", "--size", "9")
        assert code == 2 and "sampling" in err


class TestTheoryCommand:
    def test_dump(self):
        code, out, err = run_cli("theory", "--p", "5", "--n", "1", "--d", "2")
        assert code == 0, err
        doc = json.loads(out)
        rep = doc["report"]
        assert rep["rational"]["count_exactly"] == "3000"
        assert rep["poly"]["avg_k"]["2"] == {"num": "2", "den": "5"}
        assert "component_bounds" in rep["poly"]

    def test_negative_degree_rejected(self, capsys):
        # poly_component_bounds used to take log(0): "math domain error"
        assert cli.run(["theory", "--p", "3", "--d", "-1"]) == 2
        assert capsys.readouterr().err == "error: degree must be >= 0\n"


    @pytest.mark.parametrize("p, d", [(7, 2), (5, 0), (2, 1)])
    def test_kmax_past_d_plus_1_adds_nothing(self, p, d, capsys):
        # every k up to --kmax used to be tried and refused one by one:
        # --p 2 --d 1 --kmax 2000000 took seconds; no closed form holds past d + 1
        assert cli.run(["theory", "--p", str(p), "--d", str(d), "--kmax", str(10**9)]) == 0
        big = json.loads(capsys.readouterr().out)
        assert cli.run(["theory", "--p", str(p), "--d", str(d), "--kmax", str(d + 1)]) == 0
        assert big["report"] == json.loads(capsys.readouterr().out)["report"]
        assert big["config"]["kmax"] == 10**9

    def test_extension_field_past_the_table_cap(self, monkeypatch, capsys):
        # every closed form needs q alone; this used to build GF(2^17)'s
        # tables and exit 2 with "extension fields require tables"
        monkeypatch.setattr(cli, "make_field", None)
        assert cli.run(["theory", "--p", "2", "--n", "17", "--d", "1"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["p"], config["n"], config["q"]) == (2, 17, 131072)

    @pytest.mark.parametrize(
        "field, message", [(["--p", "6"], "p = 6 is not prime"), (["--p", "3", "--n", "0"], "extension degree n = 0 must be >= 1")]
    )
    def test_field_checks_kept(self, field, message, capsys):
        assert cli.run(["theory", *field, "--d", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRhoCommand:
    def test_report_and_band(self):
        code, out, err = run_cli(
            "rho", "--p", "101", "--n", "1", "--d", "2", "--samples", "150"
        )
        assert code == 0, err
        band = json.loads(out)["report"]["band"]
        assert band["gating"] is False
        assert band["status"] in ("pass", "miss")

    def test_budget_exit(self, capsys):
        # 10 walks over 101 points can cost up to 1010 evaluations
        code = cli.run(["rho", "--p", "101", "--d", "2", "--samples", "10", "--budget", "100", "--jobs", "1"])
        assert code == 2
        assert "1010 map evaluations" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["poly", "rat"])
    def test_negative_degree_rejected(self, family, monkeypatch, capsys):
        # a rational draw at d = -1 looped forever on the (0, 0) pair, and a
        # polynomial one exited 0 with a constant-map report
        def draw(*args):
            raise AssertionError("maps drawn for a negative degree")

        monkeypatch.setattr(census, "run_blocks", draw)
        argv = ["rho", "--family", family, "--p", "5", "--d", "-1", "--samples", "3", "--jobs", "1"]
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == "error: degree must be >= 0\n"

    def test_strict_flag_gatekeeping(self, monkeypatch, capsys):
        # exit 1 must track a "fail" status, which needs a band miss; fake
        # the experiment so the plumbing is observable
        fake = RhoSummary(
            family="poly", q=101, d=2, samples=10, seed=0,
            mean_tail=Fraction(900), mean_cycle=Fraction(900),
            mean_rho=Fraction(1800), histogram={1800: 10},
        )
        monkeypatch.setattr(cli, "rho_experiment", lambda *a, **k: fake)
        argv = ["rho", "--p", "101", "--n", "1", "--d", "2", "--samples", "10"]
        assert cli.run(argv) == 0  # non-gating by default
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["band"]["status"] == "miss"
        assert cli.run(argv + ["--strict-rho"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["band"]["status"] == "fail"


class TestUsageErrors:
    def test_unknown_flag(self):
        code, out, err = run_cli("census", "--bogus")
        assert code == 2

    def test_missing_subcommand(self):
        code, out, err = run_cli()
        assert code == 2

    def test_bad_field(self):
        code, out, err = run_cli("census", "--p", "6", "--n", "1", "--d", "1")
        assert code == 2 and "prime" in err

    @pytest.mark.parametrize("jobs", ["0", "-2", "x"])
    def test_jobs_below_one_rejected(self, jobs, capsys):
        # rejected while parsing, before any worker pool could start;
        # --jobs 0 used to mean "cpu count"
        assert cli.run(["census", "--p", "2", "--d", "1", "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["census", "theory"])
    def test_negative_kmax_rejected(self, command, capsys):
        # --kmax -1 used to exit 0 with no per-length rows
        assert cli.run([command, "--p", "3", "--d", "2", "--kmax", "-1"]) == 2
        err = capsys.readouterr().err
        assert "argument --kmax: cycle length cap must be >= 0, got -1" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lemma-polys", "--dmax", "-1"], "--dmax: maximum degree must be >= 0, got -1"),
            (["rat-count", "--dmax", "-2"], "--dmax: maximum degree must be >= 0, got -2"),
            (["cycle-bounds", "--dmax", "0"], "--dmax: maximum degree must be >= 1, got 0"),
            (["prov", "--instances", "0"], "--instances: instance count must be >= 1, got 0"),
        ],
    )
    def test_verify_empty_range_rejected(self, argv, message, capsys):
        # each used to exit 0 with "checks": [] and "all_pass": true
        assert cli.run(["verify", *argv, "--p", "3"]) == 2
        assert f"argument {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["census", "--p", "3", "--d", "1"], ["verify", "rat-count", "--p", "2", "--dmax", "1"]])
    def test_negative_budget_flag_rejected(self, argv, capsys):
        # --budget -3 used to be accepted, and every run refused "over the budget of -3"
        assert cli.run([*argv, "--budget", "-1", "--jobs", "1"]) == 2
        assert "argument --budget: evaluation budget must be >= 0, got -1" in capsys.readouterr().err

    def test_negative_budget_argument_rejected(self):
        with pytest.raises(ValueError, match="evaluation budget must be an integer >= 0, got -3"):
            census.resolve_budget(-3)

    def test_kmax_zero_accepted(self, capsys):
        assert cli.run(["census", "--p", "3", "--d", "2", "--kmax", "0", "--jobs", "1"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["kmax"] == 0 and report["avg_k_cycles"] == {}

    def test_internal_error_exit(self, monkeypatch, capsys):
        # a broken invariant is a bug, told apart from a failed comparison (1)
        def broken(*args, **kwargs):
            raise AssertionError("enumerated 3 maps, closed form says 4; this is a bug")

        monkeypatch.setattr(cli, "poly_census", broken)
        assert cli.run(["census", "--p", "2", "--d", "1", "--jobs", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: enumerated 3 maps, closed form says 4; this is a bug\n"

    def test_help_exits_zero(self):
        code, out, err = run_cli("--help")
        assert code == 0

    def test_csv_not_available_for_verify(self):
        code, out, err = run_cli(
            "verify", "lemma-polys", "--p", "3", "--n", "1", "--dmax", "1", "--format", "csv"
        )
        assert code == 2

    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "report.json"
        target.write_text("previous report\n", encoding="utf-8")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        code = cli.run(["census", "--p", "2", "--d", "1", "--jobs", "1", "--output", str(target)])
        assert code == 2 and "error: cannot write" in capsys.readouterr().err
        assert target.read_text(encoding="utf-8") == "previous report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_unwritable_output_path(self, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(
            "census", "--p", "2", "--n", "1", "--d", "1", "--output", str(target)
        )
        assert code == 2 and "cannot write" in err and "Traceback" not in err


class TestOutputHygiene:
    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--p", "2", "--n", "1", "--d", "1"),
            ("theory", "--p", "3", "--n", "1", "--d", "1"),
            ("verify", "rat-count", "--p", "2", "--n", "1", "--dmax", "1"),
            ("baseline", "quadratic", "--m", "2", "--t", "2"),
        ],
    )
    def test_newline_terminated_single_doc(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 0, err
        assert out.endswith("\n") and not out.endswith("\n\n")
        json.loads(out)  # exactly one well-formed document

    def test_sorted_keys(self):
        code, out, err = run_cli("census", "--p", "2", "--n", "1", "--d", "1")
        doc = json.loads(out)
        assert list(doc) == sorted(doc)
        assert list(doc["report"]) == sorted(doc["report"])
