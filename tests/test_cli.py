"""End-to-end checks of the command-line surface through real subprocesses."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import plint
from plint import cli, exact
from plint.errors import NoConvergence, ParameterError

# the directory this test run imports plint from, so the subprocesses run the
# same code whether or not the package is installed
SRC = os.path.dirname(os.path.dirname(plint.__file__))


def cli_env(env=None):
    merged = dict(os.environ)
    merged["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, merged.get("PYTHONPATH"))))
    merged.update(env or {})
    return merged


def run_cli(*argv, env=None):
    return subprocess.run([sys.executable, "-m", "plint", *argv],
                          capture_output=True, text=True, env=cli_env(env))


class TestEval:
    def test_a_base_particular_value(self):
        out = run_cli("eval", "--family", "A", "--m", "2", "--n", "1", "--x", "1")
        assert out.returncode == 0
        assert out.stdout == "2*z3 = 2.4041138063\n"

    def test_j0_spot_value(self):
        out = run_cli("eval", "--family", "J0", "--m", "0", "--p", "2")
        assert out.returncode == 0
        assert out.stdout == "z2 - 1 = 0.6449340668\n"

    def test_value_of_24_factorial(self):
        out = run_cli("eval", "--family", "L", "--n", "0", "--m", "24", "--x", "1")
        assert out.returncode == 0
        assert out.stdout == (
            "620448401733239439360000 = 620448401733239439360000.0000000000\n")

    def test_deep_descending_chains(self):
        # 2^28 index chains if enumerated one by one; the value is
        # 722.04941778885148... by mp.quad at 50 digits
        out = run_cli("eval", "--family", "A", "--m", "30", "--n", "30", "--x", "0.5")
        assert out.returncode == 0
        assert out.stdout.endswith(" = 722.0494177889\n")

    def test_high_weight_euler_sums(self):
        # 60 Euler-sum and zeta atoms that cancel 19 digits, so they are
        # evaluated twice (30 and 50 digits)
        out = run_cli("eval", "--family", "K", "--m", "1", "--p", "30", "--q", "30")
        assert out.returncode == 0
        assert out.stdout.endswith(" = -0.2500000002\n")

    def test_order_violation_exits_two(self):
        # C needs m >= 1
        out = run_cli("eval", "--family", "C", "--m", "0", "--n", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: m must be >= 1, got 0\n"

    def test_divergent_order_exits_three(self):
        # log(1-t)/t^2 diverges at 0, as the oracle finds too
        out = run_cli("eval", "--family", "A", "--m", "1", "--n", "2")
        assert out.returncode == 3
        assert out.stdout == ""
        assert "diverges" in out.stderr

    def test_divergent_request_exits_three(self):
        out = run_cli("eval", "--family", "J1", "--m", "0", "--p", "0", "--x", "1")
        assert out.returncode == 3
        assert "diverges" in out.stderr

    def test_divergent_euler_sum_exits_three(self):
        out = run_cli("eval", "--family", "S", "--p", "2", "--q", "1")
        assert out.returncode == 3
        assert "diverges" in out.stderr

    def test_exhausted_budget_exits_two(self, monkeypatch, capsys):
        # a numeric scheme that runs out of its budget is not a divergence
        message = "the terms of the form cancel past 500 extra digits"

        def exhausted(*args):
            raise NoConvergence(message)

        monkeypatch.setattr(cli, "numeric_eval", exhausted)
        monkeypatch.delenv("PLINT_DIGITS", raising=False)
        assert cli.main(["eval", "--family", "A", "--m", "2", "--n", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    def test_deep_cancellation_is_pinned(self):
        # the terms cancel 93 digits; the value is 1.89e-11, which a single
        # retry printed as 0.0009765625 and ten fixed decimals as zero
        out = run_cli("eval", "--family", "B", "--m", "60", "--n", "30", "--x", "1")
        assert out.returncode == 0
        assert out.stdout.endswith(" = 1.890413649e-11\n")
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
            "99767a37225f9a3a6fad293432b7b8aafcb90771c4480fb1bef45369bc228ed8")

    def test_tiny_values_keep_ten_significant_digits(self):
        # a nonzero value below the tenth decimal is not printed as zero,
        # in text or JSON; an exact zero still is
        out = run_cli("eval", "--family", "B", "--m", "60", "--n", "30", "--x", "1",
                      "--format", "json")
        assert out.returncode == 0
        assert json.loads(out.stdout)["value"] == "1.890413649e-11"
        for fmt in ("text", "json"):
            out = run_cli("eval", "--family", "M", "--n", "2", "--m", "3",
                          "--x", "1", "--format", fmt)
            assert out.returncode == 0
            if fmt == "text":
                assert out.stdout == "0 = 0.0000000000\n"
            else:
                assert json.loads(out.stdout)["value"] == "0.0000000000"

    def test_missing_parameter_exits_two(self):
        out = run_cli("eval", "--family", "J", "--m", "1", "--p", "2")
        assert out.returncode == 2
        assert "--q" in out.stderr

    def test_foreign_parameter_exits_two(self):
        out = run_cli("eval", "--family", "A", "--m", "2", "--n", "1", "--p", "3")
        assert out.returncode == 2

    def test_x_outside_unit_interval_exits_two(self):
        for bad in ("0", "1.5", "-0.25"):
            out = run_cli("eval", "--family", "A", "--m", "2", "--n", "1",
                          "--x", bad)
            assert out.returncode == 2, bad

    def test_point_rejected_for_constant_family(self):
        out = run_cli("eval", "--family", "S", "--p", "1", "--q", "2",
                      "--x", "0.5")
        assert out.returncode == 2

    def test_json_payload_round_trips(self):
        out = run_cli("eval", "--family", "A", "--m", "2", "--n", "1",
                      "--x", "0.25", "--format", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        form = exact.from_dict(payload["form"])
        assert exact.from_dict(json.loads(json.dumps(exact.to_dict(form)))) == form
        assert exact.compact(form) == payload["compact"]
        assert payload["x"] == "0.25"

    def test_x_parsed_as_exact_rational(self):
        # 0.75 must become 3/4, not a float: the symbolic value at an exact
        # dyadic point is reproducible bit for bit
        a = run_cli("eval", "--family", "L", "--n", "1", "--m", "1",
                    "--x", "0.75", "--format", "json")
        payload = json.loads(a.stdout)
        assert payload["x"] == "0.75"
        assert a.returncode == 0

    def test_flag_beats_bad_environment(self):
        out = run_cli("eval", "--family", "S", "--p", "1", "--q", "2",
                      "--digits", "30", env={"PLINT_DIGITS": "nonsense"})
        assert out.returncode == 0

    def test_bad_environment_alone_exits_two(self):
        out = run_cli("eval", "--family", "S", "--p", "1", "--q", "2",
                      env={"PLINT_DIGITS": "nonsense"})
        assert out.returncode == 2

    def test_digits_above_the_cap_exit_two(self):
        # 10^9 digits ran out of memory; 10^4 ran for minutes
        out = run_cli("eval", "--family", "J0", "--m", "0", "--p", "2",
                      "--digits", "1000000000")
        assert out.returncode == 2
        assert "at most 2000" in out.stderr
        out = run_cli("eval", "--family", "J0", "--m", "0", "--p", "2",
                      env={"PLINT_DIGITS": "2001"})
        assert out.returncode == 2

    def test_digits_cap_is_inclusive(self):
        assert cli._resolve_digits(cli.MAX_DIGITS) == 2000
        with pytest.raises(ParameterError):
            cli._resolve_digits(cli.MAX_DIGITS + 1)


class TestVerify:
    def test_identities_suite_green(self):
        out = run_cli("verify", "--suite", "identities")
        assert out.returncode == 0
        assert out.stderr.strip() == "42/42 pass"
        records = json.loads(out.stdout)
        assert len(records) == 42
        assert all(r["pass"] for r in records)
        assert set(records[0]) == {"spec", "symbolic", "value", "oracle",
                                   "rel_err", "pass"}
        assert set(records[0]["spec"]) == {"family", "params", "x"}

    def test_failure_exits_one_with_full_report(self):
        out = run_cli("verify", "--suite", "euler", "--grid", "small",
                      "--tol", "1e-30")
        assert out.returncode == 1
        records = json.loads(out.stdout)
        assert len(records) == 9
        assert any(not r["pass"] for r in records)

    def test_stdout_is_deterministic_across_runs_and_jobs(self):
        first = run_cli("verify", "--suite", "euler", "--grid", "small")
        again = run_cli("verify", "--suite", "euler", "--grid", "small")
        fanned = run_cli("verify", "--suite", "euler", "--grid", "small",
                         "--jobs", "2")
        assert first.returncode == again.returncode == fanned.returncode == 0
        assert first.stdout == again.stdout == fanned.stdout

    def test_full_report_is_pinned(self):
        # sha256 of the whole `verify --suite all` stdout: a change that
        # alters any record, value string or rel_err shows up here
        out = run_cli("verify", "--suite", "all", "--jobs", "2")
        assert out.returncode == 0
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
            "5948a752bccdfa3c2d2e5f9b47f2082c43f1f3df1a4561e21223171aef632c1e")

    @pytest.mark.parametrize("tol", ["abc", "-1", "nan", "inf"])
    def test_bad_tolerance_exits_two(self, tol):
        out = run_cli("verify", "--suite", "identities", f"--tol={tol}")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "--tol" in out.stderr

    def test_zero_tolerance_accepted(self):
        out = run_cli("verify", "--suite", "identities", "--tol", "0")
        assert out.returncode == 0

    def test_unknown_suite_exits_two(self):
        out = run_cli("verify", "--suite", "everything")
        assert out.returncode == 2


class TestTable:
    def test_j0_grid_has_nine_rows(self):
        out = run_cli("table", "--family", "J0", "--max-m", "3", "--max-p", "3")
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert len(lines) == 10  # header plus nine rows
        assert "1/2*z2 - 3/8" in out.stdout

    def test_kbase_csv_quotes_euler_sums(self):
        out = run_cli("table", "--family", "Kbase", "--max-m", "3",
                      "--max-q", "3", "--format", "csv")
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert lines[0] == "m,q,symbolic,value"
        assert len(lines) == 10
        assert '"z4 - S(2,2)"' in out.stdout

    def test_s_table_covers_odd_weights_only(self):
        out = run_cli("table", "--family", "S", "--max-weight", "9",
                      "--format", "json")
        rows = json.loads(out.stdout)
        assert rows, "table must not be empty"
        assert all((r["p"] + r["q"]) % 2 == 1 for r in rows)
        assert {r["p"] + r["q"] for r in rows} == {3, 5, 7, 9}
        two_z3 = next(r for r in rows if (r["p"], r["q"]) == (1, 2))
        assert two_z3["symbolic"] == "2*z3"

    def test_bad_ranges_exit_two(self):
        assert run_cli("table", "--family", "J0", "--max-m", "0",
                       "--max-p", "3").returncode == 2
        assert run_cli("table", "--family", "S",
                       "--max-weight", "2").returncode == 2
        assert run_cli("table", "--family", "J0",
                       "--max-m", "3").returncode == 2

    def test_abc_tables_skip_divergent_corner(self):
        out = run_cli("table", "--family", "A", "--max-m", "3", "--max-n", "3",
                      "--format", "json")
        rows = json.loads(out.stdout)
        assert all(r["m"] >= r["n"] for r in rows)
        assert len(rows) == 6

    def test_reader_closing_early_exits_141_without_traceback(self):
        # about 95 KB of rows, more than a 64 KiB pipe holds, so the writer
        # is still writing when the reader goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "plint", "table", "--family", "L",
             "--max-n", "30", "--max-m", "30"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first.split() == [b"n", b"m", b"symbolic", b"value"]
        assert "Traceback" not in err, err

    def test_table_output_is_deterministic(self):
        first = run_cli("table", "--family", "K", "--max-m", "2", "--max-p", "2",
                        "--max-q", "2", "--format", "csv")
        again = run_cli("table", "--family", "K", "--max-m", "2", "--max-p", "2",
                        "--max-q", "2", "--format", "csv")
        assert first.stdout == again.stdout
        assert first.returncode == 0
