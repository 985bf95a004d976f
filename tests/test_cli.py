"""End-to-end checks of the command-line surface through real subprocesses."""

import json
import os
import subprocess
import sys

import plint
from plint import exact

# the directory this test run imports plint from, so the subprocesses run the
# same code whether or not the package is installed
SRC = os.path.dirname(os.path.dirname(plint.__file__))


def run_cli(*argv, env=None):
    merged = dict(os.environ)
    merged["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, merged.get("PYTHONPATH"))))
    merged.update(env or {})
    return subprocess.run([sys.executable, "-m", "plint", *argv],
                          capture_output=True, text=True, env=merged)


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

    def test_order_violation_exits_two(self):
        out = run_cli("eval", "--family", "A", "--m", "1", "--n", "2")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error:")

    def test_divergent_request_exits_three(self):
        out = run_cli("eval", "--family", "J1", "--m", "0", "--p", "0", "--x", "1")
        assert out.returncode == 3
        assert "diverges" in out.stderr

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

    def test_table_output_is_deterministic(self):
        first = run_cli("table", "--family", "K", "--max-m", "2", "--max-p", "2",
                        "--max-q", "2", "--format", "csv")
        again = run_cli("table", "--family", "K", "--max-m", "2", "--max-p", "2",
                        "--max-q", "2", "--format", "csv")
        assert first.stdout == again.stdout
        assert first.returncode == 0
