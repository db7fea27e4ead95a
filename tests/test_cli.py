"""Command-line interface: subcommands, outputs, exit codes."""

import json

import pytest

from subriemann import fixtures as fx
from subriemann.cli import build_parser, main
from subriemann.fields import format_system
from subriemann.fixtures import fixture_path

from test_fields import DEPENDENT_GENERATORS, INHOMOGENEOUS, RANK_TWO
from test_nsw import SKEW_PLANE


def vf(name):
    return str(fixture_path(name))


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_martinet(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", vf("martinet.vf"),
                           "--json", str(report))
        assert code == 0
        assert "Q = 5" in out
        assert "H.1 PASS" in out and "H.2 PASS" in out
        payload = json.loads(report.read_text())
        assert payload["schema_version"] == 1
        assert payload["Q"] == 5
        assert payload["nu_table"][0]["nu"] == 5
        assert payload["top_stratum"] == [1]
        assert "top stratum: x1 = 0" in out

    @pytest.mark.parametrize("name, axes, line", [
        ("euclidean2.vf", [], "top stratum: R^2"),
        ("ex31.vf", [1, 2], "top stratum: x1 = x2 = 0"),
        (None, "undecided", "top stratum: undecided"),
    ], ids=["euclidean2", "ex31", "skew-plane"])
    def test_top_stratum(self, capsys, tmp_path, name, axes, line):
        path = tmp_path / "skew.vf"
        path.write_text(SKEW_PLANE)
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", vf(name) if name else str(path),
                           "--json", str(report))
        assert code == 0
        assert line in out
        assert json.loads(report.read_text())["top_stratum"] == axes

    def test_nu_points_table(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0,0\n1/2,0,0\n")
        code, out, _ = run(capsys, "analyze", vf("martinet.vf"),
                           "--points", str(pts))
        assert code == 0
        assert "nu(0,0,0) = 5" in out
        assert "nu(1/2,0,0) = 4" in out

    @pytest.mark.parametrize("text, verdict, not_computed", [
        # rank fine, independence violated
        (DEPENDENT_GENERATORS, "H.2 FAIL", []),
        (INHOMOGENEOUS, "H.1 FAIL",
         ["h2", "basis_degrees", "basis_degrees_canonical", "nsw_tuple_counts", "top_stratum",
          "nu_table"]),
        (RANK_TWO, "H.2 FAIL", ["nsw_tuple_counts", "top_stratum", "nu_table"]),
    ], ids=["dependent-generators", "inhomogeneous", "rank-two"])
    def test_hypothesis_failure_exits_2(self, capsys, tmp_path, text, verdict, not_computed):
        bad = tmp_path / "bad.vf"
        bad.write_text(text)
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "analyze", str(bad), "--json", str(report))
        assert code == 2
        assert verdict in out
        assert err == ""
        payload = json.loads(report.read_text())
        assert [k for k, v in payload.items() if v is None] == not_computed

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file.vf")
        assert code == 1
        assert json.loads(err.strip())["error"] == "usage"


class TestNu:
    def test_csv_output(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n1,0\n")
        out_file = tmp_path / "nu.csv"
        code, _, _ = run(capsys, "nu", vf("grushin-1-1-2.vf"),
                         "--points", str(pts), "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,nu"
        assert lines[1] == "0,0,4"
        assert lines[2] == "1,0,2"


class TestNsw:
    def test_json_and_eval(self, capsys, tmp_path):
        dump = tmp_path / "nsw.json"
        rows = tmp_path / "rows.csv"
        rows.write_text("0,0,1/2\n")
        table = tmp_path / "table.csv"
        code, _, _ = run(capsys, "nsw", vf("grushin-1-1-2.vf"),
                         "--json", str(dump), "--eval", str(rows),
                         "--out", str(table))
        assert code == 0
        payload = json.loads(dump.read_text())
        assert payload["homogeneous_dimension"] == 4
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,r,lambda"
        # Lambda(0, 1/2) = 24/16 = 1.5
        assert lines[1].split(",")[-1] == "1.5"


class TestDist:
    def test_query_mode(self, capsys, tmp_path):
        q = tmp_path / "targets.csv"
        q.write_text("1,0\n")
        code, out, _ = run(capsys, "dist", vf("euclidean2.vf"),
                           "--source", "0,0", "--box=-2,2;-2,2",
                           "--spacing", "0.05", "--tau", "0.1",
                           "--controls", "24", "--query", str(q))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2,distance"
        d = float(lines[1].split(",")[-1])
        assert abs(d - 1.0) < 0.2

    def test_full_dump_row_count(self, capsys, tmp_path):
        out_file = tmp_path / "field.csv"
        code, _, _ = run(capsys, "dist", vf("euclidean2.vf"),
                         "--source", "0,0", "--box=-1,1;-1,1",
                         "--spacing", "0.5", "--tau", "1.0",
                         "--out", str(out_file))
        assert code == 0
        assert len(out_file.read_text().strip().splitlines()) == 1 + 25


class TestBallvol:
    def test_grid_estimates(self, capsys, tmp_path):
        out_file = tmp_path / "vol.csv"
        code, _, _ = run(capsys, "ballvol", vf("euclidean2.vf"),
                         "--center", "0,0", "--radii", "0.5,1.0",
                         "--box=-2,2;-2,2", "--spacing", "0.05",
                         "--tau", "0.1", "--controls", "24",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "radius,volume"
        small = float(lines[1].split(",")[1])
        large = float(lines[2].split(",")[1])
        assert small < large


class TestGrowth:
    def test_plan_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "growth.csv"
        code, out, _ = run(capsys, "growth", vf("ex31.vf"),
                           "--domain", str(fixture_path("ex31.domain")),
                           "--kappa", "3.9,4.0",
                           "--plan", str(fixture_path("ex31.plan")),
                           "--out", str(out_file))
        assert code == 0
        summary = json.loads(out)
        assert set(summary["kappa_infima"]) == {"3.9", "4"}
        assert summary["nu_tilde"] == 6
        assert out_file.read_text().startswith("kappa,center,r,")

    def test_default_plan(self, capsys, tmp_path):
        # without --plan: every domain sample point at r = 1/2 ... 1/256
        out_file = tmp_path / "growth.csv"
        code, out, _ = run(capsys, "growth", vf("ex31.vf"),
                           "--domain", str(fixture_path("ex31.domain")),
                           "--kappa", "3.9,4", "--out", str(out_file))
        assert code == 0
        assert json.loads(out)["nu_tilde"] == 6
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        assert len(rows) == 3 * 8 * 2
        assert {float(row[2]) for row in rows} == {2.0 ** -k for k in range(1, 9)}


ROWS = "<rows.csv>"  # stands for a file with the one row 0,0,1/2


class TestCsvOutputs:
    # every subcommand that writes CSV, and the option that names its file
    @pytest.mark.parametrize("argv, option", [
        (("nu", vf("grushin-1-1-2.vf"), "--points", ROWS), "--out"),
        (("nsw", vf("grushin-1-1-2.vf"), "--eval", ROWS), "--out"),
        (("dist", vf("euclidean2.vf"), "--source", "0,0", "--box=-1,1;-1,1",
          "--spacing", "0.5", "--tau", "1.0"), "--out"),
        (("ballvol", vf("euclidean2.vf"), "--center", "0,0", "--radii", "0.5,1",
          "--box=-1,1;-1,1", "--spacing", "0.5", "--tau", "1.0"), "--out"),
        (("growth", vf("ex31.vf"), "--domain", str(fixture_path("ex31.domain")),
          "--kappa", "3.9", "--plan", str(fixture_path("ex31.plan"))), "--out"),
        (("probe-exponent", vf("grushin-1-1-2.vf"), "--kappa", "4.0", "--t", "1.0,0.5",
          "--box=-2,2;-2,2", "--spacing", "0.25"), "--out"),
        (("sobolev", vf("grushin-1-1-2.vf"), "--box=-3,3;-3,3", "--spacing", "0.375",
          "--max-iter", "2", "--starts", "1"), "--trace"),
    ], ids=["nu", "nsw-eval", "dist", "ballvol", "growth", "probe-exponent", "sobolev-trace"])
    def test_rows_end_in_a_bare_newline(self, capsys, tmp_path, argv, option):
        rows = tmp_path / "rows.csv"
        rows.write_text("0,0,1/2\n")
        out_file = tmp_path / "out.csv"
        code, _, _ = run(capsys, *(str(rows) if a == ROWS else a for a in argv),
                         option, str(out_file))
        assert code == 0
        data = out_file.read_bytes()
        assert data.count(b"\n") >= 2 and data.endswith(b"\n")
        assert b"\r" not in data


class TestVerifyAuto:
    def test_pass(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("0,1/2,0,3\n")
        code, out, _ = run(capsys, "verify-auto", vf("grushin-1-1-2.vf"),
                           str(fixture_path("grushin-1-1-2.family")),
                           "--pairs", str(pairs))
        assert code == 0
        assert "PASS" in out

    def test_mutated_family_exits_3(self, capsys, tmp_path):
        text = fixture_path("grushin-1-1-2.family").read_text()
        broken = text.replace("T2 = x2 + w2", "T2 = x2 + w2 + x1^2")
        assert broken != text
        bad = tmp_path / "bad.family"
        bad.write_text(broken)
        code, out, _ = run(capsys, "verify-auto", vf("grushin-1-1-2.vf"),
                           str(bad))
        assert code == 3
        assert "FAIL" in out

    @pytest.mark.parametrize("axis", ["0", "-1", "3"])
    def test_h_zero_axis_out_of_range_is_usage_error(self, capsys, tmp_path, axis):
        text = fixture_path("grushin-1-1-2.family").read_text()
        bad = tmp_path / "bad.family"
        bad.write_text(text.replace("h_zero = 1", f"h_zero = {axis}"))
        code, out, err = run(capsys, "verify-auto", vf("grushin-1-1-2.vf"), str(bad))
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert f"h_zero axis {axis} out of range" in payload["message"]


class TestProbeExponent:
    def test_flat_at_q(self, capsys):
        code, out, _ = run(capsys, "probe-exponent", vf("grushin-1-1-2.vf"),
                           "--kappa", "4.0", "--t", "1.0,0.5,0.1",
                           "--box=-2,2;-2,2", "--spacing", "0.25")
        assert code == 0
        body = out[out.index("{"):]
        summary = json.loads(body)
        assert abs(float(summary["spread"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("t", ["1e200", "1e-200"])
    def test_t_out_of_float_range_exits_3(self, capsys, t):
        # t^3 overflows, or underflows to a zero spacing, for Grushin's weights (1, 3)
        code, out, err = run(capsys, "probe-exponent", vf("grushin-1-1-2.vf"),
                             "--kappa", "4", "--t", f"1,{t}",
                             "--box=-2,2;-2,2", "--spacing", "0.25")
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "property"
        assert f"dilation parameter t = {float(t)} is out of range" in payload["message"]


class TestSobolev:
    def test_short_run(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        grid = tmp_path / "u.raw"
        code, out, _ = run(capsys, "sobolev", vf("grushin-1-1-2.vf"),
                           "--box=-3,3;-3,3", "--spacing", "0.375",
                           "--p", "2.0", "--max-iter", "5", "--starts", "1",
                           "--trace", str(trace), "--dump-grid", str(grid))
        assert code == 0
        summary = json.loads(out)
        assert float(summary["constant"]) > 0
        assert summary["p_star"] == "4"
        assert summary["stop_reason"] == "max_iter"
        assert summary["converged"] is False
        assert summary["iterations"] == 5
        # one evaluation at the start, at least one per iteration
        assert summary["evaluations"] >= 6
        assert 0.0 < float(summary["grad_norm"]) < float("inf")
        # -g.d / f of the last direction: a descent direction at max_iter
        assert 0.0 < float(summary["decrement"]) < float("inf")
        assert trace.read_text().startswith("iteration,quotient")
        sidecar = json.loads((tmp_path / "u.raw.json").read_text())
        import numpy as np

        values = np.fromfile(grid, dtype="<f8").reshape(sidecar["shape"])
        assert values.shape == (17, 17)


class TestUsageAndErrors:
    @pytest.mark.parametrize("command, spec, line", [
        ("analyze", "grushin-1-1-2.vf", "weights = 1,1"),
        ("verify-auto", "grushin-1-1-2.family", "T2 = x2"),
        ("growth", "ex31.domain", "box = 0,2 ; -1,1 ; -1,1"),
    ], ids=["analyze", "verify-auto", "growth"])
    def test_repeated_key_is_usage_error(self, capsys, tmp_path, command, spec, line):
        bad = tmp_path / spec
        bad.write_text(fixture_path(spec).read_text() + line + "\n")
        argv = {
            "analyze": [str(bad)],
            "verify-auto": [vf("grushin-1-1-2.vf"), str(bad)],
            "growth": [vf("ex31.vf"), "--domain", str(bad), "--kappa", "4.0"],
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert f"repeats the key '{line.split(' =')[0]}'" in payload["message"]

    def test_missing_required_option_exits_1(self, capsys):
        code, _, err = run(capsys, "dist", vf("euclidean2.vf"))
        assert code == 1

    # only dist, ballvol and sobolev draw random numbers; the parser
    # rejects --seed before any file is opened
    @pytest.mark.parametrize("argv", [
        ("analyze", "x.vf"),
        ("nu", "x.vf", "--points", "p.csv"),
        ("nsw", "x.vf"),
        ("growth", "x.vf", "--domain", "d.json", "--kappa", "1"),
        ("verify-auto", "x.vf", "x.family"),
        ("probe-exponent", "x.vf", "--kappa", "1", "--t", "1",
         "--box=-1,1;-1,1", "--spacing", "0.5"),
    ])
    def test_seed_only_where_read(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--seed", "1")
        assert code == 1
        assert "unrecognized arguments: --seed 1" in err

    @pytest.mark.parametrize("argv", [
        ("dist", "x.vf", "--source", "0,0", "--box=-1,1;-1,1", "--spacing", "0.5"),
        ("ballvol", "x.vf", "--center", "0,0", "--radii", "1",
         "--box=-1,1;-1,1", "--spacing", "0.5"),
        ("sobolev", "x.vf", "--box=-1,1;-1,1", "--spacing", "0.5"),
    ])
    def test_seed_kept_where_read(self, argv):
        assert build_parser().parse_args([*argv, "--seed", "7"]).seed == 7

    # these three write no CSV (sobolev's CSV is --trace), so --out would
    # be accepted and ignored; the parser rejects it instead
    @pytest.mark.parametrize("argv", [
        ("analyze", vf("heisenberg1.vf")),
        ("verify-auto", vf("grushin-1-1-2.vf"), str(fixture_path("grushin-1-1-2.family"))),
        ("sobolev", vf("grushin-1-1-2.vf"), "--box=-3,3;-3,3", "--spacing", "0.375",
         "--max-iter", "2", "--starts", "1"),
    ], ids=["analyze", "verify-auto", "sobolev"])
    def test_out_only_where_a_csv_is_written(self, capsys, tmp_path, argv):
        out_file = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --out" in json.loads(err)["message"]
        assert not out_file.exists()

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("argv, text", [
        (("analyze", "x.vf", "--bogus"), "unrecognized arguments: --bogus"),
        (("dist", "x.vf"), "the following arguments are required: --source"),
        (("frobnicate",), "invalid choice: 'frobnicate'"),
    ], ids=["unknown-option", "missing-required", "unknown-command"])
    def test_argparse_errors_print_json_usage(self, capsys, argv, text):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert text in payload["message"]

    # a short row, or a value that is not a rational, in each CSV input
    @pytest.mark.parametrize("option, row, argv", [
        ("--points", "0,abc", ("nu", vf("grushin-1-1-2.vf"))),
        ("--eval", "0,0", ("nsw", vf("grushin-1-1-2.vf"))),
        ("--plan", "1/2,0,0", ("growth", vf("ex31.vf"), "--domain",
                               str(fixture_path("ex31.domain")), "--kappa", "3.9")),
        ("--pairs", "0,1/2,0", ("verify-auto", vf("grushin-1-1-2.vf"),
                                str(fixture_path("grushin-1-1-2.family")))),
    ], ids=["points", "eval", "plan", "pairs"])
    def test_malformed_csv_row_is_usage_error(self, capsys, tmp_path, option, row, argv):
        rows = tmp_path / "rows.csv"
        rows.write_text(row + "\n")
        code, _, err = run(capsys, *argv, option, str(rows))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert str(rows) in payload["message"]

    # each value either does not parse or has the wrong number of entries
    # for the 2-D system; the message names the option
    @pytest.mark.parametrize("argv, option", [
        (("dist", "--source", "0,0", "--box=-1,1,2;-1,1", "--spacing", "0.5"), "--box"),
        (("dist", "--source", "0,x", "--box=-1,1;-1,1", "--spacing", "0.5"), "--source"),
        (("dist", "--source", "nan,0", "--box=-1,1;-1,1", "--spacing", "0.5"), "--source"),
        (("dist", "--source", "0,0", "--box=-1,1;-1,1", "--spacing", "x"), "--spacing"),
        (("ballvol", "--center", "0,0", "--radii", "x", "--box=-1,1;-1,1", "--spacing", "0.5"),
         "--radii"),
        (("growth", "--domain", "d.json", "--kappa", "x"), "--kappa"),
        (("probe-exponent", "--kappa", "1", "--t", "x", "--box=-1,1;-1,1", "--spacing", "0.5"),
         "--t"),
        (("dist", "--source", "0", "--box=-1,1;-1,1", "--spacing", "0.5"), "--source"),
        (("ballvol", "--center", "0,0,0", "--radii", "1", "--box=-1,1;-1,1", "--spacing", "0.5"),
         "--center"),
        (("dist", "--source", "0,0", "--box=-1,1;-1,1;-1,1", "--spacing", "0.5"), "--box"),
        (("sobolev", "--box=-1,1;-1,1", "--spacing", "0.5,0.5,0.5"), "--spacing"),
        # NaN passes a check written as x <= bound, so these must not parse
        (("dist", "--source", "0,0", "--box=-1,1;-1,1", "--spacing", "0.25", "--tau", "nan"),
         "--tau"),
        (("probe-exponent", "--kappa", "nan", "--t", "1", "--box=-1,1;-1,1", "--spacing", "0.5"),
         "--kappa"),
        (("sobolev", "--box=-1,1;-1,1", "--spacing", "0.5", "--p", "nan"), "--p"),
        (("sobolev", "--box=-1,1;-1,1", "--spacing", "0.5", "--tol", "nan"), "--tol"),
    ], ids=["box-interval", "source-value", "source-nan", "spacing-value", "radii", "kappa", "t",
            "source-short", "center-long", "box-axes", "spacing-count", "tau-nan",
            "probe-kappa-nan", "p-nan", "tol-nan"])
    def test_bad_option_value_is_usage_error(self, capsys, argv, option):
        command, *options = argv
        code, out, err = run(capsys, command, vf("euclidean2.vf"), *options)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert option in payload["message"]

    @pytest.mark.parametrize("command", ["nsw", "analyze"])
    def test_over_the_determinant_cap_is_usage_error(self, capsys, tmp_path, command):
        # C(24, 13) = 2 496 144 determinants; the cap refuses them before any is built
        spec = tmp_path / "heisenberg6.vf"
        spec.write_text(format_system(fx.heisenberg(6)))
        code, out, err = run(capsys, command, str(spec))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert "2496144" in payload["message"] and "2000000" in payload["message"]

    @pytest.mark.parametrize("option, value", [("--starts", "0"), ("--max-iter", "-1")])
    def test_bad_solver_budget_exits_3(self, capsys, option, value):
        code, out, err = run(capsys, "sobolev", vf("grushin-1-1-2.vf"), "--box=-3,3;-3,3",
                             "--spacing", "0.375", option, value)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "property"

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip()

    def test_lattice_error_exits_3(self, capsys):
        code, _, err = run(capsys, "dist", vf("euclidean2.vf"),
                           "--source", "0,0", "--box=1,-1;-1,1", "--spacing", "0.5")
        assert code == 3
        assert json.loads(err.strip())["error"] == "property"

    def test_negative_control_count_exits_3(self, capsys):
        code, out, err = run(capsys, "dist", vf("grushin-1-1-2.vf"), "--source", "0,0",
                             "--box=-1,1;-1,1", "--spacing", "0.25", "--controls", "-3")
        assert code == 3
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "property"
        assert "control count" in payload["message"]

    def test_property_error_exits_3(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("1,0\n")  # all lambda_I vanish nowhere... use bad kappa
        code, _, err = run(capsys, "probe-exponent", vf("grushin-1-1-2.vf"),
                           "--kappa", "0.5", "--t", "1.0",
                           "--box=-2,2;-2,2", "--spacing", "0.25")
        assert code == 3
