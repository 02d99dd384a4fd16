import math

import pytest

from satcycles import Params, analytic_one_zone_cycles, cli
from satcycles.cli import main, write_csv

from oracles import read_csv

TWO_PI = 2.0 * math.pi


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    values = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith(("#", "transition")):
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


class TestRegime:
    def test_mixed_sign_report(self, capsys):
        code, out, _ = run(capsys, ["regime", "--a", "-1", "--b", "1", "--mu", "1.2"])
        assert code == 0
        assert "regime: mixed_sign" in out
        kv = parse_kv(out)
        assert float(kv["three_cycle_bound"]) == pytest.approx(math.sqrt(2), abs=1e-9)
        assert float(kv["c"]) == pytest.approx(math.pi / 2, abs=1e-9)
        assert float(kv["mu1"]) == pytest.approx(math.pi / 2, abs=1e-9)
        assert float(kv["mu2"]) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_center_tags(self, capsys):
        code, out, _ = run(capsys, ["regime", "--a", "0", "--b", "0", "--mu", "7"])
        assert code == 0 and "global_center" in out
        code, out, _ = run(capsys, ["regime", "--a", "2", "--b", "0", "--mu", "0.5"])
        assert code == 0 and "center_no_cycles" in out


class TestCycles:
    def test_three_cycle_table(self, capsys, tmp_path):
        out_path = tmp_path / "cycles.csv"
        code, out, _ = run(capsys, ["cycles", "--a", "-1", "--b", "1", "--mu", "1.2",
                                    "--out", str(out_path)])
        assert code == 0
        assert "3 limit cycle(s)" in out
        meta, header, rows = read_csv(out_path)
        assert header == ["x0", "zonal_type", "multiplier", "stability", "symmetric"]
        assert [r[1] for r in rows] == ["one_lower", "one_inner", "one_upper"]
        assert [r[3] for r in rows] == ["attracting", "repelling", "attracting"]
        x0s = [float(r[0]) for r in rows]
        assert x0s == pytest.approx([-2.6, -0.6, 1.4], abs=1e-6)

    def test_center_refusal_exit_code(self, capsys):
        code, _, err = run(capsys, ["cycles", "--a", "0", "--b", "0", "--mu", "1"])
        assert code == 2
        assert "center" in err

    def test_counts_invariant_under_symmetries(self, capsys):
        counts = []
        for a, b, mu in (("-1", "1", "1.2"), ("-1", "1", "-1.2"), ("1", "-1", "1.2")):
            code, out, _ = run(capsys, ["cycles", "--a", a, "--b", b, "--mu", mu])
            assert code == 0
            counts.append(int(out.split(" ")[0]))
        assert counts == [3, 3, 3]


    def test_saturated_multipliers_give_the_closed_form_cycles(self, capsys):
        # the outer cycles' multiplier exp(2*pi*200) leaves the doubles, so
        # their computed d reads nothing; the closed form stands in for them
        code, out, err = run(capsys, ["cycles", "--a", "200", "--b", "-1", "--mu", "1"])
        assert code == 0 and err == ""
        rows = [line.split() for line in out.splitlines()[2:]]
        expected = analytic_one_zone_cycles(Params(a=200, b=-1, mu=1))
        assert [row[1:] for row in rows[::2]] == [["one_lower", "inf", "repelling", "false"],
                                                 ["one_upper", "inf", "repelling", "false"]]
        assert [float(row[0]) for row in rows[::2]] == [expected[0].x0, expected[2].x0]
        assert [rows[1][1], *rows[1][3:]] == ["one_inner", "attracting", "true"]
        assert float(rows[1][0]) == pytest.approx(expected[1].x0, abs=1e-12)
        assert float(rows[1][2]) == pytest.approx(expected[1].multiplier, rel=1e-12)


class TestScan:
    def test_transition_echo_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run(capsys, [
            "scan", "--a", "-1", "--b", "1", "--mu-min", "1.3", "--mu-max", "1.5",
            "--n", "2", "--eps-list", "0.05", "--out", str(out_path),
        ])
        assert code == 0
        assert "transition eps=0.05: count 3 -> 5" in out
        meta, header, rows = read_csv(out_path)
        assert header == ["mu", "eps", "count", "x0s", "multipliers"]
        assert [int(r[2]) for r in rows] == [3, 5]
        for row in rows:
            assert len(row[3].split(";")) == int(row[2])
            assert len(row[4].split(";")) == int(row[2])

    def test_rows_sorted_by_eps_then_mu(self, capsys, tmp_path):
        out_path = tmp_path / "scan2.csv"
        code, _, _ = run(capsys, [
            "scan", "--a", "-1", "--b", "1", "--mu-min", "1.0", "--mu-max", "1.2",
            "--n", "2", "--eps-list", "0.1,0.05", "--out", str(out_path),
        ])
        assert code == 0
        _, _, rows = read_csv(out_path)
        keys = [(float(r[1]), float(r[0])) for r in rows]
        assert keys == sorted(keys)

    def test_rejects_tiny_grid(self, capsys):
        code, _, err = run(capsys, ["scan", "--a", "-1", "--b", "1", "--mu-min", "0",
                                    "--mu-max", "1", "--n", "1"])
        assert code == 2
        assert err.startswith("error: --n must be >= 2")


class TestMelnikovCommand:
    def test_worked_point(self, capsys):
        code, out, _ = run(capsys, ["melnikov", "--a", "-1", "--b", "1", "--x", "1", "--mu", "2"])
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["M_shift"]) == pytest.approx(TWO_PI - 8, abs=1e-9)
        assert float(kv["Mx"]) == pytest.approx(0.0, abs=1e-9)
        assert float(kv["Mmu"]) == pytest.approx(-4.0, abs=1e-9)
        assert abs(float(kv["identity_residual"])) < 1e-10


class TestBifValuesCommand:
    def test_values(self, capsys):
        code, out, _ = run(capsys, ["bifvalues", "--a", "-1", "--b", "1"])
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["x1"]) == pytest.approx(1.0, abs=1e-9)

    def test_bad_regime_exit_code(self, capsys):
        code, _, err = run(capsys, ["bifvalues", "--a", "1", "--b", "2"])
        assert code == 2 and "a*b < 0" in err

    @pytest.mark.parametrize("command", [["bifvalues"], ["regime", "--mu", "1"]])
    def test_unresolvable_constants_exit_3(self, capsys, command):
        code, _, err = run(capsys, [*command, "--a", "-1", "--b", "1e-17"])
        assert code == 3
        assert err.startswith("error: bifurcation constants unresolved")


class TestRefusals:
    @pytest.mark.parametrize("argv", [
        ["regime", "--mu", "1"],
        ["cycles", "--a", "-1"],
        ["zeroset", "--b", "1"],
    ])
    def test_missing_slopes_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: --a and --b are required (flags or --config)\n"

    @pytest.mark.parametrize("argv", [
        ["scan", "--a", "-1", "--b", "1", "--mu-min", "1", "--mu-max", "2", "--n", "2",
         "--eps-list", "abc"],
        ["scan", "--a", "-1", "--b", "1", "--mu-min", "nan", "--mu-max", "2", "--n", "2"],
        ["scan", "--a", "-1", "--b", "1", "--mu-min", "1", "--mu-max", "2", "--n", "2",
         "--eps-list", "0.05,inf"],
        ["zeroset", "--a", "-1", "--b", "1", "--samples", "0", "--out", "z.csv"],
        ["zeroset", "--a", "-1", "--b", "1", "--samples", "1", "--out", "z.csv"],
        ["orbit3d", "--a", "-1", "--b", "1", "--x0", "0", "--samples", "-1", "--out", "o.csv"],
        ["orbit3d", "--a", "-1", "--b", "1", "--x0", "nan", "--out", "o.csv"],
        ["melnikov", "--a", "-1", "--b", "1", "--x", "nan"],
    ], ids=["eps-list-abc", "mu-min-nan", "eps-list-inf", "samples-0", "samples-1",
            "orbit-samples-negative", "x0-nan", "x-nan"])
    def test_bad_numbers_exit_2_with_one_error_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_missing_out_is_refused_before_the_zero_set(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("zero_set ran before --out was checked")

        monkeypatch.setattr(cli, "zero_set", fail)
        code, _, err = run(capsys, ["zeroset", "--a", "-1", "--b", "1"])
        assert code == 2
        assert err == "error: zeroset requires --out\n"

    def test_missing_out_is_refused_before_the_orbit(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the orbit was computed before --out was checked")

        monkeypatch.setattr(cli, "displacement_d", fail)
        monkeypatch.setattr(cli, "advance", fail)
        code, _, err = run(capsys, ["orbit3d", "--a", "-1", "--b", "1", "--x0", "0"])
        assert code == 2
        assert err == "error: orbit3d requires --out\n"


class TestZeroSetCommand:
    def test_export_and_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "zeroset.csv"
        code, _, _ = run(capsys, ["zeroset", "--a", "-1", "--b", "1",
                                  "--samples", "50", "--out", str(out_path)])
        assert code == 0
        meta, header, rows = read_csv(out_path)
        assert header == ["branch", "x", "mu"]
        branches = {r[0] for r in rows}
        assert {"axis", "branch_pp", "branch_np", "branch_pn", "branch_nn"} <= branches
        # byte-identical round trip
        copy_path = tmp_path / "copy.csv"
        write_csv(copy_path, meta, header, rows)
        assert out_path.read_bytes() == copy_path.read_bytes()

    def test_bad_regime(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["zeroset", "--a", "1", "--b", "2",
                                  "--out", str(tmp_path / "z.csv")])
        assert code == 2

    def test_io_failure_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, ["zeroset", "--a", "-1", "--b", "1", "--samples",
                                    "16", "--out", str(tmp_path / "missing" / "z.csv")])
        assert code == 4
        assert err


class TestOrbit3d:
    def test_cylinder_invariant_and_closure(self, capsys, tmp_path):
        out_path = tmp_path / "orbit.csv"
        code, _, err = run(capsys, ["orbit3d", "--a", "-1", "--b", "1", "--mu", "1.2",
                                    "--x0", "1.4", "--samples", "64", "--out", str(out_path)])
        assert code == 0
        assert "warning" not in err
        _, header, rows = read_csv(out_path)
        assert header == ["t", "x", "y", "z"]
        for row in rows:
            _, _, y, z = (float(v) for v in row)
            assert abs(y * y + z * z - 1.2**2) <= 1e-12
        assert abs(float(rows[0][1]) - float(rows[-1][1])) < 1e-7

    def test_degenerate_axis_for_zero_mu(self, capsys, tmp_path):
        out_path = tmp_path / "axis.csv"
        code, _, _ = run(capsys, ["orbit3d", "--a", "-1", "--b", "-1", "--mu", "0",
                                  "--x0", "0", "--samples", "16", "--out", str(out_path)])
        assert code == 0
        _, _, rows = read_csv(out_path)
        assert all(float(r[2]) == 0.0 and float(r[3]) == 0.0 for r in rows)

    def test_large_mu_passes_the_scaled_cylinder_check(self, capsys, tmp_path):
        out_path = tmp_path / "big.csv"
        code, _, err = run(capsys, ["orbit3d", "--a", "-1", "--b", "1", "--mu", "1000",
                                    "--x0", "0", "--out", str(out_path)])
        assert code == 0, err
        _, _, rows = read_csv(out_path)
        for row in rows:
            _, _, y, z = (float(v) for v in row)
            assert abs(y * y + z * z - 1e6) <= 1e-12 * 1e6

    def test_warns_when_not_a_cycle(self, capsys, tmp_path):
        out_path = tmp_path / "warn.csv"
        code, _, err = run(capsys, ["orbit3d", "--a", "-1", "--b", "1", "--mu", "1.2",
                                    "--x0", "0.9", "--samples", "16", "--out", str(out_path)])
        assert code == 0
        assert "warning" in err


class TestCrossingsCommand:
    def test_reports_residuals_for_three_zonal(self, capsys):
        code, out, _ = run(capsys, ["crossings", "--a", "-0.05", "--b", "0.05",
                                    "--mu", "1.5"])
        assert code == 0
        lines = [l for l in out.splitlines() if l and l[0] in "-0123456789"]
        assert lines, out
        for line in lines:
            _, rd, r3 = line.split()
            assert float(rd) < 1e-8
            assert float(r3) < 1e-6

    def test_reports_absence(self, capsys):
        code, out, _ = run(capsys, ["crossings", "--a", "-1", "--b", "1", "--mu", "1.2"])
        assert code == 0 and "no three-zonal cycles" in out


class TestConfig:
    def test_config_fills_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = -1\nb = 1\nmu = 1.2\n")
        code, out, _ = run(capsys, ["regime", "--config", str(cfg)])
        assert code == 0 and "mixed_sign" in out

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = -1\nb = 1\nmu = 1.2\n")
        code, out, _ = run(capsys, ["regime", "--config", str(cfg), "--b", "0", "--a", "0"])
        assert code == 0 and "global_center" in out


    def test_flag_spellings_are_keys(self, capsys, tmp_path):
        out_path = tmp_path / "cycles.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"a = -1\nb = 1\nmu = 1.2\nlambda = 0.3\ntol-residual = 1e-12\n"
                       f"out = {out_path}\n")
        code, out, _ = run(capsys, ["cycles", "--config", str(cfg)])
        assert code == 0 and "lambda=0.3" in out.splitlines()[0]
        meta, _, _ = read_csv(out_path)
        assert (meta["lambda"], meta["tol_residual"]) == ("0.3", "1e-12")

    @pytest.mark.parametrize("text", [
        "a = abc\nb = 1\n",
        "a = -1\nb = 1\ngrid = 256\n",
        "a = -1\nb = 1\nalpha = 2\n",
        "a = nan\nb = 1\n",
    ], ids=["bad-float", "grid-key", "unknown-key", "non-finite"])
    def test_bad_value_or_unknown_key_exit_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, _, err = run(capsys, ["regime", "--config", str(cfg)])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unreadable_file_exit_4(self, capsys, tmp_path):
        code, _, err = run(capsys, ["regime", "--config", str(tmp_path / "missing.cfg")])
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCsvRoundTrip:
    def test_reemission_is_byte_identical(self, tmp_path):
        path = tmp_path / "demo.csv"
        meta = {"tool": "satcycles", "n": "3"}
        header = ["alpha", "beta"]
        rows = [["1", "2.5"], ["-0.25", "1e-09"]]
        write_csv(path, meta, header, rows)
        again = tmp_path / "again.csv"
        write_csv(again, *read_csv(path))
        assert path.read_bytes() == again.read_bytes()


# Every numeric option of every subcommand, each set to a value that is not a
# number, not finite, zero and negative, on top of arguments that run fast.
_FAST_ARGS = {
    "regime": ["--a", "-1", "--b", "1", "--mu", "1.2"],
    "bifvalues": ["--a", "-1", "--b", "1"],
    "cycles": ["--a", "-1", "--b", "1", "--mu", "1.2"],
    "scan": ["--a", "-1", "--b", "1", "--mu-min", "1", "--mu-max", "1.2", "--n", "2"],
    "melnikov": ["--a", "-1", "--b", "1", "--mu", "2", "--x", "1"],
    "zeroset": ["--a", "-1", "--b", "1", "--samples", "16", "--out", "z.csv"],
    "orbit3d": ["--a", "-1", "--b", "1", "--mu", "1.2", "--x0", "1.4", "--samples", "16",
                "--out", "o.csv"],
    "crossings": ["--a", "-1", "--b", "1", "--mu", "1.2"],
}
_COMMON_NUMBERS = ["--a", "--b", "--mu", "--eps", "--lambda", "--tol-residual"]
_OWN_NUMBERS = {
    "scan": ["--mu-min", "--mu-max", "--n", "--eps-list", "--workers"],
    "melnikov": ["--x"],
    "zeroset": ["--samples"],
    "orbit3d": ["--x0", "--samples"],
}


def _with_option(command, option, value):
    argv = [command, *_FAST_ARGS[command]]
    if option in argv:
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    return argv


@pytest.mark.parametrize("command", sorted(_FAST_ARGS))
def test_every_numeric_option_maps_bad_values_to_an_exit_code(capsys, tmp_path, monkeypatch,
                                                              command):
    monkeypatch.chdir(tmp_path)
    for option in _COMMON_NUMBERS + _OWN_NUMBERS.get(command, []):
        for value in ("abc", "nan", "0", "-1"):
            argv = _with_option(command, option, value)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a value it cannot parse
                code = exc.code
            capsys.readouterr()
            assert code in (0, 2, 3, 4), argv
