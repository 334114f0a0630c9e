import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import eebounds
from eebounds import __version__, binary, cli, finite, simulate, spherical
from eebounds.cli import main
from eebounds.numerics import LN2, ConvergenceError


def run(tmp_path, name, *argv):
    out = tmp_path / name
    rc = main(list(argv) + ["--out", str(out)])
    return rc, (out.read_text() if out.exists() else "")


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == f"# eebounds {__version__}"
    assert lines[1] == "R,bound,value,regime,valid"
    rows = []
    for ln in lines[2:]:
        r, b, v, regime, valid = ln.split(",")
        rows.append((float(r), b, float(v), regime, valid == "true"))
    return rows


CURVE_BSC = [
    "curve", "--channel", "bsc", "--p", "0.07", "--tau", "0.03",
    "--rmin", "0.05", "--rmax", "0.8", "--steps", "16",
]


class TestCurve:
    def test_deterministic_output(self, tmp_path):
        rc1, a = run(tmp_path, "a.csv", *CURVE_BSC)
        rc2, b = run(tmp_path, "b.csv", *CURVE_BSC)
        assert rc1 == rc2 == 0
        assert a == b

    def test_row_structure(self, tmp_path):
        rc, text = run(tmp_path, "c.csv", *CURVE_BSC)
        rows = parse_csv(text)
        assert len(rows) == 16 * 5
        # Ordered by R, then by the canonical bound order within each R.
        order = ("gallager", "bz_e", "bz_x", "m_plus", "m_minus")
        for i in range(0, len(rows), 5):
            block = rows[i : i + 5]
            assert tuple(b for _, b, _, _, _ in block) == order
            assert len({r for r, _, _, _, _ in block}) == 1

    def test_invalid_rows_emitted_not_dropped(self, tmp_path):
        _, text = run(tmp_path, "d.csv", *CURVE_BSC)
        rows = parse_csv(text)
        invalid = [r for r in rows if not r[4]]
        assert invalid  # several bounds die at high rates
        assert any(b == "bz_x" for _, b, _, _, _ in invalid)
        assert any(b == "m_minus" for _, b, _, _, _ in invalid)

    def test_tradeoff_dominates_rowwise(self, tmp_path):
        _, text = run(tmp_path, "e.csv", *CURVE_BSC)
        rows = {(r, b): (v, ok) for r, b, v, _, ok in parse_csv(text)}
        for (r, b), (v, ok) in rows.items():
            if b == "m_plus" and ok and rows[(r, "bz_e")][1]:
                assert v >= rows[(r, "bz_e")][0] - 1e-12

    def test_zero_margin_columns_identical(self, tmp_path):
        _, text = run(
            tmp_path, "f.csv",
            "curve", "--channel", "bsc", "--p", "0.07", "--tau", "0",
            "--rmin", "0.05", "--rmax", "0.6", "--steps", "12",
            "--bounds", "gallager,m_plus",
        )
        rows = parse_csv(text)
        gal = [v for _, b, v, _, _ in rows if b == "gallager"]
        mp = [v for _, b, v, _, _ in rows if b == "m_plus"]
        assert gal == mp

    def test_spherical_curve(self, tmp_path):
        rc, text = run(
            tmp_path, "g.csv",
            "curve", "--channel", "awgn", "--snr", "4", "--tau", "0.04",
            "--rmin", "0.05", "--rmax", "0.75", "--steps", "10",
        )
        rows = parse_csv(text)
        assert rc == 0
        assert {b for _, b, _, _, _ in rows} == {"shannon", "m_error", "m_erasure"}
        for r, b, v, _, ok in rows:
            if b == "m_error" and ok:
                era = next(
                    vv for rr, bb, vv, _, okk in rows if rr == r and bb == "m_erasure" and okk
                ) if any(
                    rr == r and bb == "m_erasure" and okk for rr, bb, vv, _, okk in rows
                ) else None
                if era is not None:
                    assert v >= era - 1e-10

    def test_units_conversion(self, tmp_path):
        _, nats = run(
            tmp_path, "h.csv",
            "curve", "--channel", "awgn", "--snr", "4", "--tau", "0",
            "--rmin", "0.3", "--rmax", "0.3", "--steps", "2",
            "--bounds", "shannon", "--units", "nats",
        )
        _, bits = run(
            tmp_path, "i.csv",
            "curve", "--channel", "awgn", "--snr", "4", "--tau", "0",
            "--rmin", str(0.3 / LN2), "--rmax", str(0.3 / LN2), "--steps", "2",
            "--bounds", "shannon", "--units", "bits",
        )
        vn = parse_csv(nats)[0][2]
        vb = parse_csv(bits)[0][2]
        assert vb == pytest.approx(vn / LN2, rel=1e-10)

    def test_json_format(self, tmp_path):
        rc, text = run(tmp_path, "j.json", *CURVE_BSC, "--format", "json")
        obj = json.loads(text)
        assert rc == 0
        assert obj["version"] == __version__
        assert len(obj["rows"]) == 16 * 5
        assert {"R", "bound", "value", "regime", "valid"} <= set(obj["rows"][0])

    def test_svg_format(self, tmp_path):
        rc, text = run(tmp_path, "k.svg", *CURVE_BSC, "--format", "svg")
        assert rc == 0
        assert text.startswith("<svg ")
        assert "<polyline" in text and text.rstrip().endswith("</svg>")

    def test_unknown_bound_is_usage_error(self, tmp_path):
        rc, _ = run(tmp_path, "x.csv", *CURVE_BSC[:-2], "--steps", "4", "--bounds", "nope")
        assert rc == 2

    def test_channel_bound_mismatch(self, tmp_path):
        rc, _ = run(tmp_path, "y.csv", *CURVE_BSC[:-2], "--steps", "4", "--bounds", "shannon")
        assert rc == 2

    def test_missing_channel_parameter(self, tmp_path):
        rc, _ = run(
            tmp_path, "z.csv",
            "curve", "--channel", "bsc", "--rmin", "0.1", "--rmax", "0.2", "--steps", "2",
        )
        assert rc == 2

    def test_bad_subcommand_exit_code(self):
        assert main(["no-such-command"]) == 2


class TestLandmarks:
    def test_binary_values(self, tmp_path):
        rc, text = run(tmp_path, "lm1.json", "landmarks", "--channel", "bsc", "--p", "0.07")
        obj = json.loads(text)
        assert rc == 0
        assert obj["R_c"] == pytest.approx(0.248529, abs=1e-5)
        assert obj["R_e"] == pytest.approx(0.077, abs=1e-3)

    def test_spherical_values_and_residuals(self, tmp_path):
        rc, text = run(
            tmp_path, "lm2.json", "landmarks", "--channel", "awgn", "--snr", "4", "--tau", "0"
        )
        obj = json.loads(text)
        assert rc == 0
        assert obj["theta_e"] == pytest.approx(0.904557, abs=1e-5)
        assert obj["theta_c"] == pytest.approx(0.666239, abs=1e-5)
        assert obj["R_star"] == pytest.approx(0.481212, abs=1e-5)
        assert all(abs(v) <= 1e-10 for v in obj["residuals"].values())

    def test_spherical_failure_record(self, tmp_path):
        # At A = 5, tau = 0.4, R* = 0.871 lies below capacity 0.896, but its
        # radius x_1 lies outside the radius bracket: an error record, exit 1.
        rc, text = run(
            tmp_path, "lm3.json", "landmarks", "--channel", "awgn", "--snr", "5", "--tau", "0.4"
        )
        assert rc == 1
        assert json.loads(text) == {
            "channel": "awgn",
            "error": "no root for the straight-line/sphere-packing rate boundary",
            "snr": 5.0,
            "tau": 0.4,
            "version": __version__,
        }

    def test_spherical_boundary_past_capacity(self, tmp_path):
        # At A = 64, tau = 0.1, R* lies above capacity: the landmarks still
        # print, and the straight regime runs to capacity.
        rc, text = run(
            tmp_path, "lm5.json", "landmarks", "--channel", "awgn", "--snr", "64", "--tau", "0.1"
        )
        obj = json.loads(text)
        assert rc == 0
        assert obj["R_star"] == pytest.approx(2.33798, abs=1e-5)
        assert obj["R_star"] > 0.5 * math.log1p(64.0)
        assert all(abs(v) <= 1e-10 for v in obj["residuals"].values())

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # Only solver failures become an error record; a bug is not one.
        def broken(tau, ch):
            raise TypeError("bug")

        monkeypatch.setattr(spherical, "spherical_landmarks", broken)
        with pytest.raises(TypeError, match="bug"):
            run(tmp_path, "lm4.json", "landmarks", "--channel", "awgn", "--snr", "4", "--tau", "0")


class TestFiniteBound:
    def test_binary_record(self, tmp_path):
        rc, text = run(
            tmp_path, "fb1.json",
            "finite-bound", "--channel", "bsc", "--p", "0.07", "--n", "256", "--rate", "0.3",
        )
        obj = json.loads(text)
        assert rc == 0
        assert obj["log2_bound"] < 0.0
        assert obj["exponent_bits"] == pytest.approx(-obj["log2_bound"] / 256, rel=1e-12)

    def test_awgn_record(self, tmp_path):
        rc, text = run(
            tmp_path, "fb2.json",
            "finite-bound", "--channel", "awgn", "--snr", "4", "--n", "200",
            "--rate", "0.3", "--rho", "1.0",
        )
        obj = json.loads(text)
        assert rc == 0
        assert obj["rho"] == 1.0
        assert obj["exponent_nats"] > 0.0

    AWGN = [
        "finite-bound", "--channel", "awgn", "--snr", "4", "--tau", "0.02", "--n", "256",
        "--rate", "0.3", "--units", "nats",
    ]

    def test_awgn_record_solves_radius(self, tmp_path):
        rc, text = run(tmp_path, "fb4.json", *self.AWGN)
        obj = json.loads(text)
        assert rc == 0
        assert obj["mode"] == "error"
        assert obj["rho"] == spherical.decoding_radius(0.3, 0.02, spherical.AwgnChannel(4.0))
        wd = finite.WeightDistribution.binomial_spherical(256, 0.3)
        lb = finite.awgn_union_bound(wd, spherical.AwgnChannel(4.0), 0.02, obj["rho"])
        assert obj["ln_bound"] == lb

    def test_awgn_erasure_mode_negates_margin(self, tmp_path):
        _, error_kind = run(tmp_path, "fb5.json", *self.AWGN)
        rc, text = run(tmp_path, "fb6.json", *self.AWGN, "--mode", "erasure")
        obj = json.loads(text)
        assert rc == 0
        assert obj["mode"] == "erasure" and obj["tau"] == 0.02
        ch = spherical.AwgnChannel(4.0)
        assert obj["rho"] == spherical.decoding_radius(0.3, -0.02, ch)
        wd = finite.WeightDistribution.binomial_spherical(256, 0.3)
        assert obj["ln_bound"] == finite.awgn_union_bound(wd, ch, -0.02, obj["rho"])
        assert obj["rho"] < json.loads(error_kind)["rho"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--channel", "bsc", "--p", "0.07", "--rate", "1.5"],
            ["--channel", "bsc", "--p", "0.07", "--rate", "-0.5"],
            ["--channel", "bsc", "--p", "0.07", "--rate", "0.7", "--units", "nats"],
            ["--channel", "awgn", "--snr", "4", "--rate", "1.5", "--rho", "1.0"],
            ["--channel", "awgn", "--snr", "4", "--rate", "-0.1", "--units", "nats", "--rho", "1.0"],
        ],
        ids=["bsc-above", "bsc-below", "bsc-nats", "awgn-bits", "awgn-nats"],
    )
    def test_rate_outside_unit_interval_is_error(self, tmp_path, capsys, argv):
        rc, text = run(tmp_path, "fb7.json", "finite-bound", "--n", "64", *argv)
        assert rc == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: rate must lie in [0, ")

    def test_awgn_radius_below_capacity_angle_is_error(self, tmp_path, capsys):
        rc, text = run(
            tmp_path, "fb3.json",
            "finite-bound", "--channel", "awgn", "--snr", "4", "--n", "256",
            "--rate", "0.5", "--rho", "0.3",
        )
        assert rc == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: radius 0.3 below the capacity angle")


class TestSimulate:
    BSC = [
        "simulate", "--kind", "bsc", "--n", "7", "--k", "4", "--p", "0.05",
        "--trials", "20000", "--seed", "11",
    ]

    def test_byte_identical_runs(self, tmp_path):
        _, a = run(tmp_path, "s1.json", *self.BSC)
        _, b = run(tmp_path, "s2.json", *self.BSC)
        assert a == b

    def test_worker_count_invariance(self, tmp_path):
        _, a = run(tmp_path, "s3.json", *self.BSC, "--workers", "1")
        _, b = run(tmp_path, "s4.json", *self.BSC, "--workers", "4")
        assert json.loads(a)["counts"] == json.loads(b)["counts"]

    def test_noiseless_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "bsc", "n": [7], "k": 4, "p": 0.0, "t": 0,
            "trials": 5000, "seed": 1,
        }))
        rc, text = run(tmp_path, "s5.json", "simulate", str(cfg))
        obj = json.loads(text)
        assert rc == 0
        assert obj["counts"]["undetected"] == 0 and obj["counts"]["erasure"] == 0

    @pytest.mark.parametrize("n", [7, "7"])
    def test_scalar_n_in_config(self, tmp_path, n):
        outs = []
        for name, value in (("one", n), ("list", [7])):
            cfg = tmp_path / f"cfg-{name}.json"
            cfg.write_text(json.dumps({
                "kind": "bsc", "n": value, "k": 4, "p": 0.05, "trials": 2000, "seed": 3,
            }))
            rc, text = run(tmp_path, f"s-{name}.json", "simulate", str(cfg))
            assert rc == 0
            outs.append(text)
        assert outs[0] == outs[1] and json.loads(outs[0])["n"] == 7
        assert cli._SIM_PARAMS["n"][0]("77") == [77]

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg2.json"
        cfg.write_text(json.dumps({
            "kind": "bsc", "n": [7], "k": 4, "p": 0.0, "trials": 5000, "seed": 1,
        }))
        rc, text = run(tmp_path, "s6.json", "simulate", str(cfg), "--p", "0.2")
        obj = json.loads(text)
        assert rc == 0 and obj["p"] == 0.2
        assert obj["counts"]["correct"] < 5000

    def test_cone_regression_block(self, tmp_path):
        rc, text = run(
            tmp_path, "s7.json",
            "simulate", "--kind", "cone", "--n", "40", "80", "160",
            "--snr", "4", "--phi", "0.55", "--trials", "40000", "--seed", "2",
        )
        obj = json.loads(text)
        assert rc == 0
        assert len(obj["results"]) == 3
        assert obj["regression"]["slope"] > 0.0

    # A config file holding every parameter of the kind, and the same file
    # without the parameters that have defaults.
    CONFIGS = {
        "bsc": {"kind": "bsc", "n": [7], "k": 4, "p": 0.05, "trials": 3000, "seed": 5,
                "t": 1, "code_seed": 3, "workers": 2},
        "awgn": {"kind": "awgn", "n": [8], "M": 4, "snr": 2, "trials": 2000, "seed": 4,
                 "tau": 0.05, "code_seed": 2, "workers": 2},
    }
    DEFAULTS = {
        "bsc": {"trials": 100000, "t": 0, "code_seed": 0, "workers": 1},
        "awgn": {"trials": 100000, "tau": 0.0, "code_seed": 0, "workers": 1},
    }
    FLAGS = {
        "bsc": (["--p", "0.1", "--seed", "9", "--code-seed", "6"],
                {"p": 0.1, "seed": 9, "code_seed": 6}),
        "awgn": (["--snr", "3", "--M", "5", "--tau", "0.02"], {"snr": 3.0, "M": 5, "tau": 0.02}),
    }

    @pytest.mark.parametrize("kind", ("bsc", "awgn"))
    @pytest.mark.parametrize("full_config", (True, False))
    def test_flag_then_config_then_default(self, tmp_path, kind, full_config):
        cfg = dict(self.CONFIGS[kind])
        expected = dict(cfg)
        if not full_config:
            for name, default in self.DEFAULTS[kind].items():
                del cfg[name]
                expected[name] = default
        flags, overrides = self.FLAGS[kind]
        expected.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc, text = run(tmp_path, "s11.json", "simulate", str(path), *flags)
        assert rc == 0

        e = expected
        if kind == "bsc":
            code = simulate.gen_linear_code(7, 4, e["code_seed"])
            tally = simulate.simulate_bsc(code, e["p"], e["t"], e["trials"], e["seed"], 1)
            fields = {"k": 4, "p": e["p"], "t": e["t"]}
        else:
            cb = simulate.SphericalCodebook.random(e["M"], 8, float(e["snr"]), e["code_seed"])
            tally = simulate.simulate_awgn(cb, e["tau"], e["trials"], e["seed"], 1)
            fields = {"M": e["M"], "snr": float(e["snr"]), "tau": e["tau"]}
        classes = ("correct", "undetected", "erasure")
        assert json.loads(text) == {
            "version": __version__, "kind": kind, "n": e["n"][0], "code_seed": e["code_seed"],
            "trials": e["trials"], "seed": e["seed"], **fields,
            "counts": {c: getattr(tally, c) for c in classes},
            "rates": {c: {"rate": tally.rate(c), "wilson95": list(tally.wilson(c))}
                      for c in classes},
        }

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "bsc", "--n", "7", "--k", "4", "--p", "0.05"],
         "a seed is required for simulation (use --seed)"),
        (["--n", "7", "--seed", "1"], "simulation kind is required (use --kind bsc|awgn|cone)"),
        (["--kind", "bsc", "--seed", "1"], "bsc simulation needs exactly one --n, --k and --p"),
        (["--kind", "bsc", "--n", "7", "--k", "4", "--seed", "1"],
         "bsc simulation needs exactly one --n, --k and --p"),
        (["--kind", "bsc", "--n", "7", "8", "--k", "4", "--p", "0.1", "--seed", "1"],
         "bsc simulation needs exactly one --n, --k and --p"),
        (["--kind", "awgn", "--n", "8", "--M", "4", "--seed", "1"],
         "awgn simulation needs exactly one --n, --snr and --M"),
        (["--kind", "awgn", "--n", "8", "9", "--M", "4", "--snr", "2", "--seed", "1"],
         "awgn simulation needs exactly one --n, --snr and --M"),
        (["--kind", "cone", "--n", "20", "--snr", "4", "--seed", "1"],
         "cone simulation needs --n (one or more), --snr and --phi"),
        (["--kind", "cone", "--snr", "4", "--phi", "0.5", "--seed", "1"],
         "cone simulation needs --n (one or more), --snr and --phi"),
    ])
    def test_usage_messages(self, tmp_path, capsys, argv, message):
        rc, text = run(tmp_path, "s12.json", "simulate", *argv)
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_kind_in_config(self, tmp_path, capsys):
        path = tmp_path / "cfg3.json"
        path.write_text(json.dumps({"kind": "qam", "seed": 1}))
        rc, text = run(tmp_path, "s13.json", "simulate", str(path))
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == "error: unknown simulation kind: qam\n"

    def test_missing_seed_is_usage_error(self, tmp_path):
        rc, _ = run(tmp_path, "s8.json", "simulate", "--kind", "bsc", "--n", "7",
                    "--k", "4", "--p", "0.05")
        assert rc == 2

    def test_unknown_kind_is_usage_error(self, tmp_path):
        rc, _ = run(tmp_path, "s9.json", "simulate", "--kind", "bsc", "--seed", "1")
        assert rc == 2

    @pytest.mark.parametrize("kind", ("bsc", "awgn", "cone"))
    def test_zero_trials_is_error(self, tmp_path, capsys, kind):
        args = {
            "bsc": ["--n", "7", "--k", "4", "--p", "0.05"],
            "awgn": ["--n", "8", "--M", "4", "--snr", "2"],
            "cone": ["--n", "20", "--snr", "4", "--phi", "0.5"],
        }[kind]
        rc, text = run(tmp_path, "s10.json", "simulate", "--kind", kind, *args,
                       "--trials", "0", "--seed", "1")
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == "error: trials must be positive, got 0\n"

    @pytest.mark.parametrize("argv, margin", [
        (["--kind", "bsc", "--n", "7", "--k", "4", "--p", "0.05", "--t", "-2"], "-2"),
        (["--kind", "awgn", "--n", "8", "--M", "4", "--snr", "2", "--tau", "-0.1"], "-0.1"),
    ], ids=("bsc", "awgn"))
    def test_negative_margin_is_error(self, tmp_path, capsys, argv, margin):
        rc, text = run(tmp_path, "s14.json", "simulate", *argv, "--seed", "1")
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == f"error: margin must be nonnegative, got {margin}\n"


class TestValidate:
    def test_passes_and_reports(self, tmp_path):
        rc, text = run(tmp_path, "v1.txt", "validate")
        assert rc == 0
        assert "FAIL" not in text
        assert text.strip().endswith("OK")
        assert "critical-angle identity" in text

    # Negative controls: shift one function the checks use and watch the
    # check named for it, and only that one, fail.
    @pytest.mark.parametrize("module, name, shift, check", [
        (binary, "gallager_exponent",
         lambda f: lambda r, ch: dataclasses.replace(f(r, ch), value=f(r, ch).value + 1e-3),
         "binary tau=0 reduction"),
        (finite, "binary_union_bound", lambda f: lambda *a: f(*a) - 1.0,
         "union bound dominates oracle"),
        (spherical, "big_g", lambda f: lambda *a: f(*a) + 1e-3, "G(phi, 0) = 0"),
    ], ids=("gallager_exponent", "binary_union_bound", "big_g"))
    def test_negative_control(self, tmp_path, monkeypatch, module, name, shift, check):
        monkeypatch.setattr(module, name, shift(getattr(module, name)))
        rc, text = run(tmp_path, "v2.txt", "validate")
        assert rc == 1
        failed = [ln.split(":")[0] for ln in text.splitlines() if ln.startswith("FAIL")]
        assert failed == [f"FAIL  {check}"]
        assert text.endswith("\n1 FAILED\n")

    def test_defect_floor(self, tmp_path, monkeypatch):
        # The oracle's total probability is one up to its summation order: a
        # few ulps more leave the report as it is, and a defect above the
        # 1e-14 floor is printed with its digits.
        rc, base = run(tmp_path, "v4.txt", "validate")
        assert rc == 0
        assert "PASS  oracle total probability: defect<1e-14 tol=1e-12\n" in base
        oracle = finite.exact_margin_probability

        def shifted(shift):
            def patched(*args):
                pc, pu, pe = oracle(*args)
                return pc + shift, pu, pe
            return patched

        monkeypatch.setattr(finite, "exact_margin_probability", shifted(4e-16))
        assert run(tmp_path, "v5.txt", "validate") == (0, base)
        monkeypatch.setattr(finite, "exact_margin_probability", shifted(1e-13))
        rc, text = run(tmp_path, "v6.txt", "validate")
        assert rc == 0
        assert "PASS  oracle total probability: defect=1.0" in text

    def test_no_perturbation_flag(self, tmp_path):
        rc, text = run(tmp_path, "v3.txt", "validate", "--perturb-g", "1e-3")
        assert rc == 2 and text == ""


class TestSolverFailure:
    def test_convergence_error_is_reported_with_exit_2(self, monkeypatch, capsys):
        def fail(args):
            raise ConvergenceError("iteration budget exhausted")

        monkeypatch.setattr(cli, "cmd_validate", fail)
        assert main(["validate"]) == 2
        assert capsys.readouterr().err == "error: iteration budget exhausted\n"


class TestImport:
    @staticmethod
    def fresh(code):
        """stdout of ``code`` run in a new interpreter that imports this eebounds."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(eebounds.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, eebounds.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert self.fresh(code) == "[]"

    def test_estimate_exponent_loads_no_numpy_ma(self):
        # numpy.ma is a lazy import of np.unique that costs ~20 ms cold.
        code = (
            "import sys, eebounds.cli; "
            "eebounds.simulate.estimate_exponent([(40, 0.1), (80, 0.02), (160, 0.003)]); "
            "print('numpy.ma' in sys.modules)"
        )
        assert self.fresh(code) == "False"
