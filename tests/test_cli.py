"""End-to-end tests of the command-line interface (subprocess level)."""

import cmath
import contextlib
import errno
import io
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ellipspin.heun as heun
import ellipspin.spin_dynamics as sd
from ellipspin import cli
from ellipspin.elliptic import _jacobi_grid, jacobi, jacobi_identity_residuals

HEADER = "tau,re_psi1,im_psi1,re_psi2,im_psi2,p_flip,px,py,pz,norm_drift"
# Largest deviation allowed between a per-sample array and its scalar
# reference (numpy's and math's transcendentals may differ by an ulp).
GRID_BOUND = 1e-14

RESONANCE_CONFIG = """\
# fundamental resonance scenario
k = 0.7
h_over_omega = 0.25
delta_over_omega = 0.0
tau_max = 10.0
n_samples = 201
tol = 1e-10
spin_j = 0.5
initial_re1 = 1.0
initial_im1 = 0.0
initial_re2 = 0.0
initial_im2 = 0.0
outputs = trajectory
"""


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "ellipspin", *args],
        capture_output=True,
        timeout=timeout,
    )


def parse_csv(data: bytes):
    return np.genfromtxt(io.BytesIO(data), delimiter=",", names=True)


def run_in_process(*args):
    """(exit code, stderr) of cli.main run in this interpreter."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(list(args))
    return rc, err.getvalue()


def csv_text(header, rows):
    """Reference CSV: every value through format(x, ".17g") on its own."""
    lines = [header] + [",".join(format(float(x), ".17g") for x in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestSimulate:
    def test_resonance_trajectory(self, tmp_path):
        cfg = tmp_path / "res.cfg"
        cfg.write_text(RESONANCE_CONFIG)
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode("ascii").split("\n")
        assert lines[0] == HEADER
        assert b"\r" not in proc.stdout
        table = parse_csv(proc.stdout)
        assert len(table) == 201
        err = np.abs(table["p_flip"] - np.sin(0.25 * table["tau"]) ** 2)
        assert np.max(err) < 1e-8
        assert np.max(table["norm_drift"]) < 1e-8

    def test_byte_identical_runs(self, tmp_path):
        cfg = tmp_path / "res.cfg"
        cfg.write_text(RESONANCE_CONFIG)
        first = run_cli("simulate", str(cfg))
        second = run_cli("simulate", str(cfg))
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_output_file(self, tmp_path):
        cfg = tmp_path / "res.cfg"
        cfg.write_text(RESONANCE_CONFIG)
        out = tmp_path / "run.csv"
        proc = run_cli("simulate", str(cfg), "-o", str(out))
        assert proc.returncode == 0
        direct = run_cli("simulate", str(cfg))
        assert out.read_bytes() == direct.stdout

    def test_single_sample_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(RESONANCE_CONFIG.replace("n_samples = 201", "n_samples = 1"))
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 2
        assert b"n_samples" in proc.stderr

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(RESONANCE_CONFIG + "mystery_key = 3\n")
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 2
        assert b"mystery_key" in proc.stderr
        assert b"line 14" in proc.stderr

    def test_bad_number_reports_position(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(RESONANCE_CONFIG.replace("tau_max = 10.0", "tau_max = ten"))
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 2
        assert b"tau_max" in proc.stderr

    @pytest.mark.parametrize(
        "line, column",
        [
            ("tau_max = ten", 11),
            ("tau_max=ten", 9),
            ("  tau_max  =\t  ten  ", 16),
            ("tau_max = ten = 3", 11),
            # An empty value points just past the "=".
            ("tau_max =  ", 10),
        ],
    )
    def test_bad_value_column_is_its_first_character(self, tmp_path, line, column):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(RESONANCE_CONFIG.replace("tau_max = 10.0", line))
        rc, err = run_in_process("simulate", str(cfg))
        assert rc == 2
        assert err.endswith(f"(line 5, column {column})\n"), err

    def test_missing_config(self, tmp_path):
        proc = run_cli("simulate", str(tmp_path / "none.cfg"))
        assert proc.returncode == 2

    def test_unnormalized_initial_state(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(RESONANCE_CONFIG.replace("initial_re2 = 0.0", "initial_re2 = 1.0"))
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 2
        assert b"norm" in proc.stderr

    def test_physical_field_keys(self, tmp_path):
        # Resonance expressed in laboratory units: the longitudinal rate
        # equals half the drive frequency.
        omega = 1e9
        h0_res = sd.HBAR * omega / (2.0 * sd.BOHR_MAGNETON)
        params = sd.derive_parameters(2.0, 1e-3, h0_res, omega, k=0.7)
        cfg = tmp_path / "phys.cfg"
        cfg.write_text(
            "k = 0.7\n"
            "g = 2.0\n"
            "h0_tesla = 1e-3\n"
            f"H0_tesla = {h0_res!r}\n"
            f"omega_rad_per_s = {omega!r}\n"
            "tau_max = 10.0\n"
            "n_samples = 101\n"
        )
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 0, proc.stderr
        table = parse_csv(proc.stdout)
        expected = np.sin(params.h_over_omega * table["tau"]) ** 2
        assert np.max(np.abs(table["p_flip"] - expected)) < 1e-8

    @pytest.mark.parametrize("omega", ["1e-300", "5e-324"])
    def test_tiny_physical_omega_is_a_config_error(self, tmp_path, omega):
        # The field scale used to divide by an underflowed 2 hbar omega and
        # end in a ZeroDivisionError traceback.
        cfg = tmp_path / "phys.cfg"
        cfg.write_text(
            "k = 0.7\ng = 2.0\nh0_tesla = 1e-3\nH0_tesla = 1e-3\n"
            f"omega_rad_per_s = {omega}\ntau_max = 10.0\nn_samples = 101\n"
        )
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"config error: h_over_omega must be finite, got inf\n"

    def test_dimensionless_precedence_warns(self, tmp_path):
        cfg = tmp_path / "both.cfg"
        cfg.write_text(
            RESONANCE_CONFIG
            + "g = 2.0\nh0_tesla = 1e-3\nH0_tesla = 1e-3\nomega_rad_per_s = 1e9\n"
        )
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 0
        assert b"warning" in proc.stderr
        # the dimensionless values won: this is still the resonance run
        table = parse_csv(proc.stdout)
        assert np.max(np.abs(table["p_flip"] - np.sin(0.25 * table["tau"]) ** 2)) < 1e-8

    def test_heun_check_output(self, tmp_path):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(
            RESONANCE_CONFIG.replace("outputs = trajectory", "outputs = trajectory,heun_check")
            .replace("delta_over_omega = 0.0", "delta_over_omega = 0.05")
            .replace("tau_max = 10.0", "tau_max = 2.0")
        )
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert b"heun_check" in proc.stderr
        diff = float(proc.stderr.decode().split("diff=")[1].split()[0])
        assert diff < 1e-6

    @pytest.mark.parametrize("tau_max", ["2.0", "3.7", "10.0"])
    def test_heun_check_ode_value_is_the_csv_last_p_flip(self, tmp_path, tau_max):
        # The report and the CSV come from different formatters; readers of
        # both (the benchmark's checks) compare the two fields as text.
        cfg, out = tmp_path / "h.cfg", tmp_path / "h.csv"
        cfg.write_text(
            RESONANCE_CONFIG.replace("outputs = trajectory", "outputs = trajectory,heun_check")
            .replace("delta_over_omega = 0.0", "delta_over_omega = 0.05")
            .replace("tau_max = 10.0", f"tau_max = {tau_max}")
        )
        rc, err = run_in_process("simulate", str(cfg), "-o", str(out))
        assert rc == 0, err
        ode = re.search(r" ode=(\S+) ", err)[1]
        last_row = out.read_text().splitlines()[-1].split(",")
        assert last_row[HEADER.split(",").index("p_flip")] == ode

    @staticmethod
    def _long_heun_check_config(tmp_path, tau_max):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(
            RESONANCE_CONFIG.replace("outputs = trajectory", "outputs = trajectory,heun_check")
            .replace("k = 0.7", "k = 0.6")
            .replace("delta_over_omega = 0.0", "delta_over_omega = 0.05")
            .replace("tau_max = 10.0", f"tau_max = {tau_max}")
            .replace("n_samples = 201", "n_samples = 11")
        )
        return cfg

    def test_heun_check_far_beyond_one_loop(self, tmp_path):
        # About 285 loops of the coordinate: the reduction composes them.
        proc = run_cli("simulate", str(self._long_heun_check_config(tmp_path, "2000.0")))
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stderr.decode().splitlines()
        fields = re.fullmatch(r"heun_check tau=(\S+): ode=(\S+) series=(\S+) diff=(\S+)", line)
        assert fields is not None, line
        assert float(fields[1]) == 2000.0
        assert float(fields[4]) <= 1e-6

    def test_heun_check_at_absurd_horizon_fails_cleanly(self, tmp_path):
        proc = run_cli("simulate", str(self._long_heun_check_config(tmp_path, "1e12")))
        assert proc.returncode == 3
        err = proc.stderr.decode()
        assert err.startswith("runtime failure in reduction cross-check")
        assert err.count("\n") == 1

    def test_heun_check_at_tiny_modulus(self, tmp_path):
        # k = 1e-8 ended in an OverflowError traceback in the series guard.
        cfg = tmp_path / "h.cfg"
        cfg.write_text(
            RESONANCE_CONFIG.replace("outputs = trajectory", "outputs = trajectory,heun_check")
            .replace("k = 0.7", "k = 1e-8")
            .replace("delta_over_omega = 0.0", "delta_over_omega = 0.15")
            .replace("tau_max = 10.0", "tau_max = 2.0")
        )
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 0, proc.stderr
        diff = float(proc.stderr.decode().split("diff=")[1].split()[0])
        assert diff < 1e-9

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("k", ["0.0", "1.0", "1e-300"])
    def test_heun_check_outside_open_modulus_is_a_config_error(self, tmp_path, k, to_file):
        # Refused before any output: the CSV used to be written in full
        # first, and only then the run exited 2.
        cfg = tmp_path / "h.cfg"
        cfg.write_text(
            RESONANCE_CONFIG.replace("outputs = trajectory", "outputs = trajectory,heun_check")
            .replace("k = 0.7", f"k = {k}")
            .replace("n_samples = 201", "n_samples = 5")
        )
        out = tmp_path / "out.csv"
        proc = run_cli("simulate", str(cfg), *(["-o", str(out)] if to_file else []))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (
            b"config error: heun_check: this reduction requires 0 < k < 1 and "
            b"k^2 >= 2.2250738585072014e-308, got " + k.encode() + b" (line 13, column 11)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("k", ["1.4", "-0.2"])
    def test_heun_check_keeps_the_modulus_range_error(self, tmp_path, k):
        # An invalid modulus is reported as such, not as a cross-check limit.
        cfg = tmp_path / "h.cfg"
        cfg.write_text(
            RESONANCE_CONFIG.replace("outputs = trajectory", "outputs = trajectory,heun_check")
            .replace("k = 0.7", f"k = {k}")
            .replace("n_samples = 201", "n_samples = 5")
        )
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == f"config error: modulus k must lie in [0, 1], got {k}\n".encode()

    def test_wigner_output(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(
            RESONANCE_CONFIG.replace("outputs = trajectory", "outputs = trajectory,wigner")
            .replace("spin_j = 0.5", "spin_j = 1.5")
        )
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert b"theta=" in proc.stderr

    def test_spin_j_near_a_half_integer_reports_as_that_half_integer(self, tmp_path):
        # spin_j = 1e-13 once passed validation unsnapped and reported
        # p_top_transition=1, where spin_j = 0 reports 0.
        reports = {}
        for spin_j in ("0", "1e-13", "0.5", "0.5000000000001"):
            cfg = tmp_path / "w.cfg"
            cfg.write_text(
                RESONANCE_CONFIG.replace("outputs = trajectory", "outputs = trajectory,wigner")
                .replace("n_samples = 201", "n_samples = 5")
                .replace("spin_j = 0.5", f"spin_j = {spin_j}")
            )
            assert cli.load_scenario(str(cfg)).spin_j == round(2.0 * float(spin_j)) / 2.0
            rc, reports[spin_j] = run_in_process("simulate", str(cfg), "-o", str(tmp_path / "w.csv"))
            assert rc == 0, reports[spin_j]
        assert reports["1e-13"] == reports["0"]
        assert reports["0"].endswith(" p_top_transition=0\n")
        assert reports["0.5000000000001"] == reports["0.5"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_samples", "inf"),
            ("sweep_cap", "nan"),
            ("initial_re1", "nan"),
            ("tau_max", "inf"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, key, value):
        lines = [ln for ln in RESONANCE_CONFIG.splitlines() if not ln.startswith(key + " ")]
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert key.encode() in proc.stderr

    @pytest.mark.parametrize("value", ["1e12", "1e300"])
    def test_huge_sample_count_rejected(self, tmp_path, value):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(RESONANCE_CONFIG.replace("n_samples = 201", f"n_samples = {value}"))
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"config error") and proc.stderr.count(b"\n") == 1
        assert b"n_samples" in proc.stderr

    @pytest.mark.parametrize("h, delta", [(1.0, 0.5), (2.0, 2.0)])
    def test_wigner_output_at_long_horizon(self, tmp_path, h, delta):
        # At a fixed local tol the propagator's unitarity defect grows with
        # tau and the drive; here it would reach 5e-9 and 1.4e-8, past
        # euler_angles' 1e-9 guard.
        cfg = tmp_path / "w.cfg"
        cfg.write_text(
            f"k = 0.9\nh_over_omega = {h}\ndelta_over_omega = {delta}\ntau_max = 60\n"
            "n_samples = 11\nspin_j = 2\noutputs = trajectory, wigner\n"
        )
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert b"theta=" in proc.stderr

    def test_pulse_limit_past_cosh_overflow(self, tmp_path):
        # At k = 1, dn(tau) = sech(tau), and 1 / cosh(tau) overflows past
        # tau = 710.47; this run once ended in an OverflowError traceback.
        cfg = tmp_path / "pulse.cfg"
        cfg.write_text(
            "k = 1\nh_over_omega = 0.3\ndelta_over_omega = 0.1\ntau_max = 800\nn_samples = 11\n"
        )
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
        table = parse_csv(proc.stdout)
        assert len(table) == 11 and np.all(np.isfinite(table["p_flip"]))

    def test_pulse_limit_at_a_long_horizon(self, tmp_path):
        # Integrated straight through, this run took about 4e7 rhs calls.
        cfg = tmp_path / "pulse.cfg"
        cfg.write_text(
            "k = 1\nh_over_omega = 0.3\ndelta_over_omega = 0.2\ntau_max = 1e6\nn_samples = 3\n"
        )
        start = time.perf_counter()
        proc = run_cli("simulate", str(cfg), timeout=60)
        assert time.perf_counter() - start < 20.0
        assert proc.returncode == 0, proc.stderr
        table = parse_csv(proc.stdout)
        assert len(table) == 3 and np.all(table["norm_drift"] <= 1e-9)

    def test_unknown_output_kind(self, tmp_path):
        cfg = tmp_path / "o.cfg"
        cfg.write_text(RESONANCE_CONFIG.replace("outputs = trajectory", "outputs = plots"))
        proc = run_cli("simulate", str(cfg))
        assert proc.returncode == 2

    def test_tol_below_roundoff_rejected(self, tmp_path):
        # Accepted, such a tol makes the step crawl for minutes.
        cfg = tmp_path / "tiny_tol.cfg"
        cfg.write_text(RESONANCE_CONFIG.replace("tol = 1e-10", "tol = 1e-25"))
        start = time.perf_counter()
        rc, err = run_in_process("simulate", str(cfg))
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert err.startswith("config error") and err.count("\n") == 1
        assert "tol" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("tau_max", ["1e18", "1e300"])
    @pytest.mark.parametrize("k", ["0.7", "1"])
    def test_horizon_past_2_to_the_52_periods_is_refused(self, tmp_path, command, tau_max, k):
        # These runs used to exit 0 with all-zero amplitudes, norm_drift 1.
        cfg = tmp_path / "far.cfg"
        cfg.write_text(
            f"k = {k}\nh_over_omega = 0.3\ndelta_over_omega = 0.15\n"
            f"tau_max = {tau_max}\nn_samples = 3\n"
        )
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        rc, err = run_in_process(command, str(cfg), "-o", str(out))
        assert time.perf_counter() - start < 1.0
        assert rc == 3
        assert err.startswith("integration failure: tau = ") and err.count("\n") == 1
        assert "2^52 or more periods" in err
        assert not out.exists()


SWEEP_CONFIG = """\
k = 0.3, 0.7, 0.99
h_over_omega = 0.25
delta_over_omega = 0.0
tau_max = 10.0
n_samples = 51
tol = 1e-10
"""


class TestSweep:
    def test_resonance_slices_identical(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG)
        proc = run_cli("sweep", str(cfg))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode("ascii").split("\n")
        assert lines[0] == "k,delta_over_omega,h_over_omega,tau,p_flip"
        table = parse_csv(proc.stdout)
        assert len(table) == 3 * 51
        slices = [table["p_flip"][i * 51 : (i + 1) * 51] for i in range(3)]
        # deterministic grid order: k blocks in config order
        assert np.allclose(table["k"][:51], 0.3, atol=0.0)
        for other in slices[1:]:
            assert np.max(np.abs(slices[0] - other)) < 1e-8

    def test_single_point_matches_simulate(self, tmp_path):
        sweep_cfg = tmp_path / "one.cfg"
        sweep_cfg.write_text(SWEEP_CONFIG.replace("k = 0.3, 0.7, 0.99", "k = 0.7"))
        sim_cfg = tmp_path / "sim.cfg"
        sim_cfg.write_text(RESONANCE_CONFIG.replace("n_samples = 201", "n_samples = 51"))
        sweep_out = parse_csv(run_cli("sweep", str(sweep_cfg)).stdout)
        sim_out = parse_csv(run_cli("simulate", str(sim_cfg)).stdout)
        assert np.array_equal(sweep_out["p_flip"], sim_out["p_flip"])
        assert np.array_equal(sweep_out["tau"], sim_out["tau"])

    def test_circular_rows_match_closed_form(self, tmp_path):
        cfg = tmp_path / "k0.cfg"
        cfg.write_text(
            "k = 0.0\nh_over_omega = 0.3\ndelta_over_omega = 0.4\n"
            "tau_max = 10.0\nn_samples = 51\n"
        )
        table = parse_csv(run_cli("sweep", str(cfg)).stdout)
        p = sd.SimParams.from_detuning(0.3, 0.4, 0.0)
        expected = np.array([sd.rabi_probability(float(t), p) for t in table["tau"]])
        assert np.max(np.abs(table["p_flip"] - expected)) < 1e-8

    def test_run_cap(self, tmp_path):
        # The row budget is the only cap on a sweep; `sweep_cap` is not a key.
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(SWEEP_CONFIG + "sweep_cap = 2\n")
        proc = run_cli("sweep", str(cfg))
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"config error: unknown key 'sweep_cap'")
        assert proc.stderr.count(b"\n") == 1


    @pytest.mark.parametrize("to_file", [False, True])
    def test_heun_check_scenario_is_refused(self, tmp_path, to_file):
        # `sweep` used to parse `outputs`, drop the extra kinds and exit 0.
        cfg = Path(__file__).resolve().parents[1] / "scenarios" / "heun_cross_check.cfg"
        out = tmp_path / "out.csv"
        proc = run_cli("sweep", str(cfg), *(["-o", str(out)] if to_file else []))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (
            b"config error: sweep writes only the trajectory, not 'heun_check' (line 9, column 11)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "outputs, kind",
        [("wigner", "wigner"), ("trajectory, probability", "probability"), ("trajectory,polarization", "polarization")],
    )
    def test_outputs_other_than_trajectory_are_refused(self, tmp_path, outputs, kind):
        cfg = tmp_path / "out.cfg"
        cfg.write_text(SWEEP_CONFIG + f"outputs = {outputs}\n")
        rc, err = run_in_process("sweep", str(cfg))
        assert rc == 2
        assert err == f"config error: sweep writes only the trajectory, not {kind!r} (line 7, column 11)\n"

    def test_trajectory_output_is_accepted(self, tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text(SWEEP_CONFIG)
        listed = tmp_path / "listed.cfg"
        listed.write_text(SWEEP_CONFIG + "outputs = trajectory\n")
        got = run_cli("sweep", str(listed))
        assert got.returncode == 0, got.stderr
        assert got.stdout == run_cli("sweep", str(plain)).stdout

    def test_row_budget(self, tmp_path):
        cfg = tmp_path / "rows.cfg"
        cfg.write_text(SWEEP_CONFIG.replace("n_samples = 51", "n_samples = 400000"))
        proc = run_cli("sweep", str(cfg))
        assert proc.returncode == 2
        assert b"budget" in proc.stderr and b"Traceback" not in proc.stderr


class TestVerify:
    def test_wigner_suite_passes(self):
        proc = run_cli("verify", "wigner")
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.decode()
        assert "propagator_unitarity" in out
        assert "spin_j_row_sums" in out
        # suite routing: no invariants/heun checks ran
        assert "norm_conservation" not in out
        assert "flip_probability_reduction_vs_ode" not in out

    def test_unknown_suite(self):
        proc = run_cli("verify", "everything")
        assert proc.returncode == 2

    def test_loosened_tolerance_detected(self):
        # A deliberately degraded integration must trip the reduction
        # cross-check and nothing about the exit path may hide it.
        proc = run_cli("verify", "heun", "--tol", "0.1")
        assert proc.returncode == 1
        assert b"flip_probability_reduction_vs_ode" in proc.stderr

    def test_period_composition_is_checked_against_a_direct_path(self):
        proc = run_cli("verify", "invariants")
        assert proc.returncode == 0, proc.stderr
        assert b"PASS  period_composition" in proc.stdout
        proc = run_cli("verify", "invariants", "--tol", "0.1")
        assert proc.returncode == 1
        assert b"period_composition" in proc.stderr

    def test_loop_composition_is_checked_against_a_direct_path(self, monkeypatch):
        proc = run_cli("verify", "heun")
        assert proc.returncode == 0, proc.stderr
        assert b"PASS  loop_composition" in proc.stdout
        # The loop power turned by the wrong angle, (n + 1) theta for
        # n theta, at the right determinant: the Liouville guard cannot
        # see it, only the direct path can.
        real = heun._floquet_power

        def wrong_angle(m, n):
            power, theta = real(m, n + 1)
            s = cmath.sqrt(m[0] * m[3] - m[1] * m[2])
            return tuple(x / s for x in power), theta

        monkeypatch.setattr(heun, "_floquet_power", wrong_angle)
        rc, err = run_in_process("verify", "heun")
        assert rc == 1
        assert "loop_composition" in err

    def test_floquet_angle_is_checked_against_the_ode(self, monkeypatch):
        rc, err = run_in_process("verify", "heun", "--tol", "0.1")
        assert rc == 1
        assert "floquet_trace" in err and "floquet_resonance" not in err
        # The Heun side's angle a part in 1e6 off: both Floquet checks see it.
        real = heun._floquet_power
        monkeypatch.setattr(
            heun, "_floquet_power", lambda m, n: (real(m, n)[0], real(m, n)[1] * (1.0 + 1e-6))
        )
        rc, err = run_in_process("verify", "heun")
        assert rc == 1
        assert "floquet_trace" in err and "floquet_resonance" in err

    def test_pulse_tail_is_checked_against_a_direct_path(self, monkeypatch):
        rc, err = run_in_process("verify", "invariants")
        assert rc == 0, err
        # The closed-form tail started 15 earlier, while the pulse still
        # turns the state by about 1e-6.
        real = sd._pulse_end
        monkeypatch.setattr(sd, "_pulse_end", lambda params, tol: real(params, tol) - 15.0)
        rc, err = run_in_process("verify", "invariants")
        assert rc == 1
        assert "pulse_tail" in err
        monkeypatch.undo()
        proc = run_cli("verify", "all", "--tol", "0.1")
        assert proc.returncode == 1
        assert b"pulse_tail" in proc.stderr

    def test_non_unitary_propagator_is_a_failed_check(self):
        proc = run_cli("verify", "wigner", "--tol", "0.1")
        assert proc.returncode == 1
        assert b"propagator_unitarity" in proc.stderr
        assert b"runtime failure" not in proc.stderr

    def test_heun_suite_passes_at_default_tolerance(self):
        proc = run_cli("verify", "heun")
        assert proc.returncode == 0, proc.stderr

    def test_tol_below_roundoff_rejected(self):
        rc, err = run_in_process("verify", "heun", "--tol", "1e-25")
        assert rc == 2
        assert err.startswith("config error") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_tol_rejected(self, value):
        rc, err = run_in_process("verify", "heun", f"--tol={value}")
        assert rc == 2
        assert err.startswith("config error") and err.count("\n") == 1


class TestEllipticTable:
    def test_table_rows(self):
        proc = run_cli("elliptic-table", "0.7", "5.0", "11")
        assert proc.returncode == 0
        lines = proc.stdout.decode("ascii").strip().split("\n")
        assert lines[0] == "u,sn,cn,dn,res_sncn,res_dnsn"
        assert len(lines) == 12
        table = parse_csv(proc.stdout)
        assert np.max(table["res_sncn"]) < 1e-12
        assert np.max(table["res_dnsn"]) < 1e-12
        assert table["u"][-1] == pytest.approx(5.0)

    def test_pulse_limit_past_cosh_overflow(self):
        proc = run_cli("elliptic-table", "1", "800", "11")
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
        table = parse_csv(proc.stdout)
        assert table["sn"][-1] == 1.0 and table["cn"][-1] == table["dn"][-1] == 0.0

    def test_bad_modulus(self):
        proc = run_cli("elliptic-table", "1.5", "5.0", "11")
        assert proc.returncode == 2

    def test_too_few_rows(self):
        proc = run_cli("elliptic-table", "0.5", "5.0", "1")
        assert proc.returncode == 2

    def test_row_budget(self):
        # Checked before any grid is allocated: 10^12 rows would need 7 TiB.
        proc = run_cli("elliptic-table", "0.5", "10", "1000000000000", timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"config error") and proc.stderr.count(b"\n") == 1
        assert b"Traceback" not in proc.stderr and proc.stdout == b""


class TestUnwritableOutput:
    """`-o` to a path that cannot be opened is a config error, not a traceback."""

    @pytest.mark.parametrize("command", ["simulate", "sweep", "elliptic-table"])
    def test_missing_directory(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SWEEP_CONFIG if command == "sweep" else RESONANCE_CONFIG)
        args = ["0.5", "1", "3"] if command == "elliptic-table" else [str(cfg)]
        out = tmp_path / "missing" / "x.csv"
        proc = run_cli(command, *args, "-o", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"config error: cannot write output")
        assert proc.stderr.count(b"\n") == 1
        assert not out.parent.exists()


_DEV_FULL = Path("/dev/full")


@pytest.mark.skipif(not _DEV_FULL.exists(), reason="needs /dev/full")
class TestWriteFailure:
    """A CSV write that fails is a runtime failure on one line, not a traceback."""

    @pytest.mark.parametrize(
        "command, args",
        [
            ("simulate", None),
            ("sweep", None),
            ("elliptic-table", ["0.5", "1", "3"]),  # fails only when flushed at the end
            ("elliptic-table", ["0.7", "20", "2001"]),  # fails in the middle of the file
        ],
    )
    @pytest.mark.parametrize("to_file", [True, False])
    def test_full_device(self, tmp_path, command, args, to_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SWEEP_CONFIG if command == "sweep" else RESONANCE_CONFIG)
        argv = [sys.executable, "-m", "ellipspin", command, *(args or [str(cfg)])]
        if to_file:
            proc = subprocess.run([*argv, "-o", str(_DEV_FULL)], capture_output=True, timeout=600)
            name = repr(str(_DEV_FULL))
        else:
            with open(_DEV_FULL, "wb") as full:
                proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, timeout=600)
            name = "'<stdout>'"
        # One line, and no "Exception ignored" from flushing stdout at exit.
        assert proc.stderr.decode() == (
            f"runtime failure: cannot write output {name}: {os.strerror(errno.ENOSPC)}\n"
        )
        assert proc.returncode == 3

    def test_file_cut_short_is_removed(self, tmp_path):
        # A file size limit of 8 KiB, in the child only, cuts the CSV in
        # the middle of a row: nothing that still parses may be left.
        out = tmp_path / "trunc.csv"

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (8192, 8192))

        proc = subprocess.run(
            [sys.executable, "-m", "ellipspin", "elliptic-table", "0.7", "20", "2001", "-o", str(out)],
            capture_output=True,
            timeout=600,
            preexec_fn=limit_file_size,
        )
        assert proc.returncode == 3
        assert proc.stderr.decode() == (
            f"runtime failure: cannot write output {str(out)!r}: {os.strerror(errno.EFBIG)}\n"
        )
        assert not out.exists()


DENSE_CONFIG = """\
k = 0.7
h_over_omega = 0.3
delta_over_omega = 0.15
tau_max = 14
n_samples = {n}
"""


class TestCsvBytes:
    """The chunked row writer gives the bytes of one format call per value."""

    def test_simulate(self, tmp_path):
        n = 2500
        # More rows than one chunk, and not a whole number of chunks.
        assert cli._CHUNK_ROWS < n and n % cli._CHUNK_ROWS
        cfg, out = tmp_path / "s.cfg", tmp_path / "s.csv"
        cfg.write_text(DENSE_CONFIG.format(n=n))
        assert run_in_process("simulate", str(cfg), "-o", str(out))[0] == 0
        traj = sd.evolve(
            sd.SPIN_UP, sd.SimParams.from_detuning(0.3, 0.15, 0.7), np.linspace(0.0, 14.0, n)
        )
        rows = [
            (tau, l1.real, l1.imag, l2.real, l2.imag, p, *pol, drift)
            for tau, (l1, l2), p, pol, drift in zip(
                traj.taus, traj.lab, traj.p_flip, traj.polarization, traj.norm_drift
            )
        ]
        assert out.read_text() == csv_text(HEADER, rows)

    def test_sweep(self, tmp_path):
        cfg, out = tmp_path / "w.cfg", tmp_path / "w.csv"
        cfg.write_text(SWEEP_CONFIG.replace("delta_over_omega = 0.0", "delta_over_omega = 0.0, -0.2"))
        assert run_in_process("sweep", str(cfg), "-o", str(out))[0] == 0
        taus = np.linspace(0.0, 10.0, 51)
        rows = []
        for k in (0.3, 0.7, 0.99):
            for d in (0.0, -0.2):
                p_flip = sd.evolve(sd.SPIN_UP, sd.SimParams.from_detuning(0.25, d, k), taus).p_flip
                rows += [(k, d, 0.25, tau, p) for tau, p in zip(taus, p_flip)]
        assert out.read_text() == csv_text("k,delta_over_omega,h_over_omega,tau,p_flip", rows)

    def test_elliptic_table(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_in_process("elliptic-table", "0.7", "20", "2001", "-o", str(out))[0] == 0
        u = np.linspace(0.0, 20.0, 2001)
        grid = _jacobi_grid(u, 0.7)
        columns = (u, grid.sn, grid.cn, grid.dn, *jacobi_identity_residuals(grid, 0.7))
        assert out.read_text() == csv_text("u,sn,cn,dn,res_sncn,res_dnsn", zip(*columns))
        scalar = np.array([jacobi(x, 0.7).as_tuple() for x in u.tolist()])
        assert np.max(np.abs(np.column_stack(columns[1:4]) - scalar)) <= GRID_BOUND

    def test_simulate_never_buffers_the_whole_file(self, tmp_path):
        # Peak traced allocation of this 20,001-sample run: 4.0 MiB when
        # rows are written a chunk at a time; joining the file into one
        # string first adds about 13 MiB.
        cfg, out = tmp_path / "d.cfg", tmp_path / "d.csv"
        cfg.write_text(DENSE_CONFIG.format(n=20001))
        argv = ("simulate", str(cfg), "-o", str(out))
        assert run_in_process(*argv)[0] == 0  # warm-up: caches and lazy imports
        tracemalloc.start()
        try:
            assert run_in_process(*argv)[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _number_text(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


_MALFORMED = st.sampled_from(["nan", "inf", "-inf", "abc", "1e", "--1", "1,,2", "0x10", "+"])
_HUGE = st.sampled_from(["1e300", "-1e300", "1e12"])
# Work grows with tau_max, |h/w| and |D/w| and as tol shrinks, so finite
# values of those come from ranges that run in milliseconds; values that
# are rejected or fail fast (1e300 drives, tol = 1e-25 or 1e-300) are
# drawn too.
_VALUES = {
    "k": st.one_of(_number_text(-0.5, 1.5), _HUGE),
    "h_over_omega": st.one_of(_number_text(-2.0, 2.0), st.just("1e300")),
    "delta_over_omega": st.one_of(_number_text(-2.0, 2.0), st.just("-1e300")),
    "tau_max": st.one_of(_number_text(-1.0, 5.0), st.just("1e-300")),
    "n_samples": st.one_of(st.integers(-2, 40).map(str), _number_text(-2.0, 40.0), _HUGE),
    "tol": st.sampled_from(["1e-10", "1e-8", "1e-4", "2e-4", "0", "-1e-10", "1e-25", "1e-300"]),
    "spin_j": st.one_of(
        st.integers(-2, 60).map(lambda n: repr(n / 2)), _number_text(-1.0, 30.0), _HUGE
    ),
    "initial_re1": st.one_of(_number_text(-1.5, 1.5), _HUGE),
    "initial_im1": _number_text(-1.5, 1.5),
    "initial_re2": st.one_of(_number_text(-1.5, 1.5), _HUGE),
    "initial_im2": _number_text(-1.5, 1.5),
    "outputs": st.lists(st.sampled_from(cli.OUTPUT_KINDS + ("plots",)), min_size=1, max_size=3).map(
        ", ".join
    ),
    "sweep_cap": st.one_of(st.integers(-1, 30).map(str), _HUGE),
    "g": _number_text(-3.0, 3.0),
    "h0_tesla": _number_text(-1e-3, 1e-3),
    "H0_tesla": _number_text(-1e-3, 1e-3),
    "omega_rad_per_s": st.one_of(_number_text(-1e9, 1e9), st.just("0")),
}
_GRID_KEYS = ("k", "h_over_omega", "delta_over_omega")
_BASE = {
    "k": "0.5",
    "h_over_omega": "0.3",
    "delta_over_omega": "0.1",
    "tau_max": "2",
    "n_samples": "11",
}


@st.composite
def _config_lines(draw):
    """A valid config with up to four values replaced and maybe one key dropped."""
    values = dict(_BASE)
    for key in draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True, max_size=4)):
        if key in _GRID_KEYS and draw(st.booleans()):
            values[key] = ", ".join(draw(st.lists(_VALUES[key], min_size=1, max_size=3)))
        else:
            values[key] = draw(st.one_of(_VALUES[key], _MALFORMED))
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=1)):
        del values[key]
    return "".join(f"{key} = {value}\n" for key, value in values.items())


class TestGeneratedConfigs:
    def test_exit_codes_and_no_traceback(self, tmp_path_factory):
        # In-process runs: an exception escaping cli.main is the traceback
        # a user would see, and it fails this test.
        work = tmp_path_factory.mktemp("fuzz")
        cfg, out = work / "f.cfg", work / "f.csv"

        @settings(max_examples=150, deadline=None)
        @given(_config_lines())
        def check(text):
            cfg.write_text(text)
            for allow_grids in (False, True):
                try:
                    cli.load_scenario(str(cfg), allow_grids=allow_grids)
                except cli.ConfigError:
                    pass
            for command in ("simulate", "sweep"):
                rc, err = run_in_process(command, str(cfg), "-o", str(out))
                assert rc in (0, 2, 3), (command, rc, err)
                assert "Traceback" not in err

        check()
