"""Command-line scenario runner.

Subcommands: ``simulate <config>``, ``sweep <config>``, ``verify [suite]``
and ``elliptic-table <k> <u_max> <n>``.  Configurations are flat
``key = value`` text files; CSV goes to stdout (or ``--output``) with a
``.`` decimal separator, 17 significant digits and LF line endings, so a
given configuration always produces byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime/integration failure.  A command signals a failure by raising
`Failure`; `main` alone prints its one stderr line and returns its code.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _csv, heun, verify, wigner
from . import spin_dynamics as sd
from .elliptic import _jacobi_grid, jacobi_identity_residuals
from .errors import DomainError, EllipspinError, IntegrationError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

OUTPUT_KINDS = ("trajectory", "probability", "polarization", "heun_check", "wigner")

_DIMENSIONLESS_KEYS = ("k", "h_over_omega", "delta_over_omega")
_PHYSICAL_KEYS = ("g", "h0_tesla", "H0_tesla", "omega_rad_per_s")
_OTHER_KEYS = (
    "tau_max",
    "n_samples",
    "tol",
    "spin_j",
    "initial_re1",
    "initial_im1",
    "initial_re2",
    "initial_im2",
    "outputs",
)
_KNOWN_KEYS = set(_DIMENSIONLESS_KEYS) | set(_PHYSICAL_KEYS) | set(_OTHER_KEYS)

# Budget for n_samples x runs, and for the rows of `elliptic-table`.  A
# simulated sample holds under 200 bytes at the run's peak, in `evolve`'s
# per-sample arrays (from 20,001 to 200,001 samples its traced peak grows
# by 153 bytes per sample and the resident size by about 180), so this
# keeps a run to a few hundred MB.
MAX_ROWS = 1_000_000


class Failure(Exception):
    """A failed run: the one line `main` prints on stderr, and its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class ConfigError(Failure):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        place = f" (line {line}, column {column})" if line else ""
        super().__init__(EXIT_CONFIG, f"config error: {message}{place}")


@contextlib.contextmanager
def _failing(code: int, prefix: str):
    """Turn a package error raised in the block into a `Failure`.

    An `IntegrationError` is an integration failure with exit code 3,
    whoever called; any other `EllipspinError` is ``prefix: <error>`` with
    exit code ``code``.
    """
    try:
        yield
    except IntegrationError as exc:
        raise Failure(EXIT_RUNTIME, f"integration failure: {exc}") from exc
    except EllipspinError as exc:
        raise Failure(code, f"{prefix}: {exc}") from exc


@dataclass
class Scenario:
    params: sd.SimParams
    tau_max: float
    n_samples: int
    tol: float
    spin_j: float
    initial: sd.SpinState
    outputs: tuple[str, ...]
    # sweep-only grids; singleton lists when the config is scalar
    k_grid: list[float] = field(default_factory=list)
    delta_grid: list[float] = field(default_factory=list)
    h_grid: list[float] = field(default_factory=list)


def _read_pairs(path: str) -> dict[str, tuple[str, int, int]]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not plain ASCII: {exc}")
    pairs: dict[str, tuple[str, int, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        # 1-based column of the value's first character; of the character
        # after "=" when the value is empty.
        eq = raw.index("=")
        col = raw.index(value, eq + 1) + 1 if value else eq + 2
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno, raw.find(key) + 1)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", lineno, 1)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno, col)
        pairs[key] = (value, lineno, col)
    return pairs


def _number(key: str, text: str, line: int, col: int) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ConfigError(f"{key!r} is not a number: {text!r}", line, col)
    if not math.isfinite(x):
        raise ConfigError(f"{key!r} must be finite, got {text!r}", line, col)
    return x


def _parse_float(pairs, key, default=None):
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value, line, col = pairs[key]
    return _number(key, value, line, col)


def _parse_float_list(pairs, key, default=None):
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value, line, col = pairs[key]
    return [_number(key, part.strip(), line, col) for part in value.split(",")]


def load_scenario(path: str, allow_grids: bool = False) -> Scenario:
    pairs = _read_pairs(path)

    has_dimensionless = any(k in pairs for k in ("h_over_omega", "delta_over_omega"))
    has_physical = any(k in pairs for k in _PHYSICAL_KEYS)
    if has_physical and has_dimensionless:
        print(
            "warning: both dimensionless and physical field keys present; "
            "dimensionless values take precedence",
            file=sys.stderr,
        )

    if allow_grids:
        k_grid = _parse_float_list(pairs, "k")
        delta_grid = _parse_float_list(pairs, "delta_over_omega")
        h_grid = _parse_float_list(pairs, "h_over_omega")
        k_value, delta, h = k_grid[0], delta_grid[0], h_grid[0]
    else:
        if has_dimensionless or not has_physical:
            k_value = _parse_float(pairs, "k")
            delta = _parse_float(pairs, "delta_over_omega")
            h = _parse_float(pairs, "h_over_omega")
        else:
            k_value = _parse_float(pairs, "k")
            g = _parse_float(pairs, "g")
            h0 = _parse_float(pairs, "h0_tesla")
            big_h0 = _parse_float(pairs, "H0_tesla")
            omega = _parse_float(pairs, "omega_rad_per_s")
            try:
                derived = sd.derive_parameters(g, h0, big_h0, omega, k=k_value)
            except DomainError as exc:
                raise ConfigError(str(exc))
            delta = derived.delta_over_omega
            h = derived.h_over_omega
        k_grid, delta_grid, h_grid = [k_value], [delta], [h]

    tau_max = _parse_float(pairs, "tau_max")
    if not tau_max > 0.0:
        raise ConfigError(f"tau_max must be positive, got {tau_max!r}")
    n_samples_f = _parse_float(pairs, "n_samples")
    n_samples = int(n_samples_f)
    if n_samples != n_samples_f or n_samples < 2:
        raise ConfigError(f"n_samples must be an integer >= 2, got {n_samples_f!r}")
    rows = n_samples_f * len(k_grid) * len(delta_grid) * len(h_grid)
    if rows > MAX_ROWS:
        raise ConfigError(f"n_samples x runs = {rows:.6g} exceeds the budget of {MAX_ROWS} rows")
    tol = _parse_float(pairs, "tol", default=sd.DEFAULT_TOL)
    if not (sd.MIN_TOL <= tol <= 1e-4):
        raise ConfigError(f"tol must lie in [{sd.MIN_TOL:g}, 1e-4], got {tol!r}")
    try:
        spin_j = round(2.0 * wigner._check_j(_parse_float(pairs, "spin_j", default=0.5))) / 2.0
    except DomainError as exc:
        raise ConfigError(f"spin_j: {exc}")

    re1 = _parse_float(pairs, "initial_re1", default=1.0)
    im1 = _parse_float(pairs, "initial_im1", default=0.0)
    re2 = _parse_float(pairs, "initial_re2", default=0.0)
    im2 = _parse_float(pairs, "initial_im2", default=0.0)
    # hypot, unlike a sum of squares, cannot overflow on finite amplitudes.
    norm = math.hypot(re1, im1, re2, im2)
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError(f"initial state norm is {norm!r}; must be 1 within 1e-6")
    initial = sd.SpinState(complex(re1, im1) / norm, complex(re2, im2) / norm)

    if "outputs" in pairs:
        value, line, col = pairs["outputs"]
        outputs = tuple(part.strip() for part in value.split(","))
        for out in outputs:
            if out not in OUTPUT_KINDS:
                raise ConfigError(f"unknown output kind {out!r}", line, col)
            if allow_grids and out != "trajectory":
                raise ConfigError(f"sweep writes only the trajectory, not {out!r}", line, col)
    else:
        outputs = ("trajectory",)

    try:
        params = sd.SimParams.from_detuning(h_grid[0], delta_grid[0], k_grid[0])
    except DomainError as exc:
        raise ConfigError(str(exc))
    # Checked before any output is written, after the modulus itself is
    # known to be valid.
    if "heun_check" in outputs:
        try:
            heun._require_open_modulus(params.k)
        except DomainError as exc:
            raise ConfigError(f"heun_check: {exc}", line, col)
    return Scenario(
        params=params,
        tau_max=tau_max,
        n_samples=n_samples,
        tol=tol,
        spin_j=spin_j,
        initial=initial,
        outputs=outputs,
        k_grid=k_grid,
        delta_grid=delta_grid,
        h_grid=h_grid,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Rows formatted per write.  One numpy pass formats a whole chunk, and
# 256 rows keep the formatter's arrays at tens of kilobytes, small next to
# the trajectory.  Over repeated 20,001-sample `simulate` runs, 1,024 rows
# raised the peak resident size by about 1 MiB, and 64 rows lowered it no
# further.
_CHUNK_ROWS = 256


def _write_rows(output: str | None, header: str, blocks) -> None:
    """Write ``header`` and then the rows of each block in ``blocks`` as CSV lines.

    A block is a sequence of equal-length float columns, where a scalar
    stands for a column of that value.  Its rows are formatted
    `_CHUNK_ROWS` at a time by `_csv.format_rows`, with the bytes of one
    ``_fmt(x)`` per value.  The CSV goes to the file ``output``, opened and
    closed here, or to stdout when ``output`` is None.  Raises ConfigError
    when ``output`` cannot be opened, and a `Failure` with exit code 3 when
    writing fails.  A failed write removes ``output`` when it is a regular
    file, so no cut-short CSV is left behind; a device or pipe is never
    removed.
    """
    try:
        if output is None:
            target, regular = contextlib.nullcontext(sys.stdout), False
        else:
            target = open(output, "w", encoding="ascii", newline="\n")
            regular = stat.S_ISREG(os.fstat(target.fileno()).st_mode)
    except OSError as exc:
        raise ConfigError(f"cannot write output {output!r}: {exc.strerror}")
    try:
        with target as stream:
            stream.write(header + "\n")
            for block in blocks:
                columns = np.broadcast_arrays(*block)
                for start in range(0, len(columns[0]), _CHUNK_ROWS):
                    chunk = np.stack([c[start : start + _CHUNK_ROWS] for c in columns], axis=1)
                    stream.write(_csv.format_rows(chunk))
            stream.flush()
    except BrokenPipeError:
        raise  # the reader left; `main` ends the run quietly
    except OSError as exc:
        name = output if output is not None else "<stdout>"
        if regular:
            with contextlib.suppress(OSError):
                os.remove(output)
        if output is None:
            # What stdout still buffers would fail again at shutdown.
            _silence_stdout()
        raise Failure(EXIT_RUNTIME, f"runtime failure: cannot write output {name!r}: {exc.strerror or exc}")


def _silence_stdout() -> None:
    """Point stdout at devnull, so that interpreter shutdown flushes it silently."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_simulate(config_path: str, output: str | None) -> None:
    scenario = load_scenario(config_path)
    taus = np.linspace(0.0, scenario.tau_max, scenario.n_samples)
    with _failing(EXIT_CONFIG, "config error"):
        traj = sd.evolve(scenario.initial, scenario.params, taus, tol=scenario.tol)

    lab, pol = traj.lab, traj.polarization
    columns = (
        traj.taus,
        lab[:, 0].real,
        lab[:, 0].imag,
        lab[:, 1].real,
        lab[:, 1].imag,
        traj.p_flip,
        pol[:, 0],
        pol[:, 1],
        pol[:, 2],
        traj.norm_drift,
    )
    _write_rows(output, "tau,re_psi1,im_psi1,re_psi2,im_psi2,p_flip,px,py,pz,norm_drift", [columns])

    # Extra requested outputs go to stderr so the CSV bytes stay canonical.
    if "heun_check" in scenario.outputs:
        with _failing(EXIT_RUNTIME, "runtime failure in reduction cross-check"):
            p_series = heun.flip_probability_heun(scenario.tau_max, scenario.params)
        p_ode = float(traj.p_flip[-1])
        print(
            f"heun_check tau={_fmt(scenario.tau_max)}: ode={_fmt(p_ode)} "
            f"series={_fmt(p_series)} diff={_fmt(abs(p_ode - p_series))}",
            file=sys.stderr,
        )
    if "wigner" in scenario.outputs:
        with _failing(EXIT_RUNTIME, "runtime failure in spin-J report"):
            u = sd.propagator(scenario.tau_max, scenario.params, tol=scenario.tol)
            angles = wigner.euler_angles(u)
            j = scenario.spin_j
            # j - 1 = -j at j = 1/2: the spin-1/2 flip.
            p_top = wigner.transition_probability_j(j, j, j - 1.0, angles.theta) if j > 0.0 else 0.0
        print(
            f"wigner tau={_fmt(scenario.tau_max)}: phi={_fmt(angles.phi)} "
            f"theta={_fmt(angles.theta)} psi={_fmt(angles.psi)} "
            f"p_top_transition={_fmt(p_top)}",
            file=sys.stderr,
        )


def cmd_sweep(config_path: str, output: str | None) -> None:
    scenario = load_scenario(config_path, allow_grids=True)
    grid = [
        (k, d, h)
        for k in scenario.k_grid
        for d in scenario.delta_grid
        for h in scenario.h_grid
    ]
    taus = np.linspace(0.0, scenario.tau_max, scenario.n_samples)
    with _failing(EXIT_CONFIG, "config error"):
        all_pflip = []
        for k, d, h in grid:
            params = sd.SimParams.from_detuning(h, d, k)
            all_pflip.append(sd.evolve(scenario.initial, params, taus, tol=scenario.tol).p_flip)
    _write_rows(
        output,
        "k,delta_over_omega,h_over_omega,tau,p_flip",
        ((k, d, h, taus, pf) for (k, d, h), pf in zip(grid, all_pflip)),
    )


def cmd_verify(suite: str, tol: float) -> None:
    if not (sd.MIN_TOL <= tol < math.inf):
        raise ConfigError(f"tol must be finite and at least {sd.MIN_TOL:g}, got {tol!r}")
    if suite not in ("all", *verify.SUITES):
        raise ConfigError(f"unknown suite {suite!r}; choose from {('all', *verify.SUITES)}")
    with _failing(EXIT_RUNTIME, "runtime failure"):
        results = verify.run_suite(suite, tol=tol)
    for r in results:
        print(r.line())
    failed = ", ".join(r.name for r in results if not r.passed)
    if failed:
        raise Failure(EXIT_VERIFY_FAILED, f"FAILED checks: {failed}")
    print(f"all {len(results)} checks passed")


def cmd_elliptic_table(k: float, u_max: float, n: int, output: str | None) -> None:
    if not (0.0 <= k <= 1.0):
        raise ConfigError(f"k must lie in [0, 1], got {k!r}")
    if n < 2:
        raise ConfigError(f"need at least 2 rows, got {n!r}")
    if n > MAX_ROWS:
        raise ConfigError(f"{n} rows exceed the budget of {MAX_ROWS} rows")
    if not (math.isfinite(u_max) and u_max > 0.0):
        raise ConfigError(f"u_max must be positive, got {u_max!r}")

    u = np.linspace(0.0, u_max, n)
    trip = _jacobi_grid(u, k)
    _write_rows(
        output,
        "u,sn,cn,dn,res_sncn,res_dnsn",
        [(u, trip.sn, trip.cn, trip.dn, *jacobi_identity_residuals(trip, k))],
    )


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, its subcommands' too, are one config error line."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ellipspin",
        description="Spin dynamics in an elliptically modulated magnetic field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one scenario and emit a trajectory CSV")
    p_sim.add_argument("config")
    p_sim.add_argument("-o", "--output", default=None, help="CSV file (default stdout)")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and emit a flat CSV")
    p_sweep.add_argument("config")
    p_sweep.add_argument("-o", "--output", default=None, help="CSV file (default stdout)")

    p_ver = sub.add_parser("verify", help="run the verification suites")
    p_ver.add_argument("suite", nargs="?", default="all", help="invariants, heun, wigner or all")
    p_ver.add_argument("--tol", type=float, default=sd.DEFAULT_TOL, help="ODE tolerance for the checks")

    p_tab = sub.add_parser("elliptic-table", help="dump sn, cn, dn values and identity residuals")
    p_tab.add_argument("k", type=float)
    p_tab.add_argument("u_max", type=float)
    p_tab.add_argument("n", type=int)
    p_tab.add_argument("-o", "--output", default=None, help="CSV file (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "simulate":
            cmd_simulate(args.config, args.output)
        elif args.command == "sweep":
            cmd_sweep(args.config, args.output)
        elif args.command == "verify":
            cmd_verify(args.suite, args.tol)
        else:
            cmd_elliptic_table(args.k, args.u_max, args.n, args.output)
    except Failure as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # Downstream consumer (head, less, ...) closed the stream.
        _silence_stdout()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
