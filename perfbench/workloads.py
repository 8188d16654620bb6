"""The benchmark's workloads: inputs made from a seed, the operations of one
pass, and the oracle gate each operation's output must pass.

The seed rotates the initial vectors and the lab direction and jitters the
interior of the l2 grids; it never changes how many operations a pass runs.
Every call into ptb goes through a module attribute (``cli.run_scenario``,
``reduced.integrate``, ...) so that the traced run can wrap it.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from ptb import binding, circular, cli, output, potentials, reduced, toy, worldline
from ptb.minkowski import FourVector

TOL = 1e-10
SAMPLE_INTERVAL = 0.5  # orbit_strict's coarse landing grid
LAB_BETA = 0.6  # oscillator_lab's boost speed


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed proper rotation of R^3."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def read_csv(path) -> dict:
    """Columns of a ptb CSV file as float arrays, keyed by header name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(x) for x in row] for row in reader])
    if tuple(header) != output.COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    return {name: data[:, i] for i, name in enumerate(header)}


def _vec(cols: dict, prefix: str) -> np.ndarray:
    return np.stack([cols[f"{prefix}_{c}"] for c in "xyz"], axis=1)


def _check(failures: list, name: str, value: float, bound: float) -> None:
    if not value <= bound:  # also catches nan
        failures.append(f"{name} = {value:.3e} exceeds {bound:.3e}")


def orbit_gate(cols: dict, n_expected: int, span: float) -> list[str]:
    """First integrals, planarity and the clock of a sampled orbit
    (criterion-05 bounds), computed from the written columns."""
    failures = []
    if len(cols["lam"]) != n_expected:
        failures.append(f"{len(cols['lam'])} rows, expected {n_expected}")
    if cols["lam"][0] != 0.0 or cols["lam"][-1] != span:
        failures.append("sample grid does not cover [0, span]")
    N = cols["N"]
    _check(failures, "N_drift", float(np.max(np.abs(N - N[0])) / abs(N[0])), 1e-9)
    z, y = _vec(cols, "ztil"), _vec(cols, "ytil")
    L2 = np.einsum("ij,ij->i", z, z) * np.einsum("ij,ij->i", y, y) \
        - np.einsum("ij,ij->i", z, y) ** 2
    _check(failures, "L2_drift", float(np.max(np.abs(L2 - L2[0])) / abs(L2[0])), 1e-9)
    normal = np.cross(z[0], y[0])
    normal /= np.linalg.norm(normal)
    planarity = max(float(np.max(np.abs(v @ normal) / np.linalg.norm(v, axis=1)))
                    for v in (z, y))
    _check(failures, "planarity_residual", planarity, 1e-10)
    if not (np.all(np.diff(cols["T"]) > 0.0) and np.all(cols["dT_dlambda"] > 0.0)):
        failures.append("T is not monotone")
    return failures


class OrbitStrict:
    """Eccentric bound central_power orbit through the cli scenario path,
    strict clock, coarse sample grid, rest-frame CSV."""

    name = "orbit_strict"

    def __init__(self, seed: int, out_dir: str, span: float = 100.0):
        rot = random_rotation(np.random.default_rng([seed, 1]))
        self.span = span
        self.n_samples = int(round(span / SAMPLE_INTERVAL)) + 1
        self.config = {
            "schema": 1,
            "masses": {"m1": 1.0, "m2": 2.0},
            "potential": {"kind": "central_power", "params": {"g": -0.1, "n": 1}},
            "initial": {"ztil": (rot @ [1.0, 0.0, 0.0]).tolist(),
                        "ytil": (rot @ [0.0, 0.3, 0.0]).tolist()},
            "integrator": {"tol": TOL, "lambda_span": span,
                           "sample_interval": SAMPLE_INTERVAL, "strict_time": True},
            "output": {"format": "csv", "path": os.path.join(out_dir, "orbit_strict.csv")},
        }

    def validate(self) -> None:
        cli.build_scenario(self.config)

    def operations(self):
        return [self.simulate]

    def simulate(self):
        path, diag, _ = cli.run_scenario(cli.build_scenario(self.config))
        return path, diag

    def gate(self, result) -> list[str]:
        path, diag = result
        failures = orbit_gate(read_csv(path), self.n_samples, self.span)
        if diag["monotone"] is not True:
            failures.append("diagnostics report a non-monotone clock")
        return failures


def oscillator_gate(p: toy.ToyParams, cols: dict, payload: dict,
                    resampled, span: float) -> list[str]:
    """Written samples and T-resampled samples against the closed-form
    oscillator (bound tol * span), and the lab frame against k.k = M^2 and
    the invariance of the separation x1 - x2."""
    failures = []
    bound = TOL * span
    z, y = _vec(cols, "ztil"), _vec(cols, "ytil")
    lams = np.concatenate([cols["lam"], [s.state.lambda_ for s in resampled.samples]])
    zs = np.concatenate([z, [s.state.ztil for s in resampled.samples]])
    ys = np.concatenate([y, [s.state.ytil for s in resampled.samples]])
    Ts = np.concatenate([cols["T"], [s.T for s in resampled.samples]])
    ref = [toy.analytic_state(p, float(lam)) for lam in lams]
    dev_state = max(float(np.max(np.abs(zs - [r[0] for r in ref]))),
                    float(np.max(np.abs(ys - [r[1] for r in ref]))))
    dev_T = float(np.max(np.abs(Ts - [toy.analytic_T(p, float(lam)) for lam in lams])))
    _check(failures, "state deviation", dev_state, bound)
    _check(failures, "T deviation", dev_T, bound)
    T_grid = np.linspace(cols["T"][0], cols["T"][-1], len(resampled.samples))
    _check(failures, "resample T-grid error",
           float(np.max(np.abs(Ts[len(z):] - T_grid))), bound)

    k = FourVector(*payload["frame"])
    M2 = payload["shell"]["M"] ** 2
    _check(failures, "k.k - M^2 (relative)", abs(k.norm2() - M2) / M2, 1e-12)
    dx = np.stack([cols[f"x1_{c}"] - cols[f"x2_{c}"] for c in "txyz"], axis=1)
    interval = dx[:, 0] ** 2 - np.einsum("ij,ij->i", dx[:, 1:], dx[:, 1:])
    zeta2 = np.einsum("ij,ij->i", z, z)
    _check(failures, "lab separation interval",
           float(np.max(np.abs(interval + zeta2) / zeta2)), 1e-10)
    rows = np.array(payload["rows"], dtype=float)
    csv_rows = np.stack([cols[c] for c in output.COLUMNS], axis=1)
    if rows.shape != csv_rows.shape or not np.array_equal(rows, csv_rows):
        failures.append("JSON rows differ from CSV rows")
    if payload["diagnostics"]["monotone"] is not True:
        failures.append("diagnostics report a non-monotone clock")
    return failures


class OscillatorLab:
    """Closed-form oscillator on a tilted plane, free stepping, then every
    post-integration stage: synchronize, world lines, lab boost, CSV, JSON
    with diagnostics, and resampling onto a uniform T-grid."""

    name = "oscillator_lab"

    def __init__(self, seed: int, out_dir: str, periods: float = 20.0,
                 n_resample: int = 1001):
        rng = np.random.default_rng([seed, 2])
        rot = random_rotation(rng)
        self.params = toy.ToyParams(
            chi=0.125, M=4.0, nu=-1.5,
            A=tuple(rot @ [1.0, 0.0, 0.3]), B=tuple(rot @ [0.1, 0.5, -0.2]))
        self.span = periods * self.params.period
        self.n_resample = n_resample
        direction = random_rotation(rng) @ [0.0, 0.0, 1.0]
        gamma = 1.0 / math.sqrt(1.0 - LAB_BETA * LAB_BETA)
        M = self.params.M
        self.k = FourVector(M * gamma, *(M * gamma * LAB_BETA * direction))
        self.csv_path = os.path.join(out_dir, "oscillator_lab.csv")
        self.json_path = os.path.join(out_dir, "oscillator_lab.json")

    def validate(self) -> None:
        toy.shell_for_toy(self.params)
        potentials.builtin("harmonic", chi=self.params.chi)

    def operations(self):
        return [self.simulate]

    def simulate(self):
        p = self.params
        shell = toy.shell_for_toy(p)
        model = potentials.builtin("harmonic", chi=p.chi)
        z0, e0 = toy.initial_state(p)
        state0 = reduced.ReducedState(0.0, np.array(z0), np.array(e0))
        traj = reduced.synchronize(reduced.integrate(
            state0, shell, model, self.span, reduced.IntegratorOptions(tol=TOL)))
        lab = worldline.export_lab_frame(worldline.worldlines(traj), self.k)
        output.write_csv(self.csv_path, output.trajectory_rows(traj, lab))
        output.write_json(self.json_path, output.json_payload(traj, lab))
        return worldline.resample_uniform_T(traj, self.n_resample)

    def gate(self, resampled) -> list[str]:
        with open(self.json_path) as fh:
            payload = json.load(fh)
        return oscillator_gate(self.params, read_csv(self.csv_path), payload,
                               resampled, self.span)


def circular_gate(orbit, constancy, period) -> list[str]:
    """Closure and constancy over one period, bounds tol * period."""
    failures = []
    lam_bound = TOL * orbit.period_lambda
    T_bound = TOL * orbit.period_T
    _check(failures, "closure_ztil", period.closure_ztil, lam_bound)
    _check(failures, "closure_ytil", period.closure_ytil, lam_bound)
    _check(failures, "scalar variation", constancy.max_variation, lam_bound)
    _check(failures, "T_advance_error", period.T_advance_error, T_bound)
    _check(failures, "T_linear_residual", period.linear_residual, T_bound)
    return failures


def _jittered(lo: float, hi: float, n: int, rng: np.random.Generator) -> list[float]:
    """n points from lo to hi; interior points move by up to 2% of the
    spacing, the endpoints stay."""
    grid = np.linspace(lo, hi, n)
    if n > 2:
        grid[1:-1] += rng.uniform(-0.02, 0.02, n - 2) * (hi - lo) / (n - 1)
    return grid.tolist()


class CircularScan:
    """The `ptb circular` path over l2 grids: self-consistent circular
    orbit, constancy and periodicity checks, binding energy."""

    name = "circular_scan"
    masses = (1.0, 2.0)

    def __init__(self, seed: int, out_dir: str, central=(5.0, 50.0, 10),
                 harmonic=(0.5, 4.0, 8)):
        rng = np.random.default_rng([seed, 3])
        self.orbits = ([(("central_power", {"g": -1.0, "n": 1}), l2)
                        for l2 in _jittered(*central, rng)]
                       + [(("harmonic", {"chi": 0.125}), l2)
                          for l2 in _jittered(*harmonic, rng)])

    def validate(self) -> None:
        for (kind, params), l2 in self.orbits:
            potentials.builtin(kind, **params)
            if not l2 > 0.0:
                raise ValueError(f"l2 must be positive, got {l2!r}")

    def operations(self):
        return [lambda spec=spec, l2=l2: self.orbit(spec, l2) for spec, l2 in self.orbits]

    def orbit(self, spec, l2):
        kind, params = spec
        model = potentials.builtin(kind, **params)
        shell, orb = binding.self_consistent_circular(*self.masses, model, l2)
        constancy = circular.verify_constancy(orb, model, shell)
        period = circular.verify_periodicity(orb, model, shell)
        energy = binding.binding_energy(shell)
        return orb, constancy, period, energy

    def gate(self, result) -> list[str]:
        orb, constancy, period, energy = result
        failures = circular_gate(orb, constancy, period)
        if not math.isfinite(energy):
            failures.append(f"binding energy {energy!r}")
        return failures


WORKLOADS = {cls.name: cls for cls in (OrbitStrict, OscillatorLab, CircularScan)}
