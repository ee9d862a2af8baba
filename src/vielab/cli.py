"""Scenario-driven command line: solves, spectra, verification, sweeps.

Usage:
    vie solve|spectrum|verify|sweep --config scenario.json [--out DIR] [--seed N]
    vie presets [--list] [--write DIR]

A scenario is a single JSON file naming the geometry, wave parameters,
a coefficient registry entry, the discretization, and task parameters.
Outputs are machine readable: eigenvalues and fields as CSV (full
precision, LF line endings), reports as JSON with a stable key schema.
Every output file carries the configuration hash and artifact version.

Exit codes: 0 success, 2 configuration/validation failure or an input over
the dense memory budget (no outputs), 3 numerical failure (divergence or
near-singular solve; the report records it, partial outputs flagged incomplete).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .boundary import assemble_K, jump_relation_check, trace
from .coefficients import CoefficientField, beta_only, constant_a, linear_a, smooth_bump_a
from .coupled import NEAR_SINGULAR_RCOND, assemble_coupled, check_equivalence, solve_coupled
from .geometry import DomainGeometry, build_boundary_mesh, build_volume_grid, reflections
from .presets import get_preset, preset_names
from .scattering import (
    extend_solution,
    gmres_solve,
    incident_plane_wave,
    incident_point_source,
    plane_wave_function,
    point_source_function,
)
from .special import WaveParameters
from .spectral import (
    a_to_sigma,
    condition_sweep,
    detect_clusters,
    eigenvalues_dense,
    essential_set,
    farthest_distance,
    fredholm_verdict,
    sigma_to_a,
    spectral_instrument,
)
from .volume import (
    DenseBudgetError,
    apply_A,
    apply_A_fft,
    apply_A_smooth_form,
    assemble_A_dense,
    discrete_laplacian,
    even_axes,
    identity_minus_A,
    mirror_half,
    newton_potential,
)

logger = logging.getLogger(__name__)

class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration (exit code 2)."""


class NumericalFailure(RuntimeError):
    """Divergence or singularity during a task (exit code 3).

    ``partial_results`` carries whatever the task completed before the
    failure so the report can record it (flagged incomplete).
    """

    def __init__(self, message: str, partial_results: Optional[dict] = None):
        super().__init__(message)
        self.partial_results = partial_results or {}


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------
def _as_complex(value, label: str) -> complex:
    try:
        if isinstance(value, (int, float)):
            return complex(value)
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{label} must be a number or [re, im] pair")


def _whole(value, label: str) -> int:
    """An integer setting: an int, or a float without a fractional part."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{label} must be a whole number, got {value!r}")
    return int(value)


def _require(cfg: dict, key: str, label: str):
    if key not in cfg:
        raise ConfigError(f"missing {label} entry {key!r}")
    return cfg[key]


def build_geometry(cfg: dict) -> DomainGeometry:
    shape = _require(cfg, "shape", "geometry")
    margin = float(cfg.get("margin", 0.1))
    if shape == "disc":
        return DomainGeometry.disc(float(_require(cfg, "radius", "geometry")), margin)
    if shape == "ellipse":
        return DomainGeometry.ellipse(_require(cfg, "semi_axes", "geometry"), margin)
    if shape == "polygon":
        return DomainGeometry.polygon(_require(cfg, "vertices", "geometry"), margin)
    if shape == "ball":
        return DomainGeometry.ball(float(_require(cfg, "radius", "geometry")), margin)
    raise ConfigError(f"unknown shape {shape!r}")


def build_coefficients(cfg: dict, domain: DomainGeometry, k: complex) -> CoefficientField:
    name = _require(cfg, "name", "coefficients")
    if name in ("constant-a", "polygon-constant-a"):
        a_val = _as_complex(_require(cfg, "a", "coefficients"), "a")
        k2_in = cfg.get("k2_inside")
        return constant_a(domain, k, a_val,
                          None if k2_in is None else _as_complex(k2_in, "k2_inside"))
    if name == "smooth-bump-a":
        return smooth_bump_a(domain, k, _as_complex(_require(cfg, "amplitude", "coefficients"),
                                                    "amplitude"),
                             cfg.get("rho"))
    if name == "beta-only":
        return beta_only(domain, k, _as_complex(_require(cfg, "amplitude", "coefficients"),
                                                "amplitude"),
                         float(cfg.get("r_plateau", 0.7)), float(cfg.get("r_cut", 0.95)))
    if name == "linear-a":
        return linear_a(domain, k, _as_complex(cfg.get("a0", 1.0), "a0"),
                        np.asarray(_require(cfg, "gradient", "coefficients"), dtype=complex))
    raise ConfigError(f"unknown coefficient registry entry {name!r}")


#: The sections of a scenario, each a JSON object when present.
SECTIONS = ("wave", "discretization", "geometry", "coefficients", "solve", "spectrum", "sweep")


class Scenario:
    """Validated scenario: geometry, wave, coefficients, discretization."""

    def __init__(self, config: dict, task: str, seed_override: Optional[int] = None):
        if not isinstance(config, dict):
            raise ConfigError("scenario configuration must be a JSON object")
        for section in SECTIONS:
            if not isinstance(config.get(section, {}), dict):
                raise ConfigError(f"scenario section {section!r} must be a JSON object")
        cfg_task = config.get("task", task)
        if cfg_task != task:
            raise ConfigError(f"config task {cfg_task!r} does not match command {task!r}")
        self.task = task
        self.config = config
        wave = _require(config, "wave", "scenario")
        k = _as_complex(_require(wave, "k", "wave"), "k")
        disc = config.get("discretization", {})
        try:
            self.seed = _whole(config.get("seed", 0) if seed_override is None else seed_override,
                               "seed")
            self.rng = np.random.default_rng(self.seed)
            dim = _whole(wave.get("dimension", 2), "wave.dimension")
            self.params = WaveParameters(k, dim)
            self.domain = build_geometry(_require(config, "geometry", "scenario"))
            self.coeffs = build_coefficients(_require(config, "coefficients", "scenario"),
                                             self.domain, k)
            self.n_per_axis = _whole(disc.get("n_per_axis", 32), "discretization.n_per_axis")
            self.boundary_nodes = _whole(disc.get("boundary_nodes", 4 * self.n_per_axis),
                                         "discretization.boundary_nodes")
            self.grading = float(disc.get("grading", 3.0))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.domain.dimension != dim:
            raise ConfigError("geometry dimension does not match wave dimension")
        if self.n_per_axis < 4:
            raise ConfigError("n_per_axis must be at least 4")
        if self.boundary_nodes < 8:
            raise ConfigError("boundary_nodes must be at least 8")
        if not self.grading >= 1:
            raise ConfigError("discretization.grading must be at least 1")
        self._hash = config_hash(config)

    @property
    def hash(self) -> str:
        return self._hash

    def grid(self, n: Optional[int] = None):
        return build_volume_grid(self.domain, n or self.n_per_axis)

    def mesh(self, m: Optional[int] = None):
        return build_boundary_mesh(self.domain, m or self.boundary_nodes, self.grading)


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical configuration (output directory excluded)."""
    stripped = {k: v for k, v in config.items() if k != "output_dir"}
    payload = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------
def _header(scenario: Scenario) -> str:
    return f"# vielab {__version__} config_hash={scenario.hash}\n"


def write_csv(path: Path, scenario: Scenario, columns, rows) -> None:
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(_header(scenario))
        fh.write(",".join(columns) + "\n")
        flat = np.asarray(rows, dtype=float).reshape(-1, len(columns))
        fh.write((line * len(flat)) % tuple(flat.ravel().tolist()))


def write_report(path: Path, scenario: Scenario, status: str, results: dict,
                 incomplete: bool = False, error: Optional[str] = None) -> None:
    report = {
        "artifact_version": __version__,
        "config_hash": scenario.hash,
        "task": scenario.task,
        "seed": scenario.seed,
        "status": status,
        "incomplete": incomplete,
        "results": results,
        "error": error,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _c2pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------
def task_solve(scenario: Scenario, out: Path) -> dict:
    cfg = scenario.config.get("solve", {})
    # every input is checked before GMRES, so a bad one writes no file
    try:
        tol = float(cfg.get("tol", 1e-8))
        restart = _whole(cfg.get("restart", 30), "solve.restart")
        maxiter = _whole(cfg.get("maxiter", 400), "solve.maxiter")
        if not 0 < tol < 1:
            raise ConfigError("solve.tol must lie in (0, 1)")
        if restart < 10:
            raise ConfigError("solve.restart must be at least 10")
        grid = scenario.grid()
        incident_kind = cfg.get("incident", "plane-wave")
        if incident_kind == "plane-wave":
            direction = np.asarray(cfg.get("direction", [1.0] + [0.0] * (grid.dimension - 1)),
                                   dtype=float)
            u_inc = incident_plane_wave(grid, scenario.params, direction)
            incident_fn = plane_wave_function(scenario.params, direction)
        elif incident_kind == "point-source":
            source = np.asarray(_require(cfg, "source", "solve"), dtype=float)
            u_inc = incident_point_source(grid, scenario.params, source)
            incident_fn = point_source_function(scenario.params, source)
        else:
            raise ConfigError(f"unknown incident field {incident_kind!r}")
        th = 2 * np.pi * np.arange(16) / 16
        rings = [float(rho) * np.stack([np.cos(th), np.sin(th)], axis=1)
                 for rho in cfg.get("exterior_radii") or ()]
        if rings and grid.dimension != 2:
            raise ConfigError("exterior_radii needs a 2D scatterer")
        if rings and np.any(grid.domain.contains(np.vstack(rings))):
            raise ConfigError("exterior rings must lie outside the scatterer")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    # a mirror-symmetric problem is solved for the kept half of its even field
    half = mirror_half(grid, even_axes(grid, scenario.coeffs, u_inc))
    applier = identity_minus_A(grid, scenario.params, scenario.coeffs, half)
    u, info = gmres_solve(applier, u_inc[half.kept], tol=tol, restart=restart, maxiter=maxiter)
    u = u[half.unfold]
    rows = np.column_stack([grid.centers, u.real, u.imag])
    write_csv(out / "field.csv", scenario,
              list("xyz"[: grid.dimension]) + ["re", "im"], rows)
    results = {
        "gmres": {"iterations": info.iterations, "residual": info.residual,
                  "reason": info.reason, "converged": info.converged},
        "n_unknowns": grid.n,
        "field_file": "field.csv",
    }
    if not info.converged:
        raise NumericalFailure(f"GMRES did not converge ({info.reason}, "
                               f"residual {info.residual:.3e})",
                               partial_results=results)
    if rings:
        rows = []
        for targets in rings:
            vals = extend_solution(grid, scenario.params, scenario.coeffs, u,
                                   targets, incident_fn)
            rows.append(np.column_stack([targets, vals.real, vals.imag]))
        write_csv(out / "exterior.csv", scenario, ["x", "y", "re", "im"],
                  np.vstack(rows))
        results["exterior_file"] = "exterior.csv"
    return results


def _coupled_discretization(scenario: Scenario, n_level: int):
    """The grid and mesh of a coupled spectrum's level n: n cells per axis, 4n nodes."""
    return scenario.grid(n_level), scenario.mesh(4 * n_level)


def _spectrum_matrix(scenario: Scenario, n_level: int) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The spectrum operator at one level and the reflections of its unknowns."""
    op = scenario.config.get("spectrum", {}).get("operator", "coupled")
    grid = mesh = None
    if op == "coupled":
        grid, mesh = _coupled_discretization(scenario, n_level)
        matrix = spectral_instrument(grid, mesh, scenario.params, scenario.coeffs)
    elif op == "contrast":
        grid = scenario.grid(n_level)
        matrix = assemble_A_dense(grid, scenario.params, scenario.coeffs)
    elif op == "half-minus-K":
        mesh = scenario.mesh(n_level)
        matrix = 0.5 * np.eye(mesh.m, dtype=np.complex128) - assemble_K(mesh, scenario.params)
    else:
        raise ConfigError(f"unknown spectrum operator {op!r}")
    return matrix, reflections(grid, mesh)


def task_spectrum(scenario: Scenario, out: Path) -> dict:
    cfg = scenario.config.get("spectrum", {})
    # a level is cells per axis, or boundary nodes for half-minus-K
    least = 8 if cfg.get("operator") == "half-minus-K" else 4
    try:
        delta = float(cfg.get("delta", 0.1))
        levels = [float(lvl) for lvl in cfg.get("levels") or ()]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"spectrum.delta and spectrum.levels must be numbers: {exc}") from exc
    if not (len(levels) == 2 and all(lvl.is_integer() for lvl in levels)
            and least <= levels[0] < levels[1]):
        raise ConfigError(f"spectrum.levels must be two increasing whole resolutions, "
                          f"each at least {least}")
    levels = [int(lvl) for lvl in levels]
    if not delta > 0:
        raise ConfigError("spectrum.delta must be positive")
    # both levels are solved before anything is written
    eigs = {lvl: eigenvalues_dense(*_spectrum_matrix(scenario, lvl)) for lvl in levels}
    for lvl, (vals, res) in eigs.items():
        write_csv(out / f"eigenvalues_{lvl}.csv", scenario, ["re", "im", "residual"],
                  np.column_stack([vals.real, vals.imag, res]))
    report = detect_clusters(eigs[levels[0]][0], eigs[levels[1]][0], delta)
    results = {
        "levels": levels,
        "delta": delta,
        "clusters": [_c2pair(c) for c in report.centers],
        "counts_coarse": report.counts_coarse.tolist(),
        "counts_fine": report.counts_fine.tolist(),
        "outside_coarse": report.outside_coarse,
        "outside_fine": report.outside_fine,
        "accumulation_diameter": report.diameter,
    }
    if cfg.get("operator", "coupled") == "coupled":
        # the essential set and the verdict on the fine level's own grid and mesh
        grid, mesh = _coupled_discretization(scenario, levels[1])
        points = np.unique(essential_set(grid, mesh, scenario.coeffs))
        results["predicted_clusters"] = [_c2pair(p) for p in points]
        verdict = fredholm_verdict(grid, mesh, scenario.coeffs, [0.5])
        results["fredholm"] = {
            "condition_i": verdict.condition_i,
            "condition_ii": verdict.condition_ii,
            "strength": verdict.strength,
            "inconclusive": verdict.inconclusive,
            "holds": verdict.fredholm,
        }
        # every detected centre near the set, every set point near a clustered eigenvalue
        if not (len(report.centers) and farthest_distance(report.centers, points) <= delta
                and farthest_distance(points, report.clustered_fine) <= delta):
            raise NumericalFailure(f"detected clusters do not match the predicted essential "
                                   f"set within delta = {delta:g}", partial_results=results)
    return results


def task_sweep(scenario: Scenario, out: Path) -> dict:
    cfg = scenario.config.get("sweep", {})
    a_values = cfg.get("a_values")
    if not a_values or not isinstance(a_values, list):
        raise ConfigError("sweep.a_values must be a nonempty list")
    a_values = [_as_complex(a, "a_values entry") for a in a_values]
    if "n_per_axis" in cfg:
        raise ConfigError("sweep.n_per_axis is not read; set discretization.n_per_axis")
    # one grid and mesh for every value, so the identity-keyed caches hit
    records = condition_sweep(scenario.grid(), scenario.mesh(), scenario.params, a_values)
    rows = [[a.real, a.imag, cond] for a, cond in records]
    write_csv(out / "sweep.csv", scenario, ["a_re", "a_im", "condition"], rows)
    results = {
        "a_values": [_c2pair(a) for a, _ in records],
        "conditions": [float(c) if np.isfinite(c) else "inf" for _, c in records],
        "sweep_file": "sweep.csv",
    }
    if any(not np.isfinite(c) for _, c in records):
        raise NumericalFailure("singular system encountered during the sweep",
                               partial_results=results)
    return results


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------
def _smooth_probe(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random band-limited field, 25 plane waves exp(i pi f.x / 1.5) with
    integer frequencies |f_i| <= 2: smooth under refinement, random content."""
    out = np.zeros(len(points), dtype=np.complex128)
    d = points.shape[1]
    for _ in range(25):
        freq = rng.integers(-2, 3, size=d)
        coef = rng.standard_normal() + 1j * rng.standard_normal()
        out += coef * np.exp(1j * np.pi * (points @ freq) / 1.5)
    return out


def verify_suite(scenario: Scenario) -> dict:
    """Run the applicable identity checks and aggregate pass/fail.

    Boundary checks require a smooth 2D shape and coefficients with a
    boundary term; the pure-wavenumber (compact-operator) cluster check
    runs only in that regime. Any exception inside a check is caught
    and reported as that check's failure, except ``DenseBudgetError``,
    which fails the whole run as a configuration error.
    """
    checks = []
    tag = scenario.coeffs.tag
    smooth_2d = scenario.domain.kind in ("disc", "ellipse")

    def run(name: str, applicable: bool, tolerance, fn):
        entry = {"name": name, "applicable": bool(applicable), "passed": None,
                 "measured": None, "tolerance": tolerance, "detail": ""}
        if applicable:
            try:
                measured, passed, detail = fn()
                entry.update(measured=measured, passed=bool(passed), detail=detail)
            except DenseBudgetError:
                raise
            except Exception as exc:  # noqa: BLE001 - report, do not abort the suite
                entry.update(passed=False, detail=f"error: {exc}")
        else:
            entry["detail"] = "not applicable"
        checks.append(entry)

    rng = scenario.rng
    params = scenario.params
    domain = scenario.domain
    coeffs = scenario.coeffs

    def potential_residual():
        vals = []
        for n in (24, 48):
            grid = build_volume_grid(domain, n)
            r2 = (grid.centers ** 2).sum(axis=1) / (0.8 * 0.5 * domain.diameter / np.sqrt(2)) ** 2
            v = np.where(r2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - r2, 1e-12)), 0.0) + 0j
            pot = newton_potential(grid, params, v)
            lap, interior = discrete_laplacian(grid, pot)
            res = lap + params.k ** 2 * pot + v
            vals.append(float(np.abs(res[interior]).max() / np.abs(v).max()))
        return vals, vals[1] < vals[0], "max-norm residual at n=24, 48"

    run("potential-residual-decay", True, "monotone decrease", potential_residual)

    def fft_direct():
        grid = build_volume_grid(domain, min(scenario.n_per_axis, 32))
        u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        d1 = apply_A(grid, params, coeffs, u)
        d2 = apply_A_fft(grid, params, coeffs, u)
        scale = max(float(np.linalg.norm(d1)), 1e-30)
        rel = float(np.linalg.norm(d1 - d2)) / scale
        return rel, rel <= 1e-10, "matrix-free FFT vs direct summation"

    run("fft-direct-agreement", True, 1e-10, fft_direct)

    def dense_consistency():
        grid = build_volume_grid(domain, min(scenario.n_per_axis, 24))
        u = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        mv = assemble_A_dense(grid, params, coeffs) @ u
        mf = apply_A(grid, params, coeffs, u)
        rel = float(np.linalg.norm(mv - mf)) / max(float(np.linalg.norm(mv)), 1e-30)
        return rel, rel <= 1e-12, "assembled matrix vs matrix-free action"

    run("dense-matfree-consistency", True, 1e-12, dense_consistency)

    def smooth_form():
        vals = []
        for n in (24, 48):
            grid = build_volume_grid(domain, n)
            u = _smooth_probe(grid.centers, np.random.default_rng(scenario.seed + 1))
            d = apply_A_fft(grid, params, coeffs, u) - apply_A_smooth_form(grid, params, coeffs, u)
            vals.append(float(np.linalg.norm(d) / np.linalg.norm(u)))
        # exact coincidence (alpha == 0 makes both routes the beta term)
        ok = vals[1] < vals[0] or max(vals) <= 1e-12
        return vals, ok, "stencil vs integrated-by-parts form"

    run("smooth-form-equivalence", tag in ("globally-smooth", "laplace-case"),
        "monotone decrease (or exact)", smooth_form)

    def jump():
        mesh = build_boundary_mesh(domain, 256)
        th = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
        worst = 0.0
        for k in (0.0, params.k):
            p = WaveParameters(k, 2)
            for phi in (np.ones(mesh.m, complex), np.exp(1j * th), np.exp(3j * th)):
                worst = max(worst, jump_relation_check(mesh, p, phi))
        return worst, worst <= 1e-3, "interior trace of D vs -phi/2 + K phi"

    # boundary checks are not applicable without a boundary term
    has_boundary_term = tag != "laplace-case"
    run("jump-relation", smooth_2d and has_boundary_term, 1e-3, jump)

    def gauss_anchor():
        mesh = build_boundary_mesh(domain, 256)
        grid = build_volume_grid(domain, min(scenario.n_per_axis, 32))
        p0 = WaveParameters(0.0, 2)
        from .boundary import double_layer_potential
        inner = grid.centers[domain.boundary_distance(grid.centers) > 4 * grid.h]
        vals = double_layer_potential(mesh, p0, np.ones(mesh.m, complex), inner)
        dev = float(np.max(np.abs(np.abs(vals) - 1.0)))
        sign = float(np.sign(np.real(vals).mean()))
        k0 = assemble_K(mesh, p0)
        jump_side = float(np.real(-0.5 + (k0 @ np.ones(mesh.m))[0]))
        consistent = abs(jump_side - sign) <= 1e-8
        return dev, dev <= 1e-8 and consistent, \
            f"|D 1| deviation; interior sign {sign:+.0f} matches jump value {jump_side:+.3f}"

    run("gauss-anchor-sign", smooth_2d and has_boundary_term, 1e-8, gauss_anchor)

    def trace_equivalence():
        grid = build_volume_grid(domain, min(scenario.n_per_axis, 32))
        mesh = build_boundary_mesh(domain, scenario.boundary_nodes, scenario.grading)
        matrix = assemble_coupled(grid, mesh, params, coeffs)
        u_inc = incident_plane_wave(grid, params, np.eye(grid.dimension)[0])
        psi = trace(grid, mesh, u_inc)
        u, phi, rcond = solve_coupled(matrix, grid, u_inc, psi)
        if rcond < NEAR_SINGULAR_RCOND:
            raise NumericalFailure("coupled solve near singular")
        rel = check_equivalence(u, phi, mesh, grid) / float(np.abs(phi).max())
        return rel, rel <= 1e-8, "relative trace defect of the coupled solve"

    boundary_tags = ("piecewise-constant", "piecewise-smooth")
    a_nodes_ok = True
    if tag in boundary_tags and smooth_2d:
        probe_mesh = build_boundary_mesh(domain, 64)
        a_nodes_ok = bool(np.min(np.abs(coeffs.a(probe_mesh.nodes))) > 1e-9)
    run("trace-equivalence", tag in boundary_tags and smooth_2d and a_nodes_ok,
        1e-8, trace_equivalence)

    def compact_cluster():
        counts = {}
        for n in (24, 40):
            grid = build_volume_grid(domain, n)
            vals, _ = eigenvalues_dense(assemble_A_dense(grid, params, coeffs),
                                        reflections(grid))
            counts[n] = int(np.sum(np.abs(vals) > 0.05))
        change = abs(counts[40] - counts[24])
        return counts, change <= 2, "eigenvalues of A outside |lambda| > 0.05"

    run("compact-cluster-at-zero", tag == "laplace-case", "count change <= 2", compact_cluster)

    def sigma_map():
        for i in range(1, 21):
            sigma = Fraction(i, 21)
            a_val = sigma_to_a(sigma)
            if a_to_sigma(a_val) != sigma:
                return str(sigma), False, "round trip failed"
        ok = sigma_to_a(Fraction(1, 2)) == -1
        return 20, ok, "exact rational round trips; sigma=1/2 -> a=-1"

    run("sigma-map-involution", True, "exact", sigma_map)

    n_pass = sum(1 for c in checks if c["applicable"] and c["passed"])
    n_fail = sum(1 for c in checks if c["applicable"] and not c["passed"])
    return {"checks": checks, "passed": n_pass, "failed": n_fail,
            "not_applicable": sum(1 for c in checks if not c["applicable"])}


def task_verify(scenario: Scenario, out: Path) -> dict:
    results = verify_suite(scenario)
    if results["failed"]:
        failed = [c["name"] for c in results["checks"]
                  if c["applicable"] and not c["passed"]]
        raise NumericalFailure("verification checks failed: " + ", ".join(failed),
                               partial_results=results)
    return results


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
TASKS = {"solve": task_solve, "spectrum": task_spectrum,
         "sweep": task_sweep, "verify": task_verify}


def run_scenario(config: dict, task: str, out_dir: str,
                 seed_override: Optional[int] = None) -> int:
    """Execute one scenario; returns the process exit code."""
    try:
        scenario = Scenario(config, task, seed_override)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = TASKS[task](scenario, out)
    except (ConfigError, DenseBudgetError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        write_report(out / "report.json", scenario, "numerical-failure",
                     exc.partial_results, incomplete=True, error=str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    write_report(out / "report.json", scenario, "ok", results)
    return 0


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vie",
        description="Volume-integral-equation scattering laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("solve", "iterative scattering solve"),
                       ("spectrum", "dense spectra and cluster detection"),
                       ("verify", "identity-check suite"),
                       ("sweep", "conditioning sweep over coefficient values")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="scenario JSON (or preset:<name>)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed override")
    p = sub.add_parser("presets", help="list or export the preset registry")
    p.add_argument("--write", metavar="DIR", default=None,
                   help="write every preset as DIR/<name>.json")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    if args.command == "presets":
        if args.write:
            target = Path(args.write)
            target.mkdir(parents=True, exist_ok=True)
            for name in preset_names():
                with open(target / f"{name}.json", "w", newline="\n") as fh:
                    json.dump(get_preset(name), fh, sort_keys=True, indent=2)
                    fh.write("\n")
            print(f"wrote {len(preset_names())} presets to {target}")
        else:
            for name in preset_names():
                print(name)
        return 0

    try:
        if args.config.startswith("preset:"):
            config = get_preset(args.config.split(":", 1)[1])
        else:
            config = _load_config(args.config)
    except (ConfigError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or config.get("output_dir") or "vie-out"
    return run_scenario(config, args.command, out_dir, args.seed)


if __name__ == "__main__":
    sys.exit(main())
