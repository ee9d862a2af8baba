"""Scenario-driven command line: solves, spectra, verification, sweeps.

Usage:
    vie solve|spectrum|verify|sweep --config scenario.json [--out DIR] [--seed N]
    vie presets [--write DIR]

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
import math
import operator
import sys
from collections import namedtuple
from fractions import Fraction
from numbers import Real
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import __version__
from .boundary import assemble_K, double_layer_potential, jump_relation_check, trace
from .coefficients import beta_only, constant_a, linear_a, smooth_bump_a
from .coupled import (NEAR_SINGULAR_RCOND, assemble_coupled, check_equivalence, coupled_blocks,
                      solve_coupled)
from .geometry import (DEFAULT_BBOX_MARGIN, DomainGeometry, build_boundary_mesh,
                       build_volume_grid, reflections)
from .presets import get_preset, preset_names
from .scattering import (extend_solution, gmres_solve, incident_plane_wave, incident_point_source,
                         plane_wave_function, point_source_function)
from .special import WaveParameters
from .spectral import (a_to_sigma, condition_sweep, detect_clusters, eigenvalues_dense,
                       essential_set, farthest_distance, fredholm_verdict, sigma_to_a,
                       spectral_instrument)
from .volume import (DenseBudgetError, apply_A, apply_A_fft, apply_A_smooth_form,
                     assemble_A_dense, discrete_laplacian, identity_minus_A, mirror_half,
                     newton_potential)


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
# Configuration schema
# ---------------------------------------------------------------------------
REQUIRED = object()

#: A scenario key: its kind (see ``_value``), its default (``REQUIRED`` if it must
#: be given, None if the scenario fills it in) and its bound, (operator, edge) pairs
#: each number of its value meets. A choice maps its options to the keys they add.
Key = namedtuple("Key", "kind default bound options", defaults=(REQUIRED, (), None))

_TESTS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
_POSITIVE = (">", 0.0)
_CONSTANT_A = {"a": Key("complex"), "k2_inside": Key("complex", None)}

#: The top-level key besides the sections, ``task`` and ``output_dir`` (read by ``main``).
SEED = Key("whole", 0, (">=", 0))

#: Every key a scenario may carry, by section. A key that one option of a
#: choice reads hangs off that option. A level is cells per axis, or boundary
#: nodes for ``half-minus-K``.
SCHEMA = {
    "wave": {"k": Key("complex"), "dimension": Key("whole", 2, (">=", 2, "<=", 3))},
    "geometry": {
        "shape": Key("choice", options={
            "disc": {"radius": Key("number", bound=_POSITIVE)},
            "ellipse": {"semi_axes": Key("pair of number", bound=_POSITIVE)},
            "polygon": {"vertices": Key("list of vector")},
            "ball": {"radius": Key("number", bound=_POSITIVE)}}),
        "margin": Key("number", DEFAULT_BBOX_MARGIN, (">=", 0.0))},
    "coefficients": {"name": Key("choice", options={
        "constant-a": _CONSTANT_A,
        "polygon-constant-a": _CONSTANT_A,
        "smooth-bump-a": {"amplitude": Key("complex"), "rho": Key("number", None, _POSITIVE)},
        "beta-only": {"amplitude": Key("complex"), "r_plateau": Key("number", 0.7, _POSITIVE),
                      "r_cut": Key("number", 0.95, _POSITIVE)},
        "linear-a": {"a0": Key("complex", 1.0), "gradient": Key("vector")}})},
    "discretization": {
        "n_per_axis": Key("whole", 32, (">=", 4)),
        "boundary_nodes": Key("whole", None, (">=", 8)),  # None: 4 n_per_axis
        "grading": Key("number", 3.0, (">=", 1.0))},
    "solve": {
        "incident": Key("choice", "plane-wave", options={
            "plane-wave": {"direction": Key("vector", None)},  # None: the first axis
            "point-source": {"source": Key("vector")}}),
        "tol": Key("number", 1e-8, (">", 0.0, "<", 1.0)),
        "restart": Key("whole", 30, (">=", 10)),
        "maxiter": Key("whole", 400, (">=", 1)),
        "exterior_radii": Key("list of number", (), _POSITIVE)},
    "spectrum": {
        "operator": Key("choice", "coupled", options={
            "coupled": {"levels": Key("pair of whole", bound=(">=", 4))},
            "contrast": {"levels": Key("pair of whole", bound=(">=", 4))},
            "half-minus-K": {"levels": Key("pair of whole", bound=(">=", 8))}}),
        "delta": Key("number", 0.1, _POSITIVE)},
    "sweep": {"a_values": Key("list of complex")},
}

COEFFICIENTS = {"constant-a": constant_a, "polygon-constant-a": constant_a,
                "smooth-bump-a": smooth_bump_a, "beta-only": beta_only, "linear-a": linear_a}

#: Coefficient tags whose alpha jumps across the boundary.
JUMP_TAGS = ("piecewise-constant", "piecewise-smooth")


def declared_keys():
    """Each ``(section, selector, name, key)`` of ``SCHEMA``, where ``selector``
    is the ``(choice, option)`` the key hangs off, or None."""
    for section, table in SCHEMA.items():
        for name, key in table.items():
            yield section, None, name, key
            for option, keys in (key.options or {}).items():
                yield from ((section, (name, option), sub, k) for sub, k in keys.items())


def _unknown(label: str, name: str) -> ConfigError:
    homes = [f"{section}.{key}" + (f" (with {section}.{sel[0]} {sel[1]})" if sel else "")
             for section, sel, key, _ in declared_keys() if key == name]
    return ConfigError(f"unknown key {label}"
                       + (f"; {name!r} is read as {' or '.join(homes)}" if homes else ""))


def _value(label: str, key: Key, value, dim: int):
    """``value`` as the type ``key.kind`` names: "number" (a finite real),
    "whole" (an integer, or a float without a fractional part), "complex" (a
    number or an [re, im] pair), "choice" (an option), "vector" (one number
    per axis), "pair of <kind>" or "list of <kind>" (one or more entries)."""
    shape, _, item = key.kind.partition(" of ")
    if shape in ("vector", "pair", "list"):
        count = {"vector": dim, "pair": 2}.get(shape)
        if not (isinstance(value, list) and (len(value) == count if count else value)):
            raise ConfigError(f"{label} must be a list of {count or 'one or more'} entries, "
                              f"got {value!r}")
        entries = [_value(f"{label}[{i}]", key._replace(kind=item or "number"), v, dim)
                   for i, v in enumerate(value)]
        return np.array(entries) if shape == "vector" else entries
    if shape == "choice" and not (isinstance(value, str) and value in key.options):
        raise ConfigError(f"{label} must be one of {', '.join(key.options)}, got {value!r}")
    if shape == "choice":
        return value
    if shape == "complex" and isinstance(value, list) and len(value) == 2:
        return complex(_value(label, key, value[0], dim), _value(label, key, value[1], dim))
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ConfigError(f"{label} must be a finite number, got {value!r}")
    if shape == "whole" and not float(value).is_integer():
        raise ConfigError(f"{label} must be a whole number, got {value!r}")
    for op, edge in zip(key.bound[::2], key.bound[1::2]):
        if not _TESTS[op](value, edge):
            raise ConfigError(f"{label} must be {op} {edge:g}, got {value!r}")
    return {"whole": int, "complex": complex}.get(shape, float)(value)


def _section(name: str, cfg, dim: int) -> dict:
    """The typed keys of section ``name`` of a scenario."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"scenario section {name!r} must be a JSON object")
    keys, values = list(SCHEMA[name].items()), {}
    for key_name, key in keys:  # a choice appends its option's keys as it goes
        if key_name in cfg:
            values[key_name] = _value(f"{name}.{key_name}", key, cfg[key_name], dim)
        elif key.default is REQUIRED:
            raise ConfigError(f"missing {name}.{key_name}")
        else:
            values[key_name] = key.default
        if key.options:
            keys.extend(key.options[values[key_name]].items())
    for key_name in cfg:
        if key_name not in values:
            raise _unknown(f"{name}.{key_name}", key_name)
    return values


class Scenario:
    """Validated scenario: geometry, wave, coefficients, discretization, and
    the typed keys of ``solve``, ``spectrum`` and ``sweep`` (None if absent)."""

    def __init__(self, config: dict, task: str, seed_override: Optional[int] = None):
        self.task = task
        try:
            self._read(config, seed_override)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc
        self.hash = config_hash(config)

    def _read(self, config: dict, seed_override: Optional[int]) -> None:
        if not isinstance(config, dict):
            raise ConfigError("scenario configuration must be a JSON object")
        if config.get("task", self.task) != self.task:
            raise ConfigError(f"config task {config['task']!r} does not match command "
                              f"{self.task!r}")
        for name in config:
            if name not in SCHEMA and name not in ("task", "seed", "output_dir"):
                raise _unknown(name, name)
        self.seed = _value("seed", SEED, config.get("seed", 0) if seed_override is None
                           else seed_override, 0)
        self.rng = np.random.default_rng(self.seed)
        # the first four sections and the task's own are read even when absent;
        # wave comes first, as a vector has one number per axis
        parsed, dim = {}, 2
        for name in SCHEMA:
            if name in config or name in ("wave", "geometry", "coefficients",
                                          "discretization", self.task):
                parsed[name] = _section(name, config.get(name, {}), dim)
                dim = parsed["wave"]["dimension"]
        self.params = WaveParameters(parsed["wave"]["k"], dim)
        geometry, coefficients = parsed["geometry"], parsed["coefficients"]
        self.domain = getattr(DomainGeometry, geometry.pop("shape"))(**geometry)
        if self.domain.dimension != dim:
            raise ConfigError("geometry dimension does not match wave dimension")
        self.coeffs = COEFFICIENTS[coefficients.pop("name")](self.domain, self.params.k,
                                                             **coefficients)
        self.n_per_axis, self.boundary_nodes, self.grading = parsed["discretization"].values()
        self.boundary_nodes = self.boundary_nodes or 4 * self.n_per_axis
        self.solve, self.spectrum, self.sweep = (
            SimpleNamespace(**parsed[name]) if name in parsed else None
            for name in ("solve", "spectrum", "sweep"))
        solve, spectrum = self.solve, self.spectrum
        if solve and solve.incident == "plane-wave":
            solve.direction = np.eye(dim)[0] if solve.direction is None else solve.direction
            if not abs(np.linalg.norm(solve.direction) - 1.0) <= 1e-12:
                raise ConfigError("solve.direction must be a unit vector")
        if solve and solve.incident == "point-source":
            x0 = solve.source[None, :]
            if (self.domain.contains(x0)[0] or self.domain.boundary_distance(x0)[0]
                    < self.domain.cell_width(self.n_per_axis)):
                raise ConfigError("solve.source must lie outside the scatterer, at least one "
                                  "cell width from it")
        if solve:  # the 16 points of each exterior ring
            th = 2 * np.pi * np.arange(16) / 16
            solve.rings = [rho * np.stack([np.cos(th), np.sin(th)], axis=1)
                           for rho in solve.exterior_radii]
            if solve.rings and (dim != 2 or self.domain.contains(np.vstack(solve.rings)).any()):
                raise ConfigError("solve.exterior_radii needs a 2D scatterer and rings outside it")
        if spectrum and spectrum.levels[0] >= spectrum.levels[1]:
            raise ConfigError("spectrum.levels must increase")
        if spectrum and spectrum.operator == "contrast" and self.coeffs.tag in JUMP_TAGS:
            raise ConfigError(f"spectrum.operator contrast is polluted for a {self.coeffs.tag} "
                              f"coefficient; use operator coupled")
        if dim != 2 and spectrum and spectrum.operator != "contrast":
            raise ConfigError(f"spectrum.operator {spectrum.operator} needs a boundary mesh, "
                              f"which only 2D shapes have")
        if dim != 2 and self.sweep:
            raise ConfigError("the sweep task needs a boundary mesh, which only 2D shapes have")

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
def write_csv(path: Path, scenario: Scenario, columns, rows) -> None:
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# vielab {__version__} config_hash={scenario.hash}\n")
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
    cfg = scenario.solve
    grid = scenario.grid()
    if cfg.incident == "plane-wave":
        u_inc = incident_plane_wave(grid, scenario.params, cfg.direction)
        incident_fn = plane_wave_function(scenario.params, cfg.direction)
    else:
        u_inc = incident_point_source(grid, scenario.params, cfg.source)
        incident_fn = point_source_function(scenario.params, cfg.source)
    # a mirror-symmetric problem is solved for the kept half of its even field
    half = mirror_half(grid, scenario.coeffs, u_inc)
    applier = identity_minus_A(grid, scenario.params, scenario.coeffs, half)
    u, info = gmres_solve(applier, u_inc[half.kept], tol=cfg.tol, restart=cfg.restart,
                          maxiter=cfg.maxiter)
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
    if cfg.rings:
        rows = []
        for targets in cfg.rings:
            vals = extend_solution(grid, scenario.params, scenario.coeffs, u,
                                   targets, incident_fn)
            rows.append(np.column_stack([targets, vals.real, vals.imag]))
        write_csv(out / "exterior.csv", scenario, ["x", "y", "re", "im"],
                  np.vstack(rows))
        results["exterior_file"] = "exterior.csv"
    return results


def _spectrum_matrix(scenario: Scenario, n_level: int) -> tuple:
    """The spectrum operator at level n, the reflections of its unknowns, and its
    grid (n cells per axis) and mesh (4n nodes, n for ``half-minus-K``) or None."""
    op, params, coeffs = scenario.spectrum.operator, scenario.params, scenario.coeffs
    grid = None if op == "half-minus-K" else scenario.grid(n_level)
    mesh = None if op == "contrast" else scenario.mesh(4 * n_level if op == "coupled" else n_level)
    matrix = (spectral_instrument(grid, mesh, params, coeffs) if op == "coupled"
              else assemble_A_dense(grid, params, coeffs) if op == "contrast"
              else 0.5 * np.eye(mesh.m, dtype=np.complex128) - assemble_K(mesh, params))
    return matrix, reflections(grid, mesh), grid, mesh


def task_spectrum(scenario: Scenario, out: Path) -> dict:
    levels, delta = scenario.spectrum.levels, scenario.spectrum.delta
    # both levels are solved before anything is written; the fine one, last,
    # keeps its grid and mesh for the essential set and the verdict
    eigs = {}
    for lvl in levels:
        matrix, symmetries, grid, mesh = _spectrum_matrix(scenario, lvl)
        eigs[lvl] = eigenvalues_dense(matrix, symmetries)
        del matrix  # freed before the next level is built
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
    if scenario.spectrum.operator == "coupled":
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
    # one grid and mesh for every value, so their coefficient-free blocks are built once
    records = condition_sweep(scenario.grid(), scenario.mesh(), scenario.params,
                              scenario.sweep.a_values)
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

    rng, params, domain, coeffs = scenario.rng, scenario.params, scenario.domain, scenario.coeffs

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
        matrix = assemble_coupled(coupled_blocks(grid, mesh, params), coeffs)
        u_inc = incident_plane_wave(grid, params, np.eye(grid.dimension)[0])
        psi = trace(grid, mesh, u_inc)
        u, phi, rcond = solve_coupled(matrix, grid, u_inc, psi)
        if rcond < NEAR_SINGULAR_RCOND:
            raise NumericalFailure("coupled solve near singular")
        rel = check_equivalence(u, phi, mesh, grid) / float(np.abs(phi).max())
        return rel, rel <= 1e-8, "relative trace defect of the coupled solve"

    run("trace-equivalence", tag in JUMP_TAGS and smooth_2d
        and np.min(np.abs(coeffs.a(build_boundary_mesh(domain, 64).nodes))) > 1e-9,
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
    out = Path(out_dir)
    made = []  # the directories this call creates, deepest first
    try:
        scenario = Scenario(config, task, seed_override)
        made = [path for path in (out, *out.parents) if not path.exists()]
        out.mkdir(parents=True, exist_ok=True)
        results = TASKS[task](scenario, out)
    except (ConfigError, DenseBudgetError) as exc:
        while made and not any(made[0].iterdir()):  # none left empty by a refusal
            made.pop(0).rmdir()
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        write_report(out / "report.json", scenario, "numerical-failure",
                     exc.partial_results, incomplete=True, error=str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    write_report(out / "report.json", scenario, "ok", results)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vie", description="Volume-integral-equation scattering laboratory")
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
            with open(args.config) as fh:
                config = json.load(fh)
        if not isinstance(config, dict) or not isinstance(config.get("output_dir", ""), str):
            raise ConfigError("a scenario is a JSON object whose output_dir is a string")
    except (OSError, ValueError, KeyError) as exc:  # a JSON syntax error is a ValueError
        print(f"configuration error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or config.get("output_dir") or "vie-out"
    return run_scenario(config, args.command, out_dir, args.seed)


if __name__ == "__main__":
    sys.exit(main())
