"""Correctness gates, run on a pass's output files outside the timed region.

Each gate reads what ``run_scenario`` wrote (``report.json`` and the CSVs)
and checks it against an oracle that does not come from the route under
test:

* ``transmission``: the field (and the ``exterior.csv`` rings, when
  written) against the transmission series ``mie_reference_disc`` for
  the same plane-wave direction.
* ``ball-fingerprint``: the ball has no analytic oracle in vielab, so
  direction-invariant moments of the field are compared with the values
  recorded when the benchmark was written.
* ``clusters``: detected accumulation points against the predicted
  points ``a`` and ``(1 + a)/2`` (criterion 7).
* ``compact``: a pure wavenumber contrast accumulates only at zero
  (criterion 2).
* ``corner-half``: the square's essential set contains 1/2 and is
  widened by the corners (criterion 9).
* ``breakdown``: conditioning grows monotonically toward a = -1
  (criterion 8) on the left and blows up near it on the right; next to
  a = -1 the estimates are compared with exact condition numbers from an
  SVD, and the exact ones with the predicted 1/|1 + a| growth.

The transmission, cluster and breakdown gates also return their oracle
error, which the workload's ``oracle_err`` metric aggregates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from vielab.cli import Scenario
from vielab.coefficients import constant_a
from vielab.scattering import mie_reference_disc
from vielab.special import WaveParameters
from vielab.spectral import spectral_operator_matrix

#: Relative l2 field error allowed per transmission-checked solve. The
#: passing solves measure 0.19%, 0.87% and 1.26% on every seed; a = -0.5
#: measures 13.0% and fails to converge.
FIELD_TOL = {"disc-k1-n64": 0.02, "disc-k10-n128": 0.02, "disc-k20-n192": 0.03,
             "disc-neg-n48": 0.02}

#: Relative l2 error allowed on the exterior rings of ``disc-k1-n64``.
EXTERIOR_TOL = 0.02

#: Ball field moments (mean u as re, im; mean |u|^2; mean u (x.d) as re,
#: im; max |u|) recorded at the commit that added the benchmark, with
#: their relative tolerance, far above the GMRES tolerance of 1e-8.
BALL_FINGERPRINT = (0.06230612122949108, -0.016868019554881382, 0.6079908642887925,
                    -0.02425741113180682, 0.10255807305009632, 1.6652813697612319)
BALL_FINGERPRINT_TOL = 1e-6

CLUSTER_OUTSIDE_DRIFT = 2
CORNER_MIN_DIAMETER = 0.1
BREAKDOWN_RATIO = 10.0
BREAKDOWN_NEAR = 0.05
#: Criterion 8 checks monotone growth from a = -2 on; below, |a| itself
#: raises the condition number (cond(-3) > cond(-2)).
MONOTONE_FROM = -2.0
#: Sweep values nearest a = -1 from below, where the exact (SVD) condition
#: number is compared with the estimate and with the 1/|1 + a| growth the
#: vanishing boundary symbol (1 + a)/2 predicts.
LAW_AT = (-1.05, -1.02)
#: Relative error allowed on the power-iteration condition estimate
#: (measured: at most 1.4% over seeds 0-5).
ESTIMATE_TOL = 0.05


@dataclass
class GateResult:
    ok: bool
    oracle_err: Optional[float]
    detail: str


def read_report(out: Path) -> dict:
    with open(out / "report.json") as fh:
        return json.load(fh)


def read_csv(path: Path) -> np.ndarray:
    """Numeric rows of a vielab CSV (one comment line, one column header)."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", comments="#", skiprows=2))


def _complex(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def _rel_err(u: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(u - ref) / np.linalg.norm(ref))


def _transmission(case, out: Path, exit_code: int) -> GateResult:
    cfg = case.config
    coeffs = cfg["coefficients"]
    k = float(cfg["wave"]["k"])
    k2_in = coeffs.get("k2_inside", k * k)
    mie = mie_reference_disc(float(cfg["geometry"]["radius"]), WaveParameters(k, 2),
                             _complex(coeffs["a"]), _complex(k2_in), case.direction)
    field = read_csv(out / "field.csv")
    err = _rel_err(field[:, 2] + 1j * field[:, 3], mie.total_field(field[:, :2]))
    tol = FIELD_TOL[case.label]
    detail = f"field err {err:.4%} (tol {tol:.0%})"
    ok = exit_code == 0 and err <= tol
    if ok and cfg["solve"].get("exterior_radii"):
        ring = read_csv(out / "exterior.csv")
        ext = _rel_err(ring[:, 2] + 1j * ring[:, 3], mie.total_field(ring[:, :2]))
        detail += f"; exterior err {ext:.4%} (tol {EXTERIOR_TOL:.0%})"
        ok = ext <= EXTERIOR_TOL
    if exit_code != 0:
        detail += f"; exit {exit_code}: {read_report(out)['error']}"
    return GateResult(ok, err, detail)


def ball_moments(out: Path, direction) -> np.ndarray:
    """Direction-invariant moments of a ball field, as a real vector."""
    field = read_csv(out / "field.csv")
    x, u = field[:, :3], field[:, 3] + 1j * field[:, 4]
    m1 = np.mean(u)
    m3 = np.mean(u * (x @ np.asarray(direction)))
    return np.array([m1.real, m1.imag, np.mean(np.abs(u) ** 2), m3.real, m3.imag,
                     np.max(np.abs(u))])


def _ball(case, out: Path, exit_code: int) -> GateResult:
    if exit_code != 0:
        return GateResult(False, None, f"exit {exit_code}")
    got = ball_moments(out, case.direction)
    want = np.asarray(BALL_FINGERPRINT, dtype=float)
    dev = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    return GateResult(dev <= BALL_FINGERPRINT_TOL, None,
                      f"fingerprint deviation {dev:.2e} (tol {BALL_FINGERPRINT_TOL:.0e})")


def _clusters(case, out: Path, exit_code: int) -> GateResult:
    res = read_report(out)["results"]
    a = _complex(case.config["coefficients"]["a"])
    predicted = np.array([a, 0.5 * (1.0 + a)])
    centers = np.array([_complex(c) for c in res["clusters"]])
    reported = sorted((_complex(p) for p in res["predicted_clusters"]), key=lambda z: z.real)
    delta = res["delta"]
    if len(centers) == 0:
        return GateResult(False, None, "no clusters detected")
    dist = np.abs(predicted[:, None] - centers[None, :])
    err = float(dist.min(axis=1).max())
    covered = bool(dist.min(axis=0).max() <= delta)
    same_prediction = np.allclose(reported, sorted(predicted, key=lambda z: z.real))
    stable = abs(res["outside_fine"] - res["outside_coarse"]) <= CLUSTER_OUTSIDE_DRIFT
    ok = exit_code == 0 and err <= delta and covered and stable and same_prediction
    return GateResult(ok, err, f"cluster err {err:.2e} (delta {delta}); covered {covered}; "
                               f"outside {res['outside_coarse']} -> {res['outside_fine']}")


def _compact(case, out: Path, exit_code: int) -> GateResult:
    res = read_report(out)["results"]
    centers = [abs(_complex(c)) for c in res["clusters"]]
    at_zero = bool(centers) and max(centers) <= res["delta"]
    stable = abs(res["outside_fine"] - res["outside_coarse"]) <= CLUSTER_OUTSIDE_DRIFT
    return GateResult(exit_code == 0 and at_zero and stable, None,
                      f"centres |z| {np.round(centers, 4).tolist()}; "
                      f"outside {res['outside_coarse']} -> {res['outside_fine']}")


def _corner_half(case, out: Path, exit_code: int) -> GateResult:
    res = read_report(out)["results"]
    centers = np.array([_complex(c) for c in res["clusters"]])
    contains = bool(len(centers)) and float(np.min(np.abs(centers - 0.5))) <= res["delta"]
    diameter = res["accumulation_diameter"]
    ok = exit_code == 0 and contains and diameter >= CORNER_MIN_DIAMETER
    return GateResult(ok, None, f"contains 1/2 {contains}; diameter {diameter:.3f} "
                                f"(>= {CORNER_MIN_DIAMETER})")


def _breakdown(case, out: Path, exit_code: int) -> GateResult:
    sweep = read_csv(out / "sweep.csv")
    a_values, conds = sweep[:, 0], sweep[:, 2]
    if exit_code != 0 or not np.all(np.isfinite(conds)):
        return GateResult(False, None, f"exit {exit_code}; finite {np.isfinite(conds).all()}")
    order = np.argsort(a_values)
    left = order[a_values[order] < -1.0]
    monotone = bool(np.all(np.diff(conds[left[a_values[left] >= MONOTONE_FROM]]) > 0))
    ratio = float(conds[left[-1]] / conds[left[0]])
    right = a_values > -1.0
    near = right & (a_values + 1.0 <= BREAKDOWN_NEAR)
    far = conds[right][np.argmax(a_values[right])]
    right_ratio = float(conds[near].max() / far)
    scenario = Scenario(case.config, "sweep")
    exact = [float(np.linalg.cond(spectral_operator_matrix(
        scenario.domain, scenario.params, constant_a(scenario.domain, scenario.params.k, a),
        scenario.n_per_axis, scenario.boundary_nodes))) for a in LAW_AT]
    estimate_err = max(abs(float(conds[a_values == a][0]) - k) / k for a, k in zip(LAW_AT, exact))
    law_err = abs(exact[1] * abs(1.0 + LAW_AT[1]) / (exact[0] * abs(1.0 + LAW_AT[0])) - 1.0)
    ok = (monotone and ratio >= BREAKDOWN_RATIO and right_ratio >= BREAKDOWN_RATIO
          and estimate_err <= ESTIMATE_TOL)
    return GateResult(ok, law_err, f"left monotone {monotone}, ratio {ratio:.1f}; right ratio "
                                   f"{right_ratio:.1f} (>= {BREAKDOWN_RATIO:g}); estimates vs "
                                   f"SVD {estimate_err:.2%} (tol {ESTIMATE_TOL:.0%}); "
                                   f"1/|1+a| law err {law_err:.2%}")


GATES = {"transmission": _transmission, "ball-fingerprint": _ball, "clusters": _clusters,
         "compact": _compact, "corner-half": _corner_half, "breakdown": _breakdown}


def check(case, out: Path, exit_code: int) -> GateResult:
    """Run the case's gate on the files ``run_scenario`` wrote into ``out``."""
    if exit_code == 2:
        return GateResult(False, None, "configuration error")
    return GATES[case.oracle](case, out, exit_code)
