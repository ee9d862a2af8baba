"""Scenario lists for the three benchmark workloads, generated from a seed.

Every scenario is a plain ``vielab`` configuration handed to
``vielab.cli.run_scenario``. The seed is passed on as ``seed_override``
and, on ``solve``, rotates the plane-wave direction; the oracles in
``gates.py`` read the direction back from the scenario.

Why these workloads (see README.md for the layer predictions):

* ``solve`` is the only workload where the FFT matvec, the kernel-table
  build, restarted GMRES and the CSV writers do the work. It mixes many
  small 2D matvecs (228 GMRES iterations at k = 20) with few large 3D
  ones (the ball, N = 33552), and keeps the sign-changing a = -0.5 solve
  that fails at maxiter today.
* ``spectrum`` builds dense kernel matrices once per grid, never reuses
  them, and runs dense eigensolves: no FFT and no GMRES. It is the
  bypass workload for solve-path changes.
* ``sweep`` uses the same assembly layers as ``spectrum`` but repeats
  them on one fixed grid, mesh and k for every coefficient value, so a
  per-(grid, mesh, k) cache shows here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from vielab.presets import get_preset

DEFAULT_SEED = 0

WORKLOADS = ("solve", "spectrum", "sweep")

#: Left branch of the breakdown sweep (a < -1) and right branch (a > -1).
SWEEP_LEFT = (-3.0, -2.0, -1.6, -1.4, -1.3, -1.2, -1.15, -1.1, -1.07, -1.05, -1.03, -1.02)
SWEEP_RIGHT = (-0.98, -0.97, -0.95, -0.9, -0.85, -0.8, -0.7, -0.6)


@dataclass(frozen=True)
class Case:
    """One scenario of a workload.

    ``direction`` is the plane-wave direction of a solve and ``oracle``
    names the gate in ``gates.py`` that checks the outputs.
    """

    label: str
    task: str
    config: dict
    oracle: str
    direction: Optional[Tuple[float, ...]] = None


def _disc_direction(seed: int) -> Tuple[float, float]:
    # a quarter turn of +x: the square grid maps every such direction onto
    # +x, so each seed does the same work and meets the same oracle error
    return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[seed % 4]


def _ball_direction(seed: int) -> Tuple[float, float, float]:
    # one of the six signed axes, by the same argument on the cube grid; it
    # also lets the recorded field fingerprint hold for every seed
    d = [0.0, 0.0, 0.0]
    d[seed % 3] = -1.0 if (seed // 3) % 2 else 1.0
    return tuple(d)


def _solve_config(shape: dict, k: float, dim: int, n: int, a: float,
                  k2_inside: Optional[float], direction) -> dict:
    coeffs = {"name": "constant-a", "a": a}
    if k2_inside is not None:
        coeffs["k2_inside"] = k2_inside
    return {
        "task": "solve",
        "geometry": shape,
        "wave": {"k": k, "dimension": dim},
        "coefficients": coeffs,
        "discretization": {"n_per_axis": n},
        "solve": {"incident": "plane-wave", "direction": list(direction),
                  "tol": 1e-8, "restart": 30, "maxiter": 400},
        "seed": DEFAULT_SEED,
    }


def _solve_cases(seed: int) -> List[Case]:
    disc = {"shape": "disc", "radius": 1.0}
    d2 = _disc_direction(seed)
    d3 = _ball_direction(seed)
    preset = get_preset("disc-a2-solve")
    preset["solve"]["direction"] = list(d2)
    return [
        Case("disc-k1-n64", "solve", preset, "transmission", d2),
        Case("disc-k10-n128", "solve", _solve_config(disc, 10.0, 2, 128, 2.0, 100.0, d2),
             "transmission", d2),
        Case("disc-k20-n192", "solve", _solve_config(disc, 20.0, 2, 192, 2.0, 400.0, d2),
             "transmission", d2),
        Case("ball-k4-n48", "solve",
             _solve_config({"shape": "ball", "radius": 1.0}, 4.0, 3, 48, 2.0, 32.0, d3),
             "ball-fingerprint", d3),
        Case("disc-neg-n48", "solve", _solve_config(disc, 1.0, 2, 48, -0.5, None, d2),
             "transmission", d2),
    ]


def _spectrum_cases() -> List[Case]:
    cases = []
    for name, oracle in (("disc-a2-spectrum", "clusters"),
                         ("disc-a3i-spectrum", "clusters"),
                         ("beta-only-spectrum", "compact"),
                         ("square-sigma-spectrum", "corner-half")):
        cases.append(Case(name, "spectrum", get_preset(name), oracle))
    return cases


def _sweep_cases() -> List[Case]:
    cfg = get_preset("breakdown-sweep")
    cfg["sweep"]["a_values"] = list(SWEEP_LEFT + SWEEP_RIGHT)
    return [Case("breakdown-sweep", "sweep", cfg, "breakdown")]


def build(workload: str, seed: int) -> List[Case]:
    """The scenarios of ``workload`` for ``seed`` (same seed, same inputs).

    Beyond the solve directions, the seed reaches vielab only as
    ``seed_override``, which ``run.py`` passes to ``run_scenario``.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workload == "solve":
        return _solve_cases(seed)
    if workload == "spectrum":
        return _spectrum_cases()
    if workload == "sweep":
        return _sweep_cases()
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
