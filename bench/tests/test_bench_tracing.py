"""Interception check: the tracing wrappers sit at every binding and the
traced counts agree with what vielab itself reports.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402  (pins BLAS threads and the import path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from vielab import boundary, cli, coupled, scattering, special, volume  # noqa: E402
from vielab.geometry import DomainGeometry, build_volume_grid  # noqa: E402

#: Bindings by name that a wrapper on the defining module alone would miss.
BINDINGS = [
    (cli, "gmres_solve"), (cli, "identity_minus_A"), (cli, "eigenvalues_dense"),
    (cli, "assemble_K"),
    (coupled, "kernel_matrices"), (coupled, "trace_matrix"), (coupled, "double_layer_matrix"),
    (volume, "greens_value"), (volume, "greens_gradient"),
    (boundary, "greens_gradient"), (scattering, "greens_value"),
]


def _snapshot():
    return {(m.__name__, k): v for m in tracing.vielab_modules() for k, v in vars(m).items()}


def test_wrappers_installed_at_every_binding():
    before = _snapshot()
    contains = DomainGeometry.contains
    with tracing.Interceptor(tracing.Tracer()):
        for module, name in BINDINGS:
            wrapped = getattr(module, name)
            assert wrapped.bench_original is before[(module.__name__, name)], \
                f"{module.__name__}.{name} is not wrapped"
        for modname, attr, _, _ in tracing.TARGETS:
            original = before[(modname, attr)]
            left = [key for key, val in _snapshot().items() if val is original]
            assert not left, f"unwrapped bindings of {modname}.{attr}: {left}"
        assert DomainGeometry.contains is not contains
    assert DomainGeometry.contains is contains
    after = _snapshot()
    assert all(after[key] is val for key, val in before.items())


def test_kernel_points_are_exact():
    grid = build_volume_grid(DomainGeometry.disc(1.0), 10)
    tracer = tracing.Tracer()
    with tracing.Interceptor(tracer):
        volume.kernel_matrices(grid, special.WaveParameters(1.0, 2))
    # one G and one grad-G evaluation per ordered pair of cells
    assert tracer.total("special.kernel_points") == 2 * grid.n ** 2
    assert tracer.calls("volume.kernel_matrices") == 1


def _small_cases():
    disc = {"shape": "disc", "radius": 1.0}
    solve = workloads._solve_config(disc, 1.0, 2, 24, 2.0, 2.0, (0.0, 1.0))
    solve["solve"]["exterior_radii"] = [2.0]
    spectrum = {"task": "spectrum", "geometry": disc, "wave": {"k": 1.0, "dimension": 2},
                "coefficients": {"name": "constant-a", "a": 2.0},
                "discretization": {"n_per_axis": 12, "boundary_nodes": 48},
                "spectrum": {"operator": "coupled", "levels": [8, 12], "delta": 0.1}}
    sweep = {"task": "sweep", "geometry": disc, "wave": {"k": 1.0, "dimension": 2},
             "coefficients": {"name": "constant-a", "a": 2.0},
             "discretization": {"n_per_axis": 8, "boundary_nodes": 32},
             "sweep": {"a_values": [-3.0, -1.5, -1.1]}}
    return [workloads.Case("solve", "solve", solve, "transmission", (0.0, 1.0)),
            workloads.Case("spectrum", "spectrum", spectrum, "clusters"),
            workloads.Case("sweep", "sweep", sweep, "breakdown")]


def test_traced_counts_match_reports(tmp_path):
    cases = _small_cases()
    tracer = tracing.Tracer()
    with tracing.Interceptor(tracer):
        result = run.run_pass(cases, tmp_path, 3, tracer)
    assert result.exits == {"solve": 0, "spectrum": 0, "sweep": 0}
    assert run.interception_errors(tracer, cases, tmp_path) == []
    assert tracer.calls("spectral.eig", "spectrum") == 2
    assert tracer.total("coupled.assemblies", "sweep") == 3
    assert tracer.calls("scattering.extend", "solve") == 1
    # extend_solution imports greens_gradient at call time from special
    assert tracer.calls("special.kernel", "solve") > 0
    assert tracer.calls("cli.scenario") == 3


def test_interception_check_catches_a_missed_count(tmp_path):
    cases = _small_cases()[1:2]
    tracer = tracing.Tracer()
    with tracing.Interceptor(tracer):
        run.run_pass(cases, tmp_path, 0, tracer)
    tracer.spans = [s for s in tracer.spans if s.name != "spectral.eig"]
    assert run.interception_errors(tracer, cases, tmp_path)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("outer"):
            pass
    outer = tracer.spans[0]
    assert outer.self_time == pytest.approx(
        outer.duration - tracer.spans[1].duration - tracer.spans[2].duration)
    assert tracer.inclusive("outer") == outer.duration


@pytest.mark.parametrize("seed", [0, 1, 5, 6])
def test_seed_rotates_directions_and_is_reproducible(seed):
    cases = workloads.build("solve", seed)
    assert cases == workloads.build("solve", seed)
    for case in cases:
        assert list(case.direction) == case.config["solve"]["direction"]
    assert workloads.build("solve", seed)[0].direction != workloads.build("solve", seed + 1)[0].direction
