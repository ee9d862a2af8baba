import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vielab import cli, spectral, volume
from vielab.cli import (
    ConfigError,
    Scenario,
    _spectrum_matrix,
    config_hash,
    main,
    run_scenario,
    verify_suite,
)
from vielab.spectral import eigenvalues_dense
from vielab.presets import get_preset, preset_names


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(out_dir):
    with open(Path(out_dir) / "report.json") as fh:
        return json.load(fh)


def square_config(task, grading, **block):
    """A coupled spectrum or sweep on the square, a = 2 (k = 1)."""
    return {"task": task, "wave": {"k": 1.0, "dimension": 2},
            "geometry": {"shape": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
            "coefficients": {"name": "polygon-constant-a", "a": 2.0},
            "discretization": {"n_per_axis": 12, "boundary_nodes": 48, "grading": grading},
            task: block}


def data_rows(path):
    """The lines of a CSV output below its two header lines."""
    return Path(path).read_text().splitlines()[2:]


def scenario_reading(section, selector):
    """A valid scenario that reads ``section``, with the option of
    ``selector`` (a (choice, option) pair, or None) chosen there."""
    option = selector[1] if selector else section
    presets = {"spectrum": "disc-a2-spectrum", "coupled": "disc-a2-spectrum",
               "contrast": "beta-only-spectrum", "half-minus-K": "circle-sigma-spectrum",
               "sweep": "breakdown-sweep", "polygon": "square-sigma-spectrum",
               "polygon-constant-a": "square-sigma-spectrum",
               "smooth-bump-a": "verify-smooth-bump", "beta-only": "verify-laplace",
               "linear-a": "disc-a2-spectrum"}
    cfg = get_preset(presets.get(option, "disc-no-contrast-solve"))
    edits = {"ellipse": {"geometry": {"shape": "ellipse", "semi_axes": [1.0, 0.6]}},
             "ball": {"geometry": {"shape": "ball", "radius": 1.0},
                      "wave": {"k": 1.0, "dimension": 3},
                      "solve": {"direction": [1.0, 0.0, 0.0]}},
             "linear-a": {"coefficients": {"name": "linear-a", "gradient": [0.5, 0.0]}},
             "point-source": {"solve": {"incident": "point-source", "source": [3.0, 0.0]}}}
    cfg.update(edits.get(option, {}))
    return cfg


def malformed_values(key):
    """One value of the wrong kind for ``key``, then one per way out of its
    bound: an unknown option, a list of the wrong length, or a number past
    each edge (every entry of a list)."""
    shape = key.kind.split(" of ")[0]
    yield {"choice": 5, "whole": 4.5}.get(shape, "x")
    if shape == "choice":
        yield "nonsense"
    entries = {"vector": [0.0] * 4, "pair": [0.0], "list": []}.get(shape)
    if entries is not None:
        yield entries
    for op, edge in zip(key.bound[::2], key.bound[1::2]):
        past = {">": edge, ">=": edge - 1, "<": edge, "<=": edge + 1}[op]
        yield {"pair": [past] * 2, "list": [past]}.get(shape, past)


def label(section, name):
    return f"{section}.{name}" if section else name


MALFORMED = [pytest.param(section, selector, name, value,
                          id=label(section, name) + (f"[{selector[1]}]" if selector else "")
                          + f"={value!r}")
             for section, selector, name, key in [("", None, "seed", cli.SEED),
                                                   *cli.declared_keys()]
             for value in malformed_values(key)]


class TestConfigValidation:
    def test_negative_tolerance_exits_2_without_outputs(self, tmp_path):
        cfg = get_preset("disc-no-contrast-solve")
        cfg["solve"]["tol"] = -1.0
        out = tmp_path / "out"
        code = main(["solve", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)])
        assert code == 2
        assert not (out / "report.json").exists()

    def test_unknown_registry_name_rejected(self, tmp_path):
        cfg = get_preset("disc-no-contrast-solve")
        cfg["coefficients"] = {"name": "nonsense"}
        assert main(["solve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_task_mismatch_rejected(self, tmp_path):
        cfg = get_preset("disc-no-contrast-solve")
        assert main(["sweep", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("config", [
        dict(get_preset("disc-no-contrast-solve"), output_dir=5),
        [get_preset("disc-no-contrast-solve")],
    ], ids=["output-dir-not-a-string", "json-array"])
    def test_malformed_config_exits_2_before_writing(self, tmp_path, monkeypatch, capsys,
                                                     config):
        # without --out, main reads the output directory from the config
        path = write_config(tmp_path, config)
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--config", path]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("edit", [
        {"solve": {"direction": [float("nan"), 0.0]}},
        {"solve": {"incident": "point-source", "source": [float("nan"), 3.0]}},
        {"wave": {"k": float("nan")}},
        {"solve": {"exterior_radii": [0.5]}},
        {"geometry": {"shape": "ball"}, "wave": {"dimension": 3},
         "discretization": {"n_per_axis": 8}, "solve": {"direction": [1.0, 0.0, 0.0],
                                                       "exterior_radii": [2.0]}},
    ], ids=["direction-nan", "source-nan", "k-nan", "ring-inside-disc", "ring-on-ball"])
    def test_malformed_solve_exits_2_without_outputs(self, tmp_path, edit):
        cfg = get_preset("disc-no-contrast-solve")
        for section, values in edit.items():
            cfg[section].update(values)
        out = tmp_path / "out"
        assert run_scenario(cfg, "solve", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("preset, edit, argv", [
        ("disc-a2-solve", {}, ["--seed", "-1"]),
        ("disc-a2-spectrum", {"spectrum": {"levels": [16, 16.5]}}, []),
        ("breakdown-sweep", {"sweep": {"a_values": [["x", 0.0]]}}, []),
        ("disc-a2-solve", {"wave": 5}, []),
        ("disc-a2-solve", {"discretization": 5}, []),
        ("disc-a2-solve", {"geometry": 5}, []),
        ("disc-a2-solve", {"coefficients": 5}, []),
        ("disc-a2-solve", {"solve": 5}, []),
        ("disc-a2-spectrum", {"spectrum": 5}, []),
        ("breakdown-sweep", {"sweep": 5}, []),
        ("disc-a2-solve", {"solve": None}, []),
        ("disc-a2-solve", {"discretization": {"n_per_axis": float("inf")}}, []),
        ("disc-a2-solve", {"discretization": {"n_per_axis": 10**400}}, []),
    ], ids=["seed-option", "levels-fractional", "a-value", "wave-section",
            "discretization-section", "geometry-section", "coefficients-section",
            "solve-section", "spectrum-section", "sweep-section", "null-section",
            "n-per-axis-infinite", "n-per-axis-huge"])
    def test_malformed_value_exits_2_without_report(self, tmp_path, capsys, preset, edit, argv):
        cfg = get_preset(preset)
        for key, value in edit.items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
        out = tmp_path / "out"
        assert main([cfg["task"], "--config", write_config(tmp_path, cfg),
                     "--out", str(out)] + argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_every_declared_option_has_a_valid_scenario(self):
        # the malformed-key cases below edit these, so each fails by its edit alone
        for section, selector, _, _ in cli.declared_keys():
            cfg = scenario_reading(section, selector)
            Scenario(cfg, cfg["task"])
            if selector:
                assert cfg[section][selector[0]] == selector[1]

    @pytest.mark.parametrize("section, selector, name, value", MALFORMED)
    def test_malformed_key_exits_2_naming_it(self, tmp_path, capsys, section, selector, name,
                                             value):
        cfg = scenario_reading(section, selector)
        (cfg[section] if section else cfg)[name] = value
        out = tmp_path / "out"
        assert run_scenario(cfg, cfg["task"], str(out)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and label(section, name) in err
        assert not out.exists()

    @pytest.mark.parametrize("section, name", [
        ("solve", "tolerance"), ("discretization", "n_per_axs"), ("coefficients", "k2_insde"),
        ("", "sede"), ("solve", "source"), ("coefficients", "rho"),
    ])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, section, name):
        # source and rho are keys of another incident field and coefficient entry
        cfg = get_preset("disc-no-contrast-solve")
        (cfg[section] if section else cfg)[name] = 1.0
        out = tmp_path / "out"
        assert run_scenario(cfg, "solve", str(out)) == 2
        assert f"unknown key {label(section, name)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task, block, named", [
        ("spectrum", {"operator": "coupled", "levels": [8, 12]}, "spectrum.operator coupled"),
        ("spectrum", {"operator": "half-minus-K", "levels": [16, 32]},
         "spectrum.operator half-minus-K"),
        ("sweep", {"a_values": [-1.4]}, "sweep task"),
    ], ids=["coupled", "half-minus-K", "sweep"])
    def test_boundary_task_on_a_ball_exits_2(self, tmp_path, capsys, task, block, named):
        cfg = {"task": task, "geometry": {"shape": "ball", "radius": 1.0},
               "wave": {"k": 1.0, "dimension": 3},
               "coefficients": {"name": "constant-a", "a": 2.0},
               "discretization": {"n_per_axis": 8}, task: block}
        out = tmp_path / "out"
        assert run_scenario(cfg, task, str(out)) == 2
        assert f"{named} needs a boundary mesh" in capsys.readouterr().err
        assert not out.exists()

    def test_whole_float_integers_accepted(self, tmp_path):
        cfg = get_preset("disc-no-contrast-solve")
        cfg["discretization"].update(n_per_axis=16.0, boundary_nodes=64.0)
        cfg["wave"]["dimension"] = 2.0
        cfg["seed"] = 3.0
        cfg["solve"].update(restart=30.0, maxiter=100.0)
        scenario = Scenario(cfg, "solve")
        assert (scenario.n_per_axis, scenario.boundary_nodes, scenario.seed) == (16, 64, 3)
        assert run_scenario(cfg, "solve", str(tmp_path / "out")) == 0

    def test_scenario_rejects_bad_wave(self):
        cfg = get_preset("disc-no-contrast-solve")
        cfg["wave"]["k"] = [1.0, -2.0]  # decaying exterior wavenumber
        with pytest.raises(ConfigError):
            Scenario(cfg, "solve")


class TestDenseBudget:
    """Inputs over the dense budget exit 2 and leave the output directory empty."""

    @pytest.mark.parametrize("preset, operator, levels", [
        ("disc-a2-spectrum", "coupled", [8, 16]),
        ("beta-only-spectrum", "contrast", [8, 16]),
        ("circle-sigma-spectrum", "half-minus-K", [64, 128]),
    ])
    def test_spectrum_over_budget_at_fine_level(self, tmp_path, monkeypatch, capsys,
                                                preset, operator, levels):
        cfg = get_preset(preset)
        cfg["spectrum"].update(operator=operator, levels=levels)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 2**20)
        eigenvalues_dense(*_spectrum_matrix(Scenario(cfg, "spectrum"), levels[0])[:2])  # fits
        out = tmp_path / "out"
        assert run_scenario(cfg, "spectrum", str(out)) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["breakdown-sweep", "verify-default"])
    def test_sweep_and_verify_over_budget(self, tmp_path, monkeypatch, capsys, preset):
        cfg = get_preset(preset)
        cfg["discretization"].update(n_per_axis=16, boundary_nodes=64)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 2**20)
        out = tmp_path / "out"
        assert run_scenario(cfg, cfg["task"], str(out)) == 2
        assert "capped by the dense memory budget" in capsys.readouterr().err
        assert not out.exists()

    def test_refusal_removes_only_the_directories_it_created(self, tmp_path, monkeypatch):
        cfg = get_preset("breakdown-sweep")
        cfg["discretization"].update(n_per_axis=16, boundary_nodes=64)
        monkeypatch.setattr(volume, "DENSE_BUDGET_BYTES", 2**20)
        assert run_scenario(cfg, "sweep", str(tmp_path / "a" / "b" / "c")) == 2
        assert list(tmp_path.iterdir()) == []
        (tmp_path / "kept").mkdir()
        assert run_scenario(cfg, "sweep", str(tmp_path / "kept" / "out")) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []


class TestSolveTask:
    def test_zero_contrast_field_equals_incident(self, tmp_path):
        cfg = get_preset("disc-no-contrast-solve")
        out = tmp_path / "out"
        assert run_scenario(cfg, "solve", str(out)) == 0
        report = read_report(out)
        assert report["status"] == "ok"
        assert report["results"]["gmres"]["iterations"] == 1
        data = np.loadtxt(out / "field.csv", delimiter=",", skiprows=2)
        x, re, im = data[:, 0], data[:, 2], data[:, 3]
        assert np.abs(re + 1j * im - np.exp(1j * x)).max() < 1e-9

    def test_divergent_solve_exits_3_with_incomplete_report(self, tmp_path):
        cfg = get_preset("disc-no-contrast-solve")
        cfg["coefficients"] = {"name": "constant-a", "a": -0.5}
        cfg["solve"]["maxiter"] = 15
        out = tmp_path / "out"
        assert run_scenario(cfg, "solve", str(out)) == 3
        report = read_report(out)
        assert report["status"] == "numerical-failure"
        assert report["incomplete"] is True


def mirrored_solve_config(shape, dim, n, incident):
    return {"task": "solve", "geometry": {"shape": shape, "radius": 1.0},
            "wave": {"k": 4.0, "dimension": dim},
            "coefficients": {"name": "constant-a", "a": 3.0, "k2_inside": 20.0},
            "discretization": {"n_per_axis": n},
            "solve": dict(incident, tol=1e-10, restart=10)}


class TestMirroredSolve:
    @pytest.mark.parametrize("shape, dim, n, incident, even", [
        ("disc", 2, 32, {"direction": [0.0, 1.0]}, (0,)),
        ("ball", 3, 12, {"direction": [-1.0, 0.0, 0.0]}, (1, 2)),
        ("disc", 2, 32, {"incident": "point-source", "source": [3.0, 0.0]}, (1,)),
    ], ids=["disc", "ball", "on-axis-point-source"])
    def test_matches_full_route_and_writes_an_even_field(self, tmp_path, monkeypatch, shape,
                                                         dim, n, incident, even):
        cfg = mirrored_solve_config(shape, dim, n, incident)
        detected = []
        monkeypatch.setattr(cli, "mirror_half", lambda *args: detected.append(
            volume.mirror_half(*args)) or detected[-1])
        assert run_scenario(cfg, "solve", str(tmp_path / "half")) == 0
        assert [half.even for half in detected] == [even]
        monkeypatch.setattr(cli, "mirror_half", lambda grid, *args: volume.MirrorHalf(
            (), np.arange(grid.n), np.arange(grid.n)))
        assert run_scenario(cfg, "solve", str(tmp_path / "full")) == 0
        half, full = (read_report(tmp_path / run)["results"]["gmres"] for run in ("half", "full"))
        assert (half["iterations"], half["reason"]) == (full["iterations"], full["reason"])
        assert half["iterations"] > 10  # past the first restart: complex64 cycles too
        fields = [np.loadtxt(tmp_path / run / "field.csv", delimiter=",", skiprows=2)
                  for run in ("half", "full")]
        assert np.array_equal(fields[0][:, :dim], fields[1][:, :dim])
        u_half, u_full = (f[:, dim] + 1j * f[:, dim + 1] for f in fields)
        assert np.linalg.norm(u_half - u_full) <= 1e-10 * np.linalg.norm(u_full)
        grid = Scenario(cfg, "solve").grid()
        placed = np.zeros(grid.shape, dtype=complex)
        placed[grid.mask] = u_half
        for ax in even:
            assert np.array_equal(placed, np.flip(placed, ax))

    def test_solve_applies_the_identity_minus_A_it_builds(self, tmp_path, monkeypatch):
        # the benchmark traces the solve's matvecs by wrapping this binding
        built, solved, matvecs = [], [], []
        gmres = cli.gmres_solve

        def system(*args):
            applier = volume.identity_minus_A(*args)
            built.append(lambda u: matvecs.append(1) or applier(u))
            return built[-1]

        def solver(applier, *args, **kwargs):
            solved.append(applier)
            return gmres(applier, *args, **kwargs)

        monkeypatch.setattr(cli, "identity_minus_A", system)
        monkeypatch.setattr(cli, "gmres_solve", solver)
        cfg = mirrored_solve_config("disc", 2, 16, {"direction": [1.0, 0.0]})
        assert run_scenario(cfg, "solve", str(tmp_path / "out")) == 0
        assert len(built) == len(solved) == 1 and solved[0] is built[0]
        assert len(matvecs) >= read_report(tmp_path / "out")["results"]["gmres"]["iterations"]


class TestSpectrumTask:
    def test_contrast_operator_clusters_at_zero(self, tmp_path):
        cfg = get_preset("beta-only-spectrum")
        cfg["spectrum"]["levels"] = [16, 24]
        out = tmp_path / "out"
        assert run_scenario(cfg, "spectrum", str(out)) == 0
        report = read_report(out)
        centers = report["results"]["clusters"]
        assert len(centers) == 1
        assert abs(complex(*centers[0])) < 0.05
        eig_file = out / "eigenvalues_16.csv"
        header = eig_file.read_text().splitlines()
        assert header[0].startswith("# vielab")
        assert header[1] == "re,im,residual"

    @pytest.mark.parametrize("coefficients", [
        {"name": "constant-a", "a": 2.0},
        {"name": "linear-a", "a0": 3.0, "gradient": [0.5, 0.0]},
    ], ids=["piecewise-constant", "piecewise-smooth"])
    def test_contrast_refuses_a_jump_coefficient(self, tmp_path, capsys, coefficients):
        cfg = get_preset("disc-a2-spectrum")
        cfg["coefficients"] = coefficients
        cfg["spectrum"].update(operator="contrast", levels=[12, 16])
        out = tmp_path / "out"
        assert run_scenario(cfg, "spectrum", str(out)) == 2
        assert "use operator coupled" in capsys.readouterr().err
        assert not out.exists()

    def test_levels_validated(self, tmp_path):
        cfg = get_preset("disc-a2-spectrum")
        cfg["spectrum"]["levels"] = [40]
        assert run_scenario(cfg, "spectrum", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("miss", ["shifted", "dropped", "extended"])
    @pytest.mark.parametrize("coefficients, levels", [
        ({"name": "constant-a", "a": 2.0}, [8, 12]),
        ({"name": "linear-a", "a0": 3.0, "gradient": [0.5, 0.0]}, [12, 16]),
    ], ids=["constant", "linear"])
    def test_prediction_mismatch_exits_3_with_report(self, tmp_path, monkeypatch, miss,
                                                     coefficients, levels):
        # shifted by 2 delta, set points have no clustered eigenvalue; dropped to the
        # cell samples, the clusters near (1 + a)/2 have no set point; extended by a
        # far point, every cluster still has a set point but that point no eigenvalue
        cfg = get_preset("disc-a2-spectrum")
        cfg["coefficients"] = coefficients
        cfg["spectrum"]["levels"] = levels
        delta = cfg["spectrum"]["delta"]
        sample = cli.essential_set
        wrong = {"shifted": lambda grid, mesh, cf: sample(grid, mesh, cf) + 2 * delta,
                 "dropped": lambda grid, mesh, cf: sample(grid, mesh, cf)[:grid.n],
                 "extended": lambda grid, mesh, cf: np.append(sample(grid, mesh, cf), 10.0)}[miss]
        monkeypatch.setattr(cli, "essential_set", wrong)
        out = tmp_path / "out"
        assert run_scenario(cfg, "spectrum", str(out)) == 3
        report = read_report(out)
        assert report["status"] == "numerical-failure" and report["incomplete"]
        assert "predicted" in report["error"]
        assert len(report["results"]["clusters"]) >= 2
        assert report["results"]["fredholm"]["holds"]
        # the report holds the distinct points of the set that was checked
        scenario = Scenario(cfg, "spectrum")
        checked = np.unique(wrong(scenario.grid(levels[1]), scenario.mesh(4 * levels[1]),
                                  scenario.coeffs))
        assert report["results"]["predicted_clusters"] == [[z.real, z.imag] for z in checked]

    def test_under_resolved_levels_exit_3(self, tmp_path):
        # k = 5 at levels 16/24 (kh about 0.7) finds a third cluster at 1.66, 0.16
        # from the set {1.5, 2}: an honest failure, which levels 24/40 do not show
        cfg = get_preset("disc-a2-spectrum")
        cfg["wave"]["k"] = 5.0
        cfg["spectrum"]["levels"] = [16, 24]
        out = tmp_path / "out"
        assert run_scenario(cfg, "spectrum", str(out)) == 3
        res = read_report(out)["results"]
        assert res["predicted_clusters"] == [[1.5, 0.0], [2.0, 0.0]]
        assert len(res["clusters"]) == 3 and res["fredholm"]["holds"]

    @pytest.mark.parametrize("a0, gradient, a_range", [
        (3.0, 0.5, (2.5, 3.5)),
        ([3.0, 1.0], 0.5, (2.5 + 1j, 3.5 + 1j)),
        (-2.0, 0.5, (-2.5, -1.5)),
        (2.0, 0.8, (1.2, 2.8)),
    ], ids=["3+0.5x", "3+i+0.5x", "-2+0.5x", "2+0.8x"])
    def test_linear_coefficient_checks_its_essential_set(self, tmp_path, a0, gradient, a_range):
        # a = a0 + g x1 on the unit disc, levels 16/24: the set is the segment
        # I = a(disc) and J = (1 + I)/2. Measured: every cluster centre within
        # 0.033 of the set and every set point within 0.019 of a clustered
        # eigenvalue (the task's own bound is delta = 0.1)
        cfg = get_preset("disc-a2-spectrum")
        cfg["coefficients"] = {"name": "linear-a", "a0": a0, "gradient": [gradient, 0.0]}
        cfg["spectrum"]["levels"] = [16, 24]
        out = tmp_path / "out"
        assert run_scenario(cfg, "spectrum", str(out)) == 0
        res = read_report(out)["results"]
        assert res["fredholm"]["strength"] == "sufficient-only" and res["fredholm"]["holds"]
        points = np.array([complex(*p) for p in res["predicted_clusters"]])
        lo, hi = (complex(z) for z in a_range)
        # on I or on J, and reaching both ends of J (mesh nodes at x1 = -1, 1)
        on_i = np.abs(points.imag - lo.imag) + np.maximum(0, lo.real - points.real) \
            + np.maximum(0, points.real - hi.real)
        j_lo, j_hi = (1 + lo) / 2, (1 + hi) / 2
        on_j = np.abs(points.imag - j_lo.imag) + np.maximum(0, j_lo.real - points.real) \
            + np.maximum(0, points.real - j_hi.real)
        assert np.all(np.minimum(on_i, on_j) <= 1e-14)
        assert np.any(np.abs(points - j_lo) <= 1e-14) and np.any(np.abs(points - j_hi) <= 1e-14)
        eigs = {n: np.loadtxt(out / f"eigenvalues_{n}.csv", delimiter=",", skiprows=2)
                for n in (16, 24)}
        rep = spectral.detect_clusters(*(e[:, 0] + 1j * e[:, 1] for e in eigs.values()), 0.1)
        assert spectral.farthest_distance(rep.centers, points) <= 0.05
        assert spectral.farthest_distance(points, rep.clustered_fine) <= 0.03


class TestSweepTask:
    def test_breakdown_sweep_outputs(self, tmp_path):
        cfg = get_preset("breakdown-sweep")
        cfg["sweep"]["a_values"] = [-1.4, -1.05]
        cfg["discretization"]["n_per_axis"] = 16
        cfg["discretization"]["boundary_nodes"] = 64
        out = tmp_path / "out"
        assert run_scenario(cfg, "sweep", str(out)) == 0
        report = read_report(out)
        conds = report["results"]["conditions"]
        assert conds[1] > conds[0]
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=2)
        assert rows.shape == (2, 3)

    def test_removed_n_per_axis_key_exits_2_without_outputs(self, tmp_path, capsys):
        cfg = get_preset("breakdown-sweep")
        cfg["sweep"]["n_per_axis"] = 16
        out = tmp_path / "out"
        assert run_scenario(cfg, "sweep", str(out)) == 2
        assert "discretization.n_per_axis" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_runs_on_the_scenario_discretization(self, tmp_path, monkeypatch):
        cfg = square_config("sweep", 1.0, a_values=[-1.4, -0.6])
        cfg["discretization"]["boundary_nodes"] = 40
        seen = []
        assemble = spectral.assemble_coupled

        def recorded(blocks, coeffs):
            seen.append(blocks)
            return assemble(blocks, coeffs)

        monkeypatch.setattr(spectral, "assemble_coupled", recorded)
        assert run_scenario(cfg, "sweep", str(tmp_path / "out")) == 0
        blocks, again = seen
        assert again is blocks
        grid, mesh = blocks.grid, blocks.mesh
        scenario = Scenario(cfg, "sweep")
        assert np.array_equal(grid.centers, scenario.grid().centers)
        assert mesh.m == 40 and np.array_equal(mesh.nodes, scenario.mesh().nodes)


@pytest.mark.parametrize("task, block, output", [
    ("spectrum", {"operator": "coupled", "levels": [12, 16], "delta": 0.1}, "eigenvalues_16.csv"),
    ("sweep", {"a_values": [-1.4, -0.6]}, "sweep.csv"),
], ids=["spectrum", "sweep"])
def test_square_outputs_follow_grading(tmp_path, task, block, output):
    rows = []
    for grading in (1.0, 3.0):
        out = tmp_path / str(grading)
        assert run_scenario(square_config(task, grading, **block), task, str(out)) == 0
        rows.append(data_rows(out / output))
    assert rows[0] != rows[1]


class TestVerifyTask:
    def test_default_suite_passes(self, tmp_path):
        cfg = get_preset("verify-default")
        cfg["discretization"]["n_per_axis"] = 24
        cfg["discretization"]["boundary_nodes"] = 96
        out = tmp_path / "out"
        assert run_scenario(cfg, "verify", str(out)) == 0
        report = read_report(out)
        assert report["results"]["failed"] == 0
        names = {c["name"] for c in report["results"]["checks"]}
        assert {"potential-residual-decay", "jump-relation", "trace-equivalence",
                "smooth-form-equivalence", "sigma-map-involution"} <= names

    def test_laplace_registry_skips_boundary_checks(self):
        cfg = get_preset("verify-laplace")
        cfg["discretization"]["n_per_axis"] = 24
        scenario = Scenario(cfg, "verify")
        results = verify_suite(scenario)
        by_name = {c["name"]: c for c in results["checks"]}
        assert by_name["compact-cluster-at-zero"]["applicable"]
        assert not by_name["jump-relation"]["applicable"]
        assert by_name["jump-relation"]["detail"] == "not applicable"
        assert not by_name["trace-equivalence"]["applicable"]


    def test_ball_suite_runs_without_boundary_checks(self, tmp_path):
        cfg = {"task": "verify", "geometry": {"shape": "ball", "radius": 1.0},
               "wave": {"k": 1.0, "dimension": 3},
               "coefficients": {"name": "constant-a", "a": 2.0},
               "discretization": {"n_per_axis": 8}}
        out = tmp_path / "out"
        assert run_scenario(cfg, "verify", str(out)) == 0
        by_name = {c["name"]: c for c in read_report(out)["results"]["checks"]}
        for name in ("jump-relation", "gauss-anchor-sign", "trace-equivalence"):
            assert by_name[name]["detail"] == "not applicable"
        assert by_name["fft-direct-agreement"]["passed"]


class TestDeterminism:
    def test_identical_config_and_seed_byte_identical_outputs(self, tmp_path):
        cfg = get_preset("breakdown-sweep")
        cfg["sweep"]["a_values"] = [-1.4, -1.05]
        cfg["discretization"]["n_per_axis"] = 16
        cfg["discretization"]["boundary_nodes"] = 64
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_scenario(cfg, "sweep", str(out), seed_override=42) == 0
            outs.append((out / "sweep.csv").read_bytes()
                        + (out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("preset, levels", [
        ("disc-a2-spectrum", [12, 16]),
        ("beta-only-spectrum", [12, 16]),
        ("square-sigma-spectrum", [64, 128]),
    ])
    def test_identical_spectrum_config_and_seed_byte_identical_outputs(self, tmp_path,
                                                                       preset, levels):
        cfg = get_preset(preset)
        cfg["spectrum"]["levels"] = levels
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_scenario(cfg, "spectrum", str(out), seed_override=42) == 0
            outs.append([(out / name).read_bytes() for name in
                         [f"eigenvalues_{lvl}.csv" for lvl in levels] + ["report.json"]])
        assert outs[0] == outs[1]

    def test_identical_solve_config_and_seed_byte_identical_outputs(self, tmp_path):
        cfg = get_preset("disc-a2-solve")
        cfg["discretization"]["n_per_axis"] = 24
        cfg["solve"]["exterior_radii"] = [1.5, 3.0]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_scenario(cfg, "solve", str(out), seed_override=42) == 0
            outs.append([(out / name).read_bytes()
                         for name in ("field.csv", "exterior.csv", "report.json")])
        assert outs[0] == outs[1]

    def test_hash_ignores_output_dir(self):
        cfg = get_preset("verify-default")
        h1 = config_hash(cfg)
        cfg2 = dict(cfg, output_dir="/somewhere/else")
        assert config_hash(cfg2) == h1
        cfg3 = dict(cfg, seed=99)
        assert config_hash(cfg3) != h1


class TestPresets:
    def test_all_presets_build_scenarios(self):
        for name in preset_names():
            cfg = get_preset(name)
            scenario = Scenario(cfg, cfg["task"])
            assert scenario.hash

    @pytest.mark.parametrize("preset", ["disc-a2-spectrum", "beta-only-spectrum",
                                        "breakdown-sweep"])
    def test_dense_presets_build_no_kernel_matrix(self, tmp_path, preset):
        # their dense operators gather the kernels straight into the matrices
        volume.kernel_matrices.cache_clear()
        cfg = get_preset(preset)
        assert run_scenario(cfg, cfg["task"], str(tmp_path / "out")) == 0
        assert volume.kernel_matrices.cache_info().currsize == 0

    def test_presets_subcommand_writes_files(self, tmp_path):
        assert main(["presets", "--write", str(tmp_path / "p")]) == 0
        written = list((tmp_path / "p").glob("*.json"))
        assert len(written) == len(preset_names())


IMPORT_PROBE = """
import sys
import vielab, vielab.cli
from vielab.presets import get_preset, preset_names

for name in preset_names():
    cfg = get_preset(name)
    vielab.cli.Scenario(cfg, cfg["task"])
bad = get_preset("disc-a2-solve")
bad["solve"]["tol"] = 2.0
assert vielab.cli.run_scenario(bad, "solve", sys.argv[1]) == 2
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
cfg = get_preset("disc-a2-solve")
cfg["discretization"]["n_per_axis"] = 16
assert vielab.cli.run_scenario(cfg, "solve", sys.argv[1]) == 0
print(sorted(m for m in ("scipy.linalg", "scipy.spatial") if m in sys.modules))
"""


class TestImports:
    def test_validation_loads_no_scipy_and_solve_no_linalg_or_spatial(self, tmp_path):
        src = str(Path(volume.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "out")],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        after_validation, after_solve = proc.stdout.splitlines()
        assert after_validation == "[]"
        assert after_solve == "[]"
