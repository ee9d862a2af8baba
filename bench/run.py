"""vielab benchmark: ``solve``, ``spectrum`` and ``sweep`` through run_scenario.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve --seed 0 --seconds 30 --trace 0

One process is one closed-loop client: it runs the workload's scenarios
one after another through ``vielab.cli.run_scenario`` (a pass), writing
into a temporary directory inside the checkout, and repeats passes while
their summed time stays within ``--seconds``, with at least two. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; earlier lines record the
environment, every pass and every gate.

``--trace 0`` reports the end-to-end metrics (README.md defines them).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones; it also checks that the traced
counts agree with what vielab reports.

Times are scaled to the core's full speed by ``speed.SpeedSampler``, and
``wall_s`` sums each scenario's median time over the passes.

Outside the timed region every scenario is checked against its oracle
(``gates.py``), and the SHA-256 of every ``report.json`` and CSV must be
the same in every pass; a mismatch counts as a failure.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

#: BLAS threads, pinned before numpy is imported (vielab imports it). One
#: thread held the spread of the spectrum pass better than two on a
#: shared 2-core machine.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, NPROC))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

#: Least number of fresh interpreters timed for ``setup_s``. One runs
#: before the passes and one after each pass, so the samples spread over
#: the run rather than over one stretch of machine speed.
SETUP_SAMPLES = 5

#: Runs in a fresh interpreter: import vielab and validate the scenarios.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import vielab.cli, workloads
seed = int(sys.argv[2])
for case in workloads.build(sys.argv[1], seed):
    vielab.cli.Scenario(case.config, case.task, seed)
print(time.perf_counter() - t0)
"""


def setup_probe(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import vielab and validate."""
    paths = [str(SRC), str(HERE)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def import_vielab() -> None:
    """Import vielab from this checkout's ``src``, never from elsewhere."""
    import vielab
    if Path(vielab.__file__).resolve().parent != SRC / "vielab":
        raise RuntimeError(f"vielab imported from {vielab.__file__}, not from {SRC}")


@dataclass
class PassResult:
    traced: bool
    seconds: dict                    # label -> run_scenario seconds at full core speed
    timed: dict                      # label -> run_scenario seconds as timed
    exits: dict                      # label -> exit code (-1: exception)
    digests: dict                    # label -> {file: sha256}
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


def typical_pass(passes) -> float:
    """Seconds of one pass: each scenario's median over ``passes``, summed.

    A median per scenario draws on every pass, so it is steadier than the
    median of whole-pass times when the machine's speed changes within a
    pass (raw times: 4-6% spread across five seeds against 12-17%)."""
    return sum(statistics.median(p.seconds[label] for p in passes) for label in passes[0].seconds)


def digest_outputs(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".csv", ".json")}


def run_pass(cases, out: Path, seed: int, tracer=None, speed=None) -> PassResult:
    """Every case once through ``run_scenario``, each timed alone and, with
    a ``SpeedSampler``, scaled to the core's full speed."""
    import vielab.cli
    exits, seconds, timed = {}, {}, {}
    for case in cases:
        if tracer is not None:
            tracer.scenario = case.label
        start = time.monotonic()
        try:
            exits[case.label] = vielab.cli.run_scenario(case.config, case.task,
                                                        str(out / case.label), seed)
        except Exception:  # noqa: BLE001 - a crash is that scenario's failure
            traceback.print_exc()
            exits[case.label] = -1
        end = time.monotonic()
        timed[case.label] = end - start
        seconds[case.label] = speed.scaled(end - start, start, end) if speed else end - start
    digests = {c.label: digest_outputs(out / c.label) if (out / c.label).is_dir() else {}
               for c in cases}
    return PassResult(tracer is not None, seconds, timed, exits, digests)


# ---------------------------------------------------------------------------
# Per-layer metrics and the interception check
# ---------------------------------------------------------------------------
def layer_metrics(tracer, matvec_labels, kernel_builds, table_builds, caches) -> dict:
    t = tracer
    out = {
        "volume.matvecs": t.calls("volume.matvec"),
        "volume.fft_tables_s": t.inclusive("volume.fft_tables"),
        "volume.fft_tables_builds": table_builds,
        "volume.kernel_matrices_s": t.inclusive("volume.kernel_matrices"),
        "volume.kernel_matrices_builds": kernel_builds,
        "volume.dense_assembly_s": t.self_time("volume.dense_assembly"),
        "special.kernel_points": t.total("special.kernel_points"),
        "special.kernel_s": t.inclusive("special.kernel"),
        "geometry.contains_calls": t.total("geometry.contains_calls"),
        "geometry.build_s": t.inclusive("geometry.build"),
        "boundary.trace_s": t.inclusive("boundary.trace"),
        "boundary.double_layer_s": t.inclusive("boundary.double_layer"),
        "boundary.K_s": t.inclusive("boundary.K"),
        "coupled.assemblies": t.total("coupled.assemblies"),
        "coupled.assemble_s": t.self_time("coupled.assemble"),
        "spectral.eig_s": t.inclusive("spectral.eig"),
        "spectral.eig_dim_max": t.maxima["spectral.eig_dim_max"],
        "spectral.condition_s": t.inclusive("spectral.condition"),
        "scattering.gmres_iters": t.total("scattering.gmres_iters"),
        "scattering.gmres_s": t.self_time("scattering.gmres"),
        "scattering.extend_s": t.inclusive("scattering.extend"),
        "cli.write_s": t.inclusive("cli.write"),
        "cli.scenario_s": t.inclusive("cli.scenario"),
        "cache.hits": caches["hits"],
        "cache.misses": caches["misses"],
    }
    for label in matvec_labels:
        calls = t.calls("volume.matvec", label)
        out[f"volume.matvec_s.{label}"] = t.self_time("volume.matvec", label) / calls if calls else 0.0
    return out


def traced_pass(cases, out: Path, seed: int, speed):
    """A pass with the tracing wrappers installed: its result, with the
    per-layer metrics, and the interception check's errors."""
    import tracing
    import vielab.volume as volume
    import workloads

    tracer = tracing.Tracer()
    caches0 = tracing.cache_totals()
    kernel0 = tracing.cache_misses(volume.kernel_matrices)
    tables0 = tracing.cache_misses(volume.fft_kernel_tables)
    with tracing.Interceptor(tracer):
        result = run_pass(cases, out, seed, tracer, speed)
    caches1 = tracing.cache_totals()
    result.layers = layer_metrics(
        tracer, [c.label for c in workloads.build("solve", seed)],
        tracing.cache_misses(volume.kernel_matrices) - kernel0,
        tracing.cache_misses(volume.fft_kernel_tables) - tables0,
        {k: caches1[k] - caches0[k] for k in caches0})
    for name, row in tracer.summary().items():
        print(f"span {name}: {json.dumps(row)}")
    return result, interception_errors(tracer, cases, out)


def interception_errors(tracer, cases, out: Path) -> list:
    """Traced counts that disagree with what vielab itself reports."""
    errors = []
    for case in cases:
        report = out / case.label / "report.json"
        if not report.exists():
            errors.append(f"{case.label}: no report.json to check against")
            continue
        res = json.loads(report.read_text())["results"]
        if case.task == "solve":
            want, got = res["gmres"]["iterations"], tracer.total("scattering.gmres_iters", case.label)
            if got != want or tracer.calls("volume.matvec", case.label) < want:
                errors.append(f"{case.label}: traced {got} GMRES iterations, report {want}")
        elif case.task == "spectrum":
            got = tracer.calls("spectral.eig", case.label)
            if got != len(res["levels"]):
                errors.append(f"{case.label}: traced {got} eigensolves, levels {res['levels']}")
        elif case.task == "sweep":
            got = tracer.total("coupled.assemblies", case.label)
            if got != len(res["a_values"]):
                errors.append(f"{case.label}: traced {got} coupled assemblies for "
                              f"{len(res['a_values'])} sweep values")
    return errors


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------
def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "vielab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "pinned_core": max(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "spectrum", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # on SIGTERM unwind normally: the temporary outputs are removed and a
    # running setup probe is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import_vielab()
    import gates
    import workloads
    from speed import SpeedSampler

    cases = workloads.build(args.workload, args.seed)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    passes = []
    trace_errors = []
    setup = []
    try:
        with SpeedSampler(tmp) as speed:
            def probe_setup():
                start = time.monotonic()
                seconds = setup_probe(args.workload, args.seed)
                setup.append(speed.scaled(seconds, start, time.monotonic()))

            if not args.trace:
                probe_setup()
            while True:
                out = tmp / f"pass{len(passes)}"
                if args.trace and len(passes) % 2 == 1:
                    result, errors = traced_pass(cases, out, args.seed, speed)
                    trace_errors += errors
                else:
                    result = run_pass(cases, out, args.seed, speed=speed)
                passes.append(result)
                timed = sum(result.timed.values())
                print(f"pass {len(passes) - 1} ({'traced' if result.traced else 'untraced'}): "
                      f"{result.wall:.3f} s at full core speed ({timed:.3f} s timed), "
                      f"exits {json.dumps(result.exits)}", flush=True)
                if not args.trace:
                    probe_setup()
                if len(passes) >= 2 and sum(sum(p.timed.values()) for p in passes) + timed > args.seconds:
                    break
            while not args.trace and len(setup) < SETUP_SAMPLES:
                probe_setup()

        # correctness, outside the timed region
        verdicts = {}
        for case in cases:
            try:
                verdicts[case.label] = gates.check(case, tmp / "pass0" / case.label,
                                                   passes[0].exits[case.label])
            except Exception as exc:  # noqa: BLE001 - a broken output fails its gate
                traceback.print_exc()
                verdicts[case.label] = gates.GateResult(False, None, f"gate error: {exc}")
            print(f"gate {case.label}: exit {passes[0].exits[case.label]}, "
                  f"{'ok' if verdicts[case.label].ok else 'FAILED'}: {verdicts[case.label].detail}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    attempted = failed = 0
    correct = not trace_errors
    for i, result in enumerate(passes):
        for case in cases:
            attempted += 1
            same = result.digests[case.label] == passes[0].digests[case.label]
            if not same:
                print(f"digest mismatch: {case.label} in pass {i} differs from pass 0")
                correct = False
            verdict = verdicts[case.label]
            if result.exits[case.label] == 0 and not verdict.ok:
                correct = False  # an answer returned without a failure report
            if result.exits[case.label] != 0 or not verdict.ok or not same:
                failed += 1
    for err in trace_errors:
        print(f"interception check: {err}")
    print(json.dumps({"environment": environment(args.seed)}))

    untraced = [p for p in passes if not p.traced]
    if args.trace:
        traced = [p for p in passes if p.traced]
        layers = {name: statistics.median(p.layers[name] for p in traced)
                  for name in traced[0].layers}
        layers["trace_overhead_frac"] = typical_pass(traced) / typical_pass(untraced) - 1.0
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    else:
        errs = [v.oracle_err for v in verdicts.values() if v.oracle_err is not None]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": typical_pass(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            # 1.0 when no gate produced an oracle error (every one broke)
            "oracle_err": {"value": max(errs, default=1.0), "unit": "ratio"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or ".matvec_s." in name:
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


if __name__ == "__main__":
    sys.exit(main())
