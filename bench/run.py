"""Benchmark entry point: run one workload for a while, check its outputs, print its metrics.

    python3 bench/run.py --workload matrix-pipe --seed 1 --seconds 45 --trace 0

Run from the repository root.  The workload is set up several times
(each set-up: a fresh interpreter importing the program, then building
the workload's inputs in this process), then repeated in whole rounds
until ``--seconds`` is spent.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the first round runs untraced and the rest traced, and the
metrics are the per-layer ones (see README.md in this directory).
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
from statistics import median, quantiles
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("gp-esp", "matrix-pipe", "analysis")
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # the second round is compared byte for byte with the first
# Reported times are scaled to a machine on which reference.reference_seconds()
# takes this long per thread.  On the 2-core machine that the README's figures
# come from, it read about 20 to 33 ms, drifting with its other tenants' load.
REFERENCE_S = 0.025
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_seconds():
    """Import time of the program in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(BENCH / "import_probe.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def machine_stamp():
    import numpy
    import scipy

    pools = {}
    for package in (numpy, scipy):
        pkg_dir = Path(package.__file__).parent
        for lib_path in sorted((pkg_dir.parent / f"{pkg_dir.name}.libs").glob("*openblas*")):
            lib = ctypes.CDLL(str(lib_path))
            for name in _BLAS_GETTERS:
                if hasattr(lib, name):
                    getter = getattr(lib, name)
                    getter.restype, getter.argtypes = ctypes.c_int, []
                    pools[lib_path.name] = getter()
                    break
    return {"nproc": len(os.sched_getaffinity(0)), "openblas_threads": pools,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run(args):
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    import checks
    import reference
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}: {workload.describe()}")
    print("machine:", json.dumps(machine_stamp(), sort_keys=True))

    timer = tracing.IterationTimer()
    timer.install()
    tracer = tracing.Tracer() if args.trace else None
    errors = []
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_out"))
    try:
        setups, setup_layers = [], []
        setup_refs = [reference.reference_seconds()]
        for i in range(SETUP_REPEATS):
            if tracer:
                tracing.instrument(tracer)
            tick = time.perf_counter()
            workload.build(work / f"setup{i}")
            setups.append(imports[i] + time.perf_counter() - tick)
            if tracer:
                tracer.restore()
                setup_layers.append(tracing.layer_metrics(tracer.take()))
            if i:
                shutil.rmtree(work / f"setup{i - 1}", ignore_errors=True)

        setup_refs.append(reference.reference_seconds())

        rounds, walls, cpus, round_layers, iterations = [], [], [], [], []
        refs = [reference.reference_seconds(workload.threads)]
        start = time.perf_counter()
        while True:
            i = len(rounds)
            traced = tracer is not None and i > 0
            if traced:
                tracing.instrument(tracer)
            out = work / f"round{i}"
            before = len(timer.samples_s)
            tick, cpu_tick = time.perf_counter(), time.process_time()
            rounds.append(workload.run_round(out))
            walls.append(time.perf_counter() - tick)
            cpus.append(time.process_time() - cpu_tick)
            iterations.append(timer.samples_s[before:])
            refs.append(reference.reference_seconds(workload.threads))
            if traced:
                tracer.restore()
                round_layers.append(tracing.layer_metrics(tracer.take()))
            try:
                workload.check(out, work / "round0" if i else None)
            except Exception as err:  # a failed check is reported, and the run goes on
                errors.append(f"round {i}: {err}")
                if not isinstance(err, checks.CheckError):
                    traceback.print_exc(file=sys.stderr)
            if i:
                shutil.rmtree(out, ignore_errors=True)
            if len(rounds) >= MIN_ROUNDS and (
                    time.perf_counter() - start + median(walls) > args.seconds):
                break
    finally:
        timer.restore()
        if tracer:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"rounds: {len(rounds)} of {rounds[0].attempted} operations; "
          f"round wall times (s): {', '.join(f'{w:.3f}' for w in walls)}")
    if tracer:
        metrics = layer_report(tracing, setup_layers, round_layers, errors)
        overhead = median(walls[1:]) - walls[0]
        print(f"tracing overhead: {overhead:.4f} s per round "
              f"(traced median {median(walls[1:]):.4f} s, untraced {walls[0]:.4f} s)")
        busy = metrics["harness.run_single_s"]["value"]
        if busy:
            print(f"run_single busy time / traced round wall time: {busy:.3f} s / "
                  f"{median(walls[1:]):.3f} s = {busy / median(walls[1:]):.3f}")
    else:
        # A round is scaled by the reference timed just before and just after it.
        scales = [2.0 * REFERENCE_S * workload.threads / (a + b) for a, b in zip(refs, refs[1:])]
        metrics = end_to_end_report(setups, 2.0 * REFERENCE_S / sum(setup_refs), walls, cpus,
                                    scales, iterations, rounds)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end_report(setups, setup_scale, walls, cpus, scales, iterations, rounds):
    """Medians over set-ups and rounds, and quantiles over every round's samples, of scaled times.

    The samples are solver iterations, or on the analysis workload, which
    has none, analysis calls.
    """
    samples = [its or r.op_times_s for its, r in zip(iterations, rounds)]
    op_s = [t * f for ts, f in zip(samples, scales) for t in ts]
    values = {
        "setup_s": (median(setups) * setup_scale, "s"),
        "wall_s": (median([w * f for w, f in zip(walls, scales)]), "s"),
        "cpu_s": (median([c * f for c, f in zip(cpus, scales)]), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "iter_ms_p50": (1e3 * median(op_s), "ms"),
        "iter_ms_p90": (1e3 * quantiles(op_s, n=10)[8], "ms"),
    }
    raw_op_s = [t for ts in samples for t in ts]
    print(f"unscaled: setup_s {median(setups):.4f}, wall_s {median(walls):.4f}, "
          f"cpu_s {median(cpus):.4f}, iter_ms_p50 {1e3 * median(raw_op_s):.3f}, "
          f"iter_ms_p90 {1e3 * quantiles(raw_op_s, n=10)[8]:.3f} over {len(op_s)} samples; "
          f"scale per round {', '.join(f'{f:.3f}' for f in scales)}; set-up scale {setup_scale:.3f}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_report(tracing, setup_layers, round_layers, errors):
    """Per set-up plus per traced round; counts must repeat exactly between rounds."""
    metrics = {}
    for name, unit in tracing.metric_units().items():
        per_setup = [m[name] for m in setup_layers]
        per_round = [m[name] for m in round_layers]
        if unit != "s":
            for label, values in (("set-up", per_setup), ("round", per_round)):
                if len(set(values)) > 1:
                    errors.append(f"{name} differs between {label}s: {values}")
            value = per_setup[0] + per_round[0]
        else:
            value = median(per_setup) + median(per_round)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sbobench" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'sbobench'}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
