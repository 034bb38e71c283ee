"""Benchmark of the mssvs command line, end to end and per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload loss-map --seed 1 --seconds 20 --trace 0

Workloads: loss-map, figure-sweep, photon-stats, validate (see
``workloads.py`` and ``benchmarks/README.md``). The program is driven only
through ``mssvs.cli.main([...])`` called in this process, one request at a
time (a closed loop with one client; nothing runs concurrently), on spec
and grid files generated from ``--seed``. The package is imported from
``src/`` next to this directory and from nowhere else.

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
interpreters, then complete rounds of requests until ``--seconds`` of
request time have passed. Times are speed-normalized by reference kernels
run around every timed interval (see ``NOMINAL_S``). ``--trace 1`` runs
the same untraced loop, then replays a fixed number of its rounds with
every layer wrapped (``tracing.py``) and reports the per-layer metrics; the
replay is fixed so its work counts repeat exactly for a seed. Both print human-readable
lines, write a run record under ``.benchrun/records/``, and end with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".benchrun"

# One process, one thread: a multithreaded BLAS would compete with the
# interpreter for the two cores and add noise. Set before numpy loads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# The host's CPU speed swings by up to 1.7x within seconds (other tenants on
# shared cores), and CPU time swings with it, so raw wall times of identical
# runs spread by 15-35 %. Every timed interval is therefore bracketed by two
# fixed reference kernels, one bound by the interpreter and one by array
# passes, and its wall time is multiplied by the machine's speed around it:
# the mean over the two kernels of NOMINAL_S / mean(kernel before, kernel
# after). NOMINAL_S is about the kernels' time on the 2-CPU machine the
# baseline was taken on in its slower, shared state, so normalized times
# are mostly at or above raw ones and a run seldom outlasts --seconds.
# RAW_LIMIT caps a run's raw request time when the machine is slower still.
NOMINAL_S = (2.5e-3, 3.5e-3)
RAW_LIMIT = 1.25
INTERPRETER_LOOPS = 1000
ARRAY_SIZE, ARRAY_PASSES = 100_000, 4
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
TRACED_MODULES = ("observables", "genfunc", "fock_oracle", "validation")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("loss-map", "figure-sweep", "photon-stats", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one set-up probe (self-test only)")
    return parser.parse_args(argv)


def invoke(main, argv):
    """Call ``main(argv)`` with captured streams; (seconds, Reply)."""
    from workloads import Reply

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the program's own failure: recorded, counted, run goes on
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    return elapsed, Reply(code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                          error=error)


def output_of(request, reply) -> bytes:
    if request.output is not None and os.path.exists(request.output):
        return Path(request.output).read_bytes()
    return reply.stdout.encode()


def reference_kernels() -> tuple[float, float]:
    """Seconds taken by a fixed interpreter-bound and a fixed array-bound kernel."""
    import numpy as np

    start = time.perf_counter()
    a = np.zeros(16, dtype=complex)
    total = 0.0
    for i in range(INTERPRETER_LOOPS):
        a = a * 0.5 + 1.0
        total += (i * 1.5) ** 0.5
    middle = time.perf_counter()
    b = np.zeros(ARRAY_SIZE, dtype=complex)
    for _ in range(ARRAY_PASSES):
        b[1:] += 0.5 * b[:-1]
    return middle - start, time.perf_counter() - middle


def speed_factor(before: tuple[float, float]) -> float:
    """Machine speed relative to nominal around an interval that started after
    ``before`` was measured and ended now."""
    after = reference_kernels()
    return sum(nominal / (b + a) for nominal, b, a in zip(NOMINAL_S, before, after))


def measure_setup(request, repeats: int) -> list[tuple[float, float]]:
    """(wall, normalized) seconds from starting a fresh interpreter to the end
    of its first point."""
    request.write_files()
    samples = []
    for _ in range(repeats):
        before = reference_kernels()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *request.argv],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr}")
        wall = float(fields[1]) - start
        samples.append((wall, wall * speed_factor(before)))
    return samples


def latency_tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at least
    TAIL_BEYOND samples above it, never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": commit,
        "seed": seed,
        "machine": platform.machine(),
    }


def run_rounds(workload, cli_main, args, workdir, min_rounds, verdict):
    """Complete rounds until ``args.seconds`` of normalized request time (so the
    number of rounds does not follow the machine's speed); per-request log."""
    log = []
    timed = raw = 0.0
    index = 0
    while (timed < args.seconds and raw < RAW_LIMIT * args.seconds) or index < min_rounds:
        for request in workload.round(args.seed, index, workdir, args.tiny):
            request.write_files()
            before = reference_kernels()
            elapsed, reply = invoke(cli_main, request.argv)
            normalized = elapsed * speed_factor(before)
            timed += normalized
            raw += elapsed
            verdict.add(workload.check(request, reply))
            body = output_of(request, reply)
            log.append({"round": index, "request": request, "wall_s": elapsed,
                        "norm_s": normalized,
                        "sha256": hashlib.sha256(body).hexdigest()})
        index += 1
    return log


def end_to_end(log, setup_samples) -> tuple[dict, dict]:
    """Metrics from speed-normalized times; the notes give the raw wall values."""
    points = sum(entry["request"].points for entry in log)
    values, raw = {}, {}
    for out, key, setup in ((values, "norm_s", 1), (raw, "wall_s", 0)):
        times = [entry[key] for entry in log]
        tail, percentile = latency_tail(times)
        out.update({
            "setup_s": statistics.median(sample[setup] for sample in setup_samples),
            "points_per_s": points / sum(times),
            "latency_p50_ms": 1e3 * statistics.median(times),
            "latency_tail_ms": 1e3 * tail,
        })
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(log)
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters to the end of the "
                   f"first point; raw wall {raw['setup_s']:.6g} s",
        "points_per_s": f"{points} points in {n} requests; raw wall {raw['points_per_s']:.6g}",
        "latency_p50_ms": f"median of {n} requests; raw wall {raw['latency_p50_ms']:.6g}",
        "latency_tail_ms": f"p{percentile:.1f} of {n} requests; "
                           f"raw wall {raw['latency_tail_ms']:.6g}",
        "peak_rss_mb": "ru_maxrss of this process after the timed loop",
    }
    return values, notes


def traced_replay(workload, cli, log, verdict):
    """Replay the first rounds of ``log`` untraced, then with every layer wrapped.

    The untraced replay runs just before the traced one, on the same
    inputs, so their difference is the tracing overhead.
    """
    import tracing

    replay = [entry for entry in log if entry["round"] < workload.trace_rounds]
    untraced_wall = sum(invoke(cli.main, entry["request"].argv)[0] for entry in replay)
    tracer = tracing.Tracer()
    modules = {name: importlib.import_module(f"mssvs.{name}") for name in TRACED_MODULES}
    traced_main = tracer.wrap("cli.main", cli.main)
    traced_wall = 0.0
    output_bytes = 0
    with tracer.install(modules):
        for number, entry in enumerate(replay):
            request = entry["request"]
            tracer.start_request(number)
            elapsed, reply = invoke(traced_main, request.argv)
            traced_wall += elapsed
            body = output_of(request, reply)
            output_bytes += len(body)
            if hashlib.sha256(body).hexdigest() != entry["sha256"]:
                verdict.wrong.append(f"traced output differs from untraced: {request.argv}")
    metrics = tracing.layer_metrics(
        tracer.spans,
        points=sum(entry["request"].points for entry in replay),
        output_bytes=output_bytes,
        traced_wall=traced_wall,
        untraced_wall=untraced_wall,
    )
    return metrics, tracer.spans


def load_declared() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: [(m["name"], m["unit"]) for m in declared["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in declared["per_layer"]],
    }


def run(args) -> int:
    if not (SRC / "mssvs" / "__init__.py").is_file():
        print(f"error: no mssvs source tree at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mssvs
    from mssvs import cli

    if Path(mssvs.__file__).resolve().parent != SRC / "mssvs":
        print(f"error: mssvs imported from {mssvs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    declared = load_declared()
    workload = workloads.make(args.workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    workdir = RUN_DIR / "work" / f"{tag}-{os.getpid()}"
    records = RUN_DIR / "records"
    workdir.mkdir(parents=True, exist_ok=True)
    records.mkdir(parents=True, exist_ok=True)
    verdict = workloads.Verdict()
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "environment": environment(args.seed)}
    try:
        first = workload.round(args.seed, 0, workdir, args.tiny)[0]
        setup_samples = []
        if args.trace == 0:
            repeats = 1 if args.tiny else SETUP_REPEATS
            setup_samples = measure_setup(workload.first_point(first, workdir), repeats)
        for request in workload.round(args.seed, -1, workdir, args.tiny)[:1]:
            request.write_files()  # warm-up: imports, lazy set-up, caches
            invoke(cli.main, request.argv)

        min_rounds = max(workload.min_rounds, workload.trace_rounds if args.trace else 1)
        log = run_rounds(workload, cli.main, args, workdir, min_rounds, verdict)
        if args.trace == 0:
            metrics, notes = end_to_end(log, setup_samples)
            record["setup_s_samples"] = setup_samples
        else:
            metrics, spans = traced_replay(workload, cli, log, verdict)
            notes = {}
            tracing.write_spans(spans, records / f"spans-{tag}.csv.gz")
            record["trace"] = {
                "top_self_s": tracing.top_self_times(spans, 15),
                "errors_by_type": tracing.error_types(spans),
            }
        verdict.add(workload.sample_check(random.Random(f"{args.workload}:{args.seed}:sample")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(entry["request"].points for entry in log)
    record["requests"] = [
        {"round": e["round"], "argv": e["request"].argv, "points": e["request"].points,
         "wall_s": e["wall_s"], "norm_s": e["norm_s"], "sha256": e["sha256"]} for e in log
    ]
    record.update(metrics=metrics, attempted=attempted, failed=verdict.failed,
                  wrong=verdict.wrong[:100])
    record_path = records / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    env = record["environment"]
    print(f"mssvs benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, commit {env['commit'] or 'unknown'}")
    for name, unit in declared[args.trace]:
        note = notes.get(name)
        print(f"  {name} = {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  failed_frac = {verdict.failed / attempted:.6g} ratio  "
          f"({verdict.failed} of {attempted} points failed)")
    if args.trace:
        print("  largest self times (s, calls):")
        for name, seconds, calls in record["trace"]["top_self_s"][:8]:
            print(f"    {name:40s} {seconds:10.4f} {calls:8d}")
    for message in verdict.wrong[:10]:
        print(f"  WRONG: {message}")
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": not verdict.wrong,
        "attempted": attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared[args.trace]},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
