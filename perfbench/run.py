"""The repository's benchmark: one command, one result schema.

Run one workload::

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload with per-layer timers installed (and an
untraced twin of the same fixed work in a child process, for the tracing
overhead) and reports the per-layer metrics.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record (provenance included), which ``--out FILE``
also appends to a JSON-lines file.  The exit code is 1 when any output
differs from the interpreter reference or any call raised.

Compare two result files (``--out`` of two sets of runs)::

    python3 perfbench/run.py --compare before.jsonl after.jsonl

The run re-executes itself once with a pinned environment (hash seed,
one BLAS thread, temp files inside the checkout).  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
SPEC = ROOT / "BENCHMARK.json"
#: One default seed for everyday runs and one held out for confirming a
#: claim made on the default.
DEFAULT_SEED = 20020617
HELD_OUT_SEED = 4242
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(
        "cold_start", "warm_start", "steady_run", "call_stream"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=(
        f"drives inputs, program order, rand and the stream "
        f"(default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--make-refs", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload is required")
    return args


def pin_environment(argv) -> None:
    """Re-execute with the pinned environment unless it is already set.

    BLAS reads its thread count when NumPy loads, so this happens before
    anything imports NumPy."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    TMP.mkdir(exist_ok=True)
    env = dict(os.environ, **PINNED_ENV, TMPDIR=str(TMP))
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, str(Path(__file__)), *argv], env)


def run_child(argv) -> str:
    """Run this script with ``argv`` and wait for it; returns its stdout."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), *argv],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child run {argv} exited with {done.returncode}")
    return done.stdout


def references(workload: str, seed: int):
    """The interpreter references, computed by a child process when they
    are not cached yet."""
    import check
    import workloads

    jobs = workloads.reference_jobs(workload, seed)
    refs = {label: check.load_ref(key) for label, (key, _) in jobs.items()}
    if any(ref is None for ref in refs.values()):
        run_child(["--workload", workload, "--seed", str(seed), "--make-refs"])
        refs = {label: check.load_ref(key) for label, (key, _) in jobs.items()}
    return refs["stream"] if workload == "call_stream" else refs


def make_references(workload: str, seed: int) -> None:
    import check
    import workloads

    for key, compute in workloads.reference_jobs(workload, seed).values():
        if check.load_ref(key) is None:
            check.store_ref(key, compute())


def provenance() -> dict:
    import platform
    import shutil

    import numpy

    import check

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cc": shutil.which("cc") is not None,
        "loadavg": list(os.getloadavg()),
        "git_commit": commit,
        "source_sha256": check.source_digest(),
    }


def metric_units() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and of the per-layer metrics."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def measure(args):
    """Run the workload once in this process; returns its full record."""
    import statistics

    import workloads

    refs = references(args.workload, args.seed)
    rounds = args.rounds
    clock = None
    if args.trace:
        import layers

        rounds = workloads.TRACE_ROUNDS[args.workload]
        clock = layers.LayerClock()
        clock.install()
    run = workloads.Run(args.seed, args.seconds, rounds, refs, layers=clock)
    start = workloads.clock()
    metrics = workloads.WORKLOADS[args.workload](run)
    end = workloads.clock()
    if clock is not None:
        clock.uninstall()
    setup_end, setup_calibrating, setup_layers = run.setup_mark
    run.verify()
    # CPU seconds of set-up and of the measured window, calibrations left out.
    setup_s = setup_end - start - setup_calibrating
    window_s = end - setup_end - (run.calibrating_s - setup_calibrating)
    # Windows and layer times at the reference speed, like the end-to-end
    # metrics (one factor for the run: the layers sum over all its rounds).
    speed = workloads.REFERENCE_CALIBRATION_S / statistics.median(run.calibration_s)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": run.extra.get("rounds"),
        "setup_samples_s": run.setup_s,
        "latency_samples": run.extra["latency_samples"],
        "calls": run.calls,
        "deopts": run.deopts,
        "versions": run.extra.get("versions"),
        "compile_share": run.extra.get("compile_share"),
        "timed_cpu_s": run.extra["timed_cpu_s"],
        "timed_wall_s": run.extra["timed_wall_s"],
        "calibration_ms_quartiles": run.extra["calibration_ms"],
        "setup_window_ms": 1e3 * speed * setup_s,
        "window_ms": 1e3 * speed * window_s,
        "end_to_end": metrics,
        "per_program_ms": run.extra["per_program_ms"],
        "attempted": run.checker.attempted,
        "failed": run.checker.failed,
        "failed_ratio": run.checker.failed / max(run.checker.attempted, 1),
        "errors": run.checker.errors,
        "provenance": provenance(),
    }
    if clock is not None:
        record["round_jit_compiles"] = run.round_compiles
        # Layers of the measured window (timed phase and what follows it),
        # plus the time layers of set-up under a ``setup.`` prefix.
        window = clock.metrics(window_s, since=setup_layers)
        setup = clock.metrics(setup_s, until=setup_layers)
        record["layers"] = {
            name: value * speed if name.endswith("_ms") else value
            for name, value in window.items()
        }
        for name, value in setup.items():
            if name.endswith("_ms"):
                record["layers"]["setup." + name] = value * speed
    return record


def traced(args, record) -> dict:
    """Per-layer metrics plus the overhead against an untraced twin."""
    import workloads

    rounds = workloads.TRACE_ROUNDS[args.workload]
    out = run_child([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--rounds", str(rounds), "--trace", "0",
    ])
    twin = json.loads(out.strip().splitlines()[-2])
    layers = dict(record["layers"])
    layers["repository.versions"] = record["versions"]
    layers["repository.deopts"] = record["deopts"]
    layers["codegen.round_jit_compiles"] = record["round_jit_compiles"]
    layers["codegen.compile_share"] = twin["compile_share"] or 0.0
    layers["calibration_ms"] = record["calibration_ms_quartiles"][1]
    layers["untraced_window_ms"] = twin["window_ms"]
    layers["trace.overhead_ms"] = record["window_ms"] - twin["window_ms"]
    layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_ms"] / twin["window_ms"]
    return layers


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare, SPEC)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    pin_environment(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.make_refs:
        make_references(args.workload, args.seed)
        return 0
    e2e_units, layer_units = metric_units()
    record = measure(args)
    if args.trace:
        values, units = traced(args, record), layer_units
    else:
        values, units = record["end_to_end"], e2e_units
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{args.workload:12s} {name:30s} {metric['value']:14.4f} {metric['unit']}")
    print(f"{args.workload:12s} {'failed_ratio':30s} {record['failed_ratio']:14.4f} "
          f"ratio ({record['failed']} of {record['attempted']})")
    for error in record["errors"]:
        print(f"MISMATCH {error}")
    line = json.dumps(record)
    print(line)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(line + "\n")
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
