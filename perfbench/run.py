#!/usr/bin/env python3
"""spinchain benchmark: time CLI workloads end to end, or per layer when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig1_surface --seed 1 --seconds 40 --trace 0

Each iteration runs the workload's `spinchain` commands in one fresh Python
process (perfbench/worker.py), the way a user's CLI call runs, and checks
their output files. Iterations repeat until the next one would end after
`--seconds` (at least one runs). With `--trace 0` the run also measures
set-up time with import-only processes and reports the end-to-end metrics;
with `--trace 1` it alternates untraced and traced iterations and reports
the per-layer metrics plus the tracing overhead. The last line of standard
output is the JSON result; a record of the environment and of every
iteration goes to standard error. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "frac"),
)
# Import-only processes per untraced run for setup_s; one more runs first,
# unmeasured, so that bytecode caches exist.
SETUP_PROBES = 9
# Every process this run starts must end by then (the run must exit in 180 s).
HARD_LIMIT_S = 170.0
THREAD_ENV_VARS = ("SPINCHAIN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Prints "ready <path of spinchain/cli.py>" once the import is done.
PROBE = "import spinchain.cli, sys; print('ready', spinchain.cli.__file__, flush=True)"


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def remaining(hard_deadline: float) -> float:
    left = hard_deadline - time.perf_counter()
    if left <= 0:
        raise HarnessError(f"run exceeded {HARD_LIMIT_S:.0f} s")
    return left


def probe_setup(hard_deadline: float) -> float:
    """Seconds from starting Python until `spinchain.cli` is imported."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", PROBE],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    try:
        _out, err = proc.communicate(timeout=remaining(hard_deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError("set-up probe timed out")
    word, _, module_file = ready.decode().strip().partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise HarnessError(f"cannot import spinchain.cli from {SRC}: {err.decode(errors='replace').strip()}")
    _check_origin(module_file)
    return elapsed


def _check_origin(module_file: str):
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"spinchain.cli imported from {module_file}, not from {SRC}")


def run_iteration(commands, outdir: Path, trace: bool, hard_deadline: float) -> dict:
    """Run the commands in a fresh worker process; return its result."""
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    spec_path, result_path = outdir / "spec.json", outdir / "result.json"
    spec = {
        "commands": [list(c.argv) for c in commands],
        "outputs": [[str(p) for p in c.outputs] for c in commands],
        "trace": trace,
    }
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            capture_output=True,
            env=child_env(),
            cwd=ROOT,
            timeout=remaining(hard_deadline),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError("worker timed out")
    if proc.returncode != 0 or not result_path.is_file():
        raise HarnessError(f"worker failed ({proc.returncode}): {proc.stderr.decode(errors='replace')[-2000:]}")
    result = json.loads(result_path.read_text())
    _check_origin(result["spinchain_file"])
    result["stderr"] = proc.stderr.decode(errors="replace")[-2000:]
    return result


def check_outputs(commands, result, reference_digests: list) -> list:
    """Problems per command: exit code, output checks, byte identity."""
    problems = []
    for k, (cmd, code) in enumerate(zip(commands, result["codes"])):
        found = [] if code == 0 else [f"exit code {code}"]
        found += cmd.check(cmd.csv)
        digest = hashlib.sha256(cmd.csv.read_bytes()).hexdigest() if cmd.csv.is_file() else None
        if reference_digests[k] is None:
            reference_digests[k] = digest
        elif digest != reference_digests[k]:
            found.append(f"{cmd.csv.name} differs from the first iteration's")
        problems.append(found)
    return problems


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
    }


def benchmark(name: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Run one benchmark run; return (result line dict, detail record)."""
    start = time.perf_counter()
    deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(), "loadavg_before": os.getloadavg()}
    tmp = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    try:
        setups = []
        if not trace:
            probe_setup(hard_deadline)  # warm-up, not measured
            setups = [probe_setup(hard_deadline) for _ in range(SETUP_PROBES)]

        modes = (False, True) if trace else (False,)
        last_duration = {}
        iterations = []
        reference_digests = None
        attempted = failed = 0
        while True:
            mode = modes[len(iterations) % len(modes)]
            commands = workloads.WORKLOADS[name](seed, tmp / "out")
            if reference_digests is None:
                reference_digests = [None] * len(commands)
            it_start = time.perf_counter()
            result = run_iteration(commands, tmp / "out", mode, hard_deadline)
            problems = check_outputs(commands, result, reference_digests)
            last_duration[mode] = time.perf_counter() - it_start
            attempted += len(commands)
            failed += sum(1 for p in problems if p)
            result.update(traced=mode, problems=problems, loadavg_after=os.getloadavg())
            iterations.append(result)

            done_modes = len(iterations) >= len(modes)
            next_mode = modes[len(iterations) % len(modes)]
            predicted = last_duration.get(next_mode, last_duration[mode])
            if done_modes and time.perf_counter() + predicted > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    record["loadavg_after"] = os.getloadavg()
    record["elapsed_s"] = time.perf_counter() - start
    record["setup_s_samples"] = setups
    record["iterations"] = [
        {k: it.get(k) for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb", "codes", "command_walls_s",
                                "problems", "loadavg_after", "thread_count", "absent_hooks", "threads")}
        for it in iterations
    ]
    record["thread_count"] = next((it["thread_count"] for it in iterations if "thread_count" in it), None)

    plain = [it for it in iterations if not it["traced"]]
    metrics = {}
    if trace:
        traced = [it for it in iterations if it["traced"]]
        for metric, unit, _hook in tracer.LAYER_METRICS:
            if metric == "trace.overhead_s":
                value = _median(traced, "wall_s") - _median(plain, "wall_s")
            else:
                value = statistics.median(it["layers"][metric] for it in traced)
            metrics[metric] = {"value": value, "unit": unit}
        record["absent_metrics"] = traced[-1]["absent_metrics"]
    else:
        values = {
            "wall_s": _median(plain, "wall_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "setup_s": statistics.median(setups),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in END_TO_END}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, record


def _median(iterations, key):
    return statistics.median(it[key] for it in iterations)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "spinchain" / "cli.py").is_file():
        print(f"perfbench: no spinchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks call spinchain's closed forms
    try:
        line, record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record), file=sys.stderr)
    for metric, m in line["metrics"].items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
