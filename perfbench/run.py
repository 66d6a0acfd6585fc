"""Benchmark of the chemostab CLI: fixed workloads, each invocation in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim2d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads are ``sim2d``, ``experiment1d`` and ``sweep`` (see README.md);
``all`` runs them in turn and prints a summary table.  The seed generates the
inputs.  Invocations repeat the same inputs until ``--seconds`` have passed.
Each invocation's output is checked against a seed-independent oracle.

``--trace 0`` reports the end-to-end metrics as medians over invocations.
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  It fails
the run when two traced invocations disagree on any work count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failures are also
printed as ``fail_rate`` (failed over attempted).  Scratch output goes to
``.perfbench_out/`` in the repository root and is deleted at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import SPANS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
MIN_UNTRACED = 3
MIN_TRACED = 2
BLAS_THREADS = "1"

# metric names and units; a run prints every end-to-end or every per-layer one
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer values measured per traced invocation and reported as the median;
# the others are work counts, which must repeat exactly
TIMED = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("s", "us", "1/s")}


def child_env() -> dict:
    env = dict(os.environ)
    # Commands import from cached bytecode, as an installed package does; the
    # warm-up import in run_workload writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    return env


def environment_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(cfg):
        return cfg["Build Dependencies"]["blas"].get("openblas configuration") or \
            cfg["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": int(BLAS_THREADS),
    }


@dataclass
class Invocation:
    """One CLI command run in a fresh process: its timings and check result."""

    traced: bool
    wall_s: float
    setup_s: float | None  # None when the command never reached stepper/stability
    peak_rss_mb: float
    cpu_s: float
    output_files: int
    output_bytes: int
    trace: dict | None
    problems: list[str]


def invoke(spec, index: int, traced: bool, check, deadline: float, env: dict) -> Invocation:
    """Run ``spec`` once in a child process that is killed at ``deadline``."""
    inv_dir = WORK / f"inv{index}"
    out_dir = inv_dir / "out"
    out_dir.mkdir(parents=True)
    result_path = inv_dir / "child.json"
    cmd = [sys.executable, str(CHILD), str(result_path), "1" if traced else "0",
           spec.command, "--config", str(spec.config), "--out", str(out_dir), "--threads", "1"]
    with open(inv_dir / "stdout", "w") as out, open(inv_dir / "stderr", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(0.1, deadline - t0), proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own peak RSS and CPU time
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.monotonic() - t0

    files = [p for p in out_dir.rglob("*") if p.is_file()]
    report = json.loads(result_path.read_text()) if result_path.exists() else {}
    setup_end = report.get("setup_end")
    if proc.returncode != 0:
        tail = (inv_dir / "stderr").read_text().strip().splitlines()[-1:]
        problems = [f"exit code {proc.returncode}: {' '.join(tail)}"]
    else:
        try:
            problems = check((inv_dir / "stdout").read_text(), out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if setup_end is None:
            problems.append("no call into stepper or stability was seen")
    inv = Invocation(
        traced=traced,
        wall_s=wall_s,
        setup_s=setup_end - t0 if setup_end is not None else None,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        output_files=len(files),
        output_bytes=sum(p.stat().st_size for p in files),
        trace=report.get("trace"),
        problems=problems,
    )
    shutil.rmtree(inv_dir)
    return inv


def layer_metrics(inv: Invocation) -> dict[str, float]:
    """Per-layer values of one traced invocation."""
    tr = inv.trace
    calls, self_s, total_s, counts = tr["calls"], tr["self_s"], tr["total_s"], tr["counts"]
    m = {}
    for span in SPANS:
        m[f"{span}.calls"] = calls.get(span, 0)
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    solves = calls.get("implicit.solve_shifted", 0)
    solve_s = total_s.get("implicit.solve_shifted", 0.0)
    m["implicit.solve_shifted.us_per_call"] = 1e6 * solve_s / solves if solves else 0.0
    m["implicit.solve_shifted.nodes_per_s"] = (
        counts.get("implicit.solve_shifted.nodes", 0) / solve_s if solve_s > 0.0 else 0.0)
    accepted = counts.get("stepper.accepted", 0)
    rejected = counts.get("stepper.rejected_error", 0) + counts.get("stepper.rejected_positivity", 0)
    m["stepper.accepted"] = accepted
    m["stepper.rejected_error"] = counts.get("stepper.rejected_error", 0)
    m["stepper.rejected_positivity"] = counts.get("stepper.rejected_positivity", 0)
    m["stepper.accept_ratio"] = accepted / (accepted + rejected) if accepted + rejected else 0.0
    m["stepper.step_calls_per_accepted"] = calls.get("stepper.step", 0) / accepted if accepted else 0.0
    m["stepper.s_per_accepted"] = total_s.get("stepper.run", 0.0) / accepted if accepted else 0.0
    m["stepper.dt_min"] = tr["dt_min"]
    m["stepper.dt_max"] = tr["dt_max"]
    m["stepper.samples"] = counts.get("stepper.samples", 0)
    m["cli.output_bytes"] = inv.output_bytes
    m["cli.output_files"] = inv.output_files
    m["process.cpu_s"] = inv.cpu_s
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Invoke one workload repeatedly for ``seconds``; return its summary."""
    make_inputs, check = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    spec = make_inputs(seed, WORK)

    # Compile the package's bytecode and warm the page cache: a user pays
    # that once per install, not once per command.
    subprocess.run([sys.executable, "-c", "import chemostab.cli"], cwd=ROOT, env=env,
                   check=True, timeout=max(1.0, deadline - time.monotonic()))

    invocations: list[Invocation] = []
    start = time.monotonic()
    while True:
        untraced = [i for i in invocations if not i.traced]
        traced = [i for i in invocations if i.traced]
        next_traced = trace and len(traced) < len(untraced)
        same_kind = traced if next_traced else untraced
        typical = statistics.median(i.wall_s for i in same_kind) if same_kind else 0.0
        now = time.monotonic()
        if now + typical > deadline:
            break
        enough = len(untraced) >= MIN_UNTRACED and (not trace or len(traced) >= MIN_TRACED)
        if enough and now - start + typical > seconds:
            break
        inv = invoke(spec, len(invocations), next_traced, check, deadline, env)
        invocations.append(inv)
        status = "ok" if not inv.problems else "FAILED: " + "; ".join(inv.problems)
        print(f"  {name} #{len(invocations)}{' traced' if inv.traced else ''}: "
              f"wall {inv.wall_s:.3f} s, setup {inv.setup_s or 0.0:.3f} s, "
              f"rss {inv.peak_rss_mb:.1f} MB, cpu {inv.cpu_s:.3f} s, {status}", flush=True)
    shutil.rmtree(WORK, ignore_errors=True)

    untraced = [i for i in invocations if not i.traced]
    traced = [i for i in invocations if i.traced]
    failed = sum(1 for i in invocations if i.problems)
    summary = {"attempted": len(invocations), "failed": failed, "samples": len(untraced),
               "nondeterministic": []}
    walls = [i.wall_s for i in untraced]
    setups = [i.setup_s for i in untraced if i.setup_s is not None]
    summary["e2e"] = {
        "wall_s": statistics.median(walls),
        # no set-up time exists only when every invocation failed
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in untraced),
    }
    summary["wall_range"] = (min(walls), max(walls))
    if trace and traced:
        per_inv = [layer_metrics(i) for i in traced]
        layers = {}
        for key in per_inv[0]:
            values = [m[key] for m in per_inv]
            if key in TIMED:
                layers[key] = statistics.median(values)
            else:
                # work counts must repeat exactly for identical inputs
                if any(v != values[0] for v in values):
                    summary["nondeterministic"].append(f"{key}: {values}")
                layers[key] = values[0]
        traced_wall = statistics.median(i.wall_s for i in traced)
        layers["trace.overhead_frac"] = traced_wall / summary["e2e"]["wall_s"] - 1.0
        summary["layers"] = layers
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chemostab" / "cli.py").is_file():
        print(f"error: no chemostab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    env = child_env()
    print("env " + json.dumps(environment_record()), flush=True)
    results = {}
    for name in names:
        load_before = os.getloadavg()
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        print(f"load {name}: before {load_before} after {os.getloadavg()}", flush=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0
    metrics = {}
    print(f"{'workload':<14}{'metric':<14}{'median':>10}  unit      samples")
    for name, r in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        for m in BENCHMARK["end_to_end"]:
            key, unit = m["name"], m["unit"]
            extra = "  wall range %.3f-%.3f s" % r["wall_range"] if key == "wall_s" else ""
            print(f"{name:<14}{key:<14}{r['e2e'][key]:>10.4f}  {unit:<10}{r['samples']}{extra}")
            if not args.trace:
                metrics[prefix + key] = {"value": r["e2e"][key], "unit": unit}
        print(f"{name:<14}{'fail_rate':<14}{r['failed'] / r['attempted']:>10.4f}  "
              f"{'fraction':<10}{r['attempted']}")
        for line in r["nondeterministic"]:
            print(f"{name}: NONDETERMINISTIC work count {line}")
            correct = False
        if args.trace:
            for m in BENCHMARK["per_layer"]:
                metrics[prefix + m["name"]] = {"value": r["layers"][m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
