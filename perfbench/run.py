"""End-to-end campaign benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload campaign --seed 3 --seconds 25 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
The run measures set-up in fresh interpreters, builds the workload's
inputs from ``--seed``, then repeats whole passes for about ``--seconds``
seconds, checking every pass's known answers.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` -- the end-to-end ones with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The line before it records host facts, per-pass
walls, artifact hashes and check outcomes under a schema version.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer breakdown, the untraced ones the tracing overhead.
Spans are kept in memory and written to ``.perfbench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_VERSION = 1
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Environment variables that change the program being measured
#: (executor choice, executor self-checking) or where it caches.
HERMETIC_ENV = ("REPRO_EXECUTOR", "REPRO_EXEC_SELF_CHECK", "REPRO_CACHE_DIR")
WORKLOAD_NAMES = ("campaign", "campaign-extend", "mutate", "diff-sf10")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny inputs for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def host_facts():
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=False,
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def measure_setup(data_seed, scale, env):
    """Run the set-up probe in fresh interpreters; returns per-probe
    ``(wall seconds, phase times)``."""
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"),
        "--data-seed", str(data_seed), "--scale", str(scale),
    ]
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120, check=False,
        )
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probes.append((wall, json.loads(done.stdout.strip().splitlines()[-1])))
    return probes


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python computation: dict building, tuple
    hashing, sorting -- the interpreter work the program itself does.

    A shared 2-core x86-64 container was measured changing speed by up to
    1.7x within a minute (other tenants share its cores), which moves
    every wall time alike.
    Each pass is bracketed by this computation, and ``wall_rel`` divides
    the pass time by it, so the ratio keeps the program's cost and drops
    the machine's speed of the moment.
    """
    # With the collector on, the timing would also depend on how many
    # objects the program left alive, not only on the machine.
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(10):  # a small working set keeps peak_rss_mb the program's
            table = {}
            for i in range(20_000):
                table[(i % 977, i)] = str(i)
            ordered = sorted(table.items(), key=lambda item: item[1])
            sum(key[0] for key, _ in ordered[:10_000])
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_passes(workload, seconds, traced_too):
    """Repeat passes for about ``seconds``; with ``traced_too`` every
    second pass is traced.  A pass is not started when a typical loop
    iteration so far (preparation, pass, checks) would overrun the time,
    but at least one pass of each kind runs."""
    from perfbench.breakdown import pass_metrics
    from perfbench.tracing import LayerTracer, SpanRecorder, installed
    from perfbench.workloads import disk_bytes
    from repro.obs import MetricsRegistry

    passes = []
    recorders = []
    cycles = []
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        need_traced = traced_too and not any(p["traced"] for p in passes)
        if cycles and not need_traced and (
            cycle_start - started + statistics.median(cycles) > seconds
        ):
            break
        traced = traced_too and len(passes) % 2 == 1
        inputs = workload.begin_pass()
        # Garbage left by the previous pass is not this pass's cost.
        gc.collect()
        record = {"traced": traced}
        ref_before = reference_seconds()
        start = time.perf_counter()
        try:
            if traced:
                recorder = SpanRecorder(run_id=len(passes))
                metrics = MetricsRegistry()
                tracer = LayerTracer(recorder)
                with installed(recorder, tracer):
                    start = time.perf_counter()
                    with recorder.span("pass", "pass"):
                        result = workload.run_pass(inputs, tracer, metrics)
                    record["wall_s"] = time.perf_counter() - start
            else:
                result = workload.run_pass(inputs)
                record["wall_s"] = time.perf_counter() - start
            record["ref_s"] = (ref_before + reference_seconds()) / 2
            record["wall_rel"] = record["wall_s"] / record["ref_s"]
            if traced:
                record["layers"] = pass_metrics(
                    recorder, metrics, result, disk_bytes(inputs)
                )
                recorders.append(recorder)
            checks = workload.checks(result)
            record.update(
                attempted=result.attempted,
                failed=result.failed,
                artifact_sha256=result.artifact_sha256(),
                checks_passed=sum(1 for check in checks if check.ok),
                checks_failed=[
                    f"{check.name}: {check.detail}"
                    for check in checks if not check.ok
                ],
            )
        except Exception:  # a crashed pass is a failed unit, reported
            traceback.print_exc()
            record.update(
                wall_s=time.perf_counter() - start, attempted=1, failed=1,
                artifact_sha256=None, checks_passed=0,
                checks_failed=["pass raised an exception"],
            )
            passes.append(record)
            break
        finally:
            workload.end_pass(inputs)
        passes.append(record)
        cycles.append(time.perf_counter() - cycle_start)
    return passes, recorders


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    cleared = {name: os.environ.pop(name) for name in HERMETIC_ENV
               if name in os.environ}
    workroot = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    # Any cache or temporary file the program makes stays in this run's
    # private directory.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        return _run(args, workdir, cleared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)  # only when no other run is using it
        except OSError:
            pass


def _run(args, workdir, cleared) -> int:
    from perfbench.breakdown import PER_LAYER, median_metrics
    from perfbench.workloads import FULL, SMOKE, WORKLOADS

    sizes = FULL if args.size == "full" else SMOKE
    cls = WORKLOADS[args.workload]
    probes = measure_setup(*cls.database_spec(sizes), dict(os.environ))
    workload = cls(args.seed, sizes, workdir)
    passes, recorders = run_passes(workload, args.seconds, bool(args.trace))

    # A crashed run still prints a (zero-filled) result, marked incorrect.
    plain = [p for p in passes if not p["traced"] and "wall_rel" in p]
    untraced = [p["wall_s"] for p in plain] or [0.0]
    relative = [p["wall_rel"] for p in plain] or [0.0]
    traced = [p["wall_rel"] for p in passes
              if p["traced"] and "wall_rel" in p] or [0.0]
    failures = [c for p in passes for c in p["checks_failed"]]
    if args.trace:
        layers = {name: 0.0 for name, _ in PER_LAYER}
        layers.update(
            median_metrics([p["layers"] for p in passes if "layers" in p])
        )
        layers.update({
            "import.s": statistics.median(p[1]["import_s"] for p in probes),
            "datagen.s": statistics.median(p[1]["datagen_s"] for p in probes),
            "trace.overhead_frac": (
                statistics.median(traced) / statistics.median(relative) - 1
                if relative[0] else 0.0
            ),
            "wall_s": statistics.median(untraced),
            "wall_max_s": max(untraced),
            "ref_s": statistics.median([p["ref_s"] for p in plain] or [0.0]),
            "passes": len(plain),
        })
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.json"
        )
        with open(spans_path, "w") as handle:
            json.dump([r for rec in recorders for r in rec.to_records()],
                      handle)
    else:
        metrics = {
            "wall_rel": {"value": statistics.median(relative), "unit": "ratio"},
            "setup_s": {
                "value": statistics.median(p[0] for p in probes), "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024,
                "unit": "MB",
            },
        }

    print(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "host": host_facts(),
        "cleared_env": cleared,
        "setup_probes": [{"wall_s": wall, **phases} for wall, phases in probes],
        # The first pass's hash is the one to compare across commits: it
        # runs in a fresh process, like a CLI run.
        "artifact_sha256": passes[0]["artifact_sha256"],
        "passes": [
            {key: value for key, value in p.items() if key != "layers"}
            for p in passes
        ],
    }, sort_keys=True))
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
