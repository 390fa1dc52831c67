"""Benchmark of pbwpcn: three closed-loop workloads, one process, one thread.

    python3 perfbench/run.py --workload sweep_paper --seed 1 --seconds 30 --trace 0

runs one workload from the root of a source checkout and prints a summary, then
as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones of ``tracer.PER_LAYER``.
``--workload all`` runs every workload in turn, each in its own process.
A run record (machine, versions, revision, seed, load, sample counts) is
written beside the result under ``.perfbench_run/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
WORKLOAD_NAMES = ("sweep_paper", "coop_dense", "auction_ladder")

# set-ups measured per untraced run; setup_s is their median
SETUP_PROBES = 5
# a seed no tuning used; a claimed gain must hold on it too
HOLDOUT_SEED = 7919
# the warm-up op runs op 0 of this seed, so that set-up costs the same
# whatever --seed is
WARMUP_SEED = 0

# (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_p90", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def import_program():
    """Put the checkout's ``src`` first on the path and import pbwpcn from it."""
    if not os.path.isfile(os.path.join(SRC, "pbwpcn", "__init__.py")):
        sys.exit(f"perfbench: no pbwpcn source under {SRC}")
    sys.path.insert(0, SRC)
    import pbwpcn

    if not os.path.abspath(pbwpcn.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported pbwpcn from {pbwpcn.__file__}, not {SRC}")


def setup(workload: str, seed: int):
    """The workload for ``seed``, after one untimed warm-up op."""
    import workloads

    os.makedirs(RUN_DIR, exist_ok=True)
    cls = workloads.WORKLOADS[workload]
    warmup = cls(WARMUP_SEED, RUN_DIR)
    inp = warmup.inputs(0)
    try:
        warmup.run(inp)
    finally:
        warmup.cleanup(inp)
    return cls(seed, RUN_DIR)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from process start to ready-for-the-first-op, in a fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready - start


def run_ops(wl, seconds=None, count=None, tracer=None, start_k=0):
    """Run ops k = start_k, start_k + 1, ... until their summed time reaches
    ``seconds``, or ``count`` ops ran.  Returns (per-op seconds, {k: failure
    names}).

    Only the op is timed; its input generation and output checks are not.
    """
    times, failures = [], {}
    k = start_k
    while (sum(times) < seconds) if count is None else (k - start_k < count):
        inp = wl.inputs(k)
        try:
            start = time.perf_counter()
            try:
                with tracer.op(k) if tracer else contextlib.nullcontext():
                    out = wl.run(inp)
            finally:
                times.append(time.perf_counter() - start)
            bad = wl.check(inp, out)
        except Exception as exc:  # a failed op is counted, not fatal
            bad = [f"{type(exc).__name__}: {exc}"]
        finally:
            wl.cleanup(inp)
        if bad:
            failures[k] = bad
        k += 1
    return times, failures


def peak_rss_mib() -> float:
    """Peak resident set of this process since it started, in MiB.

    ``VmHWM`` belongs to this process image alone; ``ru_maxrss`` also counts
    the pre-exec image of whoever started it, so it is only the fallback.
    """
    with contextlib.suppress(OSError):
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_revision() -> str:
    """HEAD of the checkout's own .git directory, or 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    with contextlib.suppress(OSError):
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(wl, workload, seed, seconds, probes):
    # set-up is probed at evenly spaced points of the run, so that its median
    # sees the same machine as the ops do
    setup_samples, times, failures = [], [], {}
    for _ in range(probes):
        setup_samples.append(measure_setup(workload, seed))
        more, bad = run_ops(wl, seconds=seconds / probes, start_k=len(times))
        times += more
        failures.update(bad)
    passed = len(times) - len(failures)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": passed / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_p90": percentile(times, 90),
        "peak_rss_mb": peak_rss_mib(),
    }
    samples = {"setup_s": len(setup_samples), "op_s": len(times)}
    return metrics, times, failures, samples, {"setup_s": setup_samples}


def traced(wl, workload, seed, seconds):
    """A third of the time untraced, then the same ops traced (tracing costs
    about 2x, so the run takes about ``seconds``)."""
    from tracer import Tracer

    times, failures = run_ops(wl, seconds=seconds / 3)
    tracer = Tracer()
    tracer.install()
    try:
        traced_times, traced_failures = run_ops(wl, count=len(times), tracer=tracer)
    finally:
        tracer.uninstall()
    trace_path = os.path.join(RUN_DIR, f"trace-{workload}-seed{seed}.json")
    tracer.write(trace_path)
    metrics = tracer.metrics(overhead_ratio=sum(traced_times) / sum(times))
    failures.update({f"traced {k}": v for k, v in traced_failures.items()})
    samples = {"op_s": len(times), "traced_op_s": len(traced_times)}
    return metrics, times + traced_times, failures, samples, {"trace_file": trace_path}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One run: (result for the last line, run record)."""
    import numpy
    from tracer import PER_LAYER

    load_start = os.getloadavg()
    wl = setup(workload, seed)
    try:
        if trace:
            metrics, times, failures, samples, extra = traced(wl, workload, seed, seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, times, failures, samples, extra = untraced(
                wl, workload, seed, seconds, probes)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        wl.close()
    result = {
        "correct": not failures,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "samples": samples,
        "error_rate": len(failures) / len(times),
        "failures": {str(k): v for k, v in list(failures.items())[:20]},
        **extra,
    }
    return result, record


def summary(result: dict, record: dict) -> str:
    n = record["samples"]["op_s"]
    notes = {
        "setup_s": f"median of {record['samples'].get('setup_s')} set-ups",
        "ops_per_s": f"{result['attempted'] - result['failed']} ops passed",
        "op_s_p50": f"{n} samples",
        "op_s_p90": f"{n} samples",
    }
    lines = [f"perfbench {record['workload']} seed={record['seed']} "
             f"seconds={record['seconds']} trace={int(record['trace'])}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:42s} {m['value']:<14.6g} {m['unit']:10s} {notes.get(name, '')}")
    lines.append(f"  {'error_rate':42s} {record['error_rate']:<14.6g} {'fraction':10s} "
                 f"{result['failed']} of {result['attempted']} failed")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            code = max(code, subprocess.call(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], cwd=ROOT))
        return code

    import_program()
    if args.setup_probe:
        wl = setup(args.workload, args.seed)
        print("ready", flush=True)
        wl.close()
        return 0

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(
        RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, "record": record}, fh, indent=1)
    print(summary(result, record))
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
