"""soupkit benchmark: one command, four workloads.

    python3 perfbench/run.py --workload {sweep,sweep-par,analysis,cli} \\
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` next to this directory and left
unchanged.  A run sets up several times (``setup_s`` is the median),
repeats the workload's study until ``--seconds`` are used, and checks
every output by digest: against the first repetition, against the
stored digests of ``reference_digests.json`` for the seeds listed there,
and, on ``sweep-par``, against a serial sweep.  With ``--trace 1`` it
alternates untraced and traced repetitions and reports per-layer
metrics from the first traced one (see ``tracing.py``); the traced
outputs must match the untraced ones.

Standard output ends with two JSON lines: a header (machine,
environment, sample counts, failed checks) and the result
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` and
``failed`` count the artifacts and commands checked (ops_total and
ops_failed).  Working files go to ``.bench_work/`` and are removed;
traced runs leave their spans in ``.bench_work/traces/``.

``selfcheck.py`` checks the benchmark itself in a few seconds;
``make_reference.py`` rewrites the stored digests; ``baseline.json``
holds the first recorded figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 3  # set-ups per untraced run; setup_s is their median


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "sweep-par", "analysis", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_environment() -> dict[str, str]:
    """The caller's environment, with this checkout's soupkit importable.

    SOUPKIT_THREADS defaults to 0 as in scripts/run_pipeline.sh; BLAS
    thread settings are left as the caller has them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["SOUPKIT_THREADS"] = env.get("SOUPKIT_THREADS") or "0"
    return env


def git_commit() -> str | None:
    """HEAD of this checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SOUPKIT_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    Taken before the import probes, so the only children are those of
    the study (the CLI commands on ``cli``; none on the library
    workloads unless the program starts some).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def import_probe_s(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing the whole package."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import soupkit.cli"], env=env, check=True)
    return time.perf_counter() - t0


def run(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    import workloads
    from tracing import Tracer, layer_metrics

    env = child_environment()
    wl = workloads.make(args.workload, args.seed, work, env)
    checker = workloads.Checker()

    setup_s, setup_digests = [], None
    for i in range(1 if args.trace else SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
        digests = wl.setup_digests()
        if setup_digests is None:
            setup_digests = digests
        else:
            checker.same(f"setup {i} vs setup 0", digests, setup_digests)

    reps, traced, first_tracer = [], [], None
    first_out, first_digests = work / "rep0", None
    start = time.perf_counter()
    while True:
        for tracer in ([None, Tracer()] if args.trace else [None]):
            k = len(reps) + len(traced)
            out = work / f"rep{k}"
            if tracer is None:
                rep = wl.rep(out, None)
                reps.append(rep)
            else:
                with tracer.installed():
                    rep = wl.rep(out, tracer)
                traced.append(rep)
                first_tracer = first_tracer or tracer
            for what, ok in rep.checks:
                checker.check(f"rep {k}: {what}", ok)
            digests = wl.digests(out)
            if first_digests is None:
                first_digests = digests
            else:
                label = "traced rep" if tracer else "rep"
                checker.same(f"{label} {k} vs rep 0", digests, first_digests)
                shutil.rmtree(out)
        done = reps + traced
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.mean(r.wall_s for r in done) >= args.seconds:
            break

    peak_mb = peak_rss_mb()  # before the checks load anything
    # Set-up time includes a fresh interpreter importing the package,
    # timed only now so that the probe stays out of peak_rss_mb.
    setup_s = [s + import_probe_s(env) for s in setup_s]
    reference = json.loads((HERE / "reference_digests.json").read_text())
    expected = reference.get(wl.reference, {}).get(str(args.seed))
    wl.check(checker, first_out, expected is not None)
    if expected is not None:
        checker.same("reference digests", {**setup_digests, **first_digests}, expected)

    samples = {"setup_s": len(setup_s), "wall_s": len(reps)}
    if args.trace:
        overhead = statistics.median(r.wall_s for r in traced) / statistics.median(
            r.wall_s for r in reps
        ) - 1.0
        cli_commands = list(dict.fromkeys(argv[0] for argv in workloads.Cli.commands()))
        values = layer_metrics(first_tracer.spans, overhead, cli_commands)
        samples["traced_wall_s"] = len(traced)
        traces = ROOT / ".bench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        first_tracer.dump(traces / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        # Optimizer steps per second of the timed repetitions (on cli, of
        # the whole pipeline, start-up included), or on analysis, which
        # trains only in set-up, of the set-up sweeps.
        training = [(r.steps, r.wall_s) for r in reps if r.steps] or wl.setup_training
        op_s = [t for r in reps for t in r.op_s]
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(r.wall_s for r in reps),
            "steps_per_s": sum(n for n, _ in training) / sum(t for _, t in training),
            "cmd_p50_s": statistics.median(op_s),
            "peak_rss_mb": peak_mb,
        }
        samples.update(steps_per_s=len(training), cmd_p50_s=len(op_s))
        samples["raw"] = {
            "setup_s": setup_s,
            "wall_s": [r.wall_s for r in reps],
            "steps_per_s": [n / t for n, t in training],
        }
        if len(op_s) >= 20:  # the highest percentile with ten samples beyond it
            ranked = sorted(op_s)
            samples["cmd_tail_s"] = {"quantile": (len(op_s) - 10) / len(op_s), "value": ranked[-11]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    header = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "samples": samples,
        "ops_total": checker.attempted,
        "ops_failed": len(checker.failures),
        "failures": checker.failures[:20],
    }
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }
    return header, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "soupkit" / "__init__.py").is_file():
        print(f"perfbench: no soupkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        header, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"perfbench": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
