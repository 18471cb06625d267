"""Benchmark of gclab: fitting, multiset verification and spectral operators.

    python3 bench/run.py --workload fit-reference --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Each workload runs in this one process: it sets up its inputs several times
(set-up time is the median, gclab re-imported each time), warms up, then runs
whole rounds of its timed parts for about --seconds, and finally checks
the outputs. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run measures half of
--seconds untraced and half traced, and writes its spans to bench/out/.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# one BLAS thread keeps timings steady on a shared 2-CPU host; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import END_TO_END, WORKLOADS, no_span, per_layer_catalog  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
MODULES = (
    "graph", "spectral", "convolution", "lmgc", "autodiff", "optim",
    "train", "verify", "seeding", "cli", "svgplot",
)


def import_gclab():
    """Import gclab afresh from this checkout's src/, never from anywhere else."""
    for name in [m for m in sys.modules if m == "gclab" or m.startswith("gclab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("gclab")
    if Path(pkg.__file__).resolve().parent != SRC / "gclab":
        raise ImportError(f"gclab imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"gclab.{m}") for m in MODULES})


# Median probe time on the host the benchmark was defined on (2 vCPUs, Python
# 3.11, numpy 2.4); rates and set-up times are rescaled to this host speed.
PROBE_REFERENCE_S = 3.8e-3

_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal((128, 32))
_PROBE_W = _PROBE_RNG.standard_normal((32, 32))
_PROBE_EDGES = _PROBE_RNG.integers(0, 128, (2, 420))


def host_probe() -> float:
    """Seconds taken by a fixed piece of array work the size of fit-wide's.

    It touches no gclab code, so a change to the program cannot move it, while
    a busier host slows it about as much as the workloads. The shared host
    flips between a fast and a slow state within seconds; from fast to slow
    array work of this shape slowed 1.65x, the workloads 1.4x (lmgc on
    fit-wide) to 1.8x (verify), and a pure-interpreter loop 1.95x. The runner
    probes around every timed operation.
    """
    t0 = time.perf_counter()
    src, dst = _PROBE_EDGES
    acc = np.zeros_like(_PROBE_X)
    for _ in range(12):
        h = acc + _PROBE_X @ _PROBE_W
        np.add.at(acc, dst, h[src])
        acc = np.tanh(acc * 0.01)
    return time.perf_counter() - t0


@dataclass
class Phase:
    samples: dict
    scaled: dict
    probes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    seconds: float = 0.0
    errors: list = field(default_factory=list)

    def throughput(self, parts, at_reference=True) -> dict:
        """Work per second of each part: at the reference host speed, or as timed.

        At reference speed a part's time is the mean over its samples of the
        sample time in probe units (see `measure`) times PROBE_REFERENCE_S.
        """
        if at_reference:
            return {p.name: p.work / (PROBE_REFERENCE_S * statistics.fmean(self.scaled[p.name])) for p in parts}
        return {p.name: p.work / statistics.median(self.samples[p.name]) for p in parts}

    def gmean(self, parts) -> float:
        rates = self.throughput(parts)
        return math.exp(statistics.fmean(math.log(rates[p.name]) for p in parts if p.in_gmean))


def measure(workload, seconds: float, span) -> Phase:
    """Run whole rounds of every part for about `seconds`.

    A round starts only if half a mean round still fits, so a run of long
    rounds ends as often a little before `seconds` as after.

    A host probe runs before the first operation and after every operation.
    Each operation's time is divided by the mean of the probes on either side
    of it, and a sample's time in probe units is the sum over its operations.
    """
    phase = Phase({p.name: [] for p in workload.parts}, {p.name: [] for p in workload.parts})
    phase.probes.append(host_probe())
    start = time.perf_counter()
    while phase.rounds == 0 or (time.perf_counter() - start) * (1 + 0.5 / phase.rounds) < seconds:
        for part in workload.parts:
            for _ in range(part.reps):
                elapsed = scaled = 0.0
                with span(f"op/{part.name}"):
                    for op in part.ops:
                        phase.attempted += 1
                        t0 = time.perf_counter()
                        try:
                            op()
                        except Exception as exc:  # counted and reported; the run goes on
                            phase.failed += 1
                            phase.errors.append(f"{part.name}: {type(exc).__name__}: {exc}")
                        took = time.perf_counter() - t0
                        phase.probes.append(host_probe())
                        elapsed += took
                        scaled += took / statistics.fmean(phase.probes[-2:])
                phase.samples[part.name].append(elapsed)
                phase.scaled[part.name].append(scaled)
        phase.rounds += 1
    phase.seconds = time.perf_counter() - start
    return phase


def commit() -> str:
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
    return "unknown"


def header() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (
        f"# host: cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas} blas_threads={BLAS_THREADS} commit={commit()}"
    )


def run_workload(args) -> int:
    cls = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    span = tracer.span if tracer else no_span
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    setup_times, setup_scaled, probes = [], [], [host_probe()]
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            gc = import_gclab()
            if tracer:
                tracer.install(gc)
            with span("setup"):
                workload = cls(gc, args.seed, span, workdir)
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
            probes.append(host_probe())
            setup_scaled.append(setup_times[-1] / statistics.fmean(probes[-2:]) * PROBE_REFERENCE_S)
    except ImportError as exc:
        print(f"error: cannot import gclab from {SRC}: {exc}", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 2

    print(header())
    try:
        workload.span = no_span
        for _ in range(10):
            host_probe()
        for op in workload.warmup_ops:
            try:
                op()
            except Exception:  # a failing operation is counted in the measured rounds
                pass
        plain = measure(workload, args.seconds / 2 if tracer else args.seconds, no_span)
        phases = [plain]
        if tracer:
            tracer.install(gc)
            workload.span = span
            traced = measure(workload, args.seconds / 2, span)
            tracer.uninstall()
            workload.span = no_span
            phases.append(traced)
        try:
            fails = workload.check()
        except Exception as exc:  # a check that cannot run is a failed check
            fails = [f"checks raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": [p.rounds for p in phases], "measured_s": [p.seconds for p in phases],
        "setup_samples_s": setup_times, "setup_samples_at_reference_s": setup_scaled, "checks_failed": fails,
        "errors": sorted({e for p in phases for e in p.errors}),
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"rounds={report['rounds']} measured_s={[round(s, 2) for s in report['measured_s']]}")
    print(f"# host probe: median {statistics.median(plain.probes) * 1e3:.4g} ms, "
          f"mean {statistics.fmean(plain.probes) * 1e3:.4g} ms over {len(plain.probes)}")
    parts = {p.name: p for p in workload.parts}
    raw = plain.throughput(workload.parts, at_reference=False)
    for name, rate in plain.throughput(workload.parts).items():
        p = parts[name]
        print(f"{p.metric} = {rate:.6g} {p.unit} at reference host speed, {raw[name]:.6g} as "
              f"timed (median of {len(plain.samples[name])} samples)")
    report["parts"] = {parts[n].metric: v for n, v in plain.throughput(workload.parts).items()}
    report["parts_as_timed"] = {parts[n].metric: v for n, v in raw.items()}
    report["samples_s"] = plain.samples
    report["samples_in_probe_units"] = plain.scaled
    report["probes_s"] = plain.probes

    if tracer:
        summary = tracer.summary()
        values = workload.layer_metrics(summary, traced.rounds, tracer.primitives)
        for name in sorted(set(values) - {n for n, _, _ in per_layer_catalog()}):
            print(f"# not in BENCHMARK.json: {name} = {values[name]:.6g}")
        g_plain, g_traced = plain.gmean(workload.parts), traced.gmean(workload.parts)
        values["trace.overhead_ops_per_s"] = g_plain - g_traced
        values["trace.overhead_pct"] = 100.0 * (g_plain - g_traced) / g_plain
        metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u, _ in per_layer_catalog()}
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s_gmean": plain.gmean(workload.parts),
        }
        metrics = {n: {"value": float(values[n]), "unit": u} for n, u, _ in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in report["errors"]:
        print(f"# operation failed: {line}", file=sys.stderr)
    for line in fails:
        print(f"# check failed: {line}", file=sys.stderr)
    print(f"# checks: {'all passed' if not fails else f'{len(fails)} failed'}; "
          f"attempted={attempted} failed={failed}")

    report["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
