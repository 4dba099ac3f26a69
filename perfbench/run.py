"""The bilevelbench benchmark: one workload per invocation.

    python3 perfbench/run.py --workload q2-noisy-slip --seed 1 --seconds 35 --trace 0

Runs the workload through the public API (``harness.parse_config``,
``build_problem``, ``resolve_schedule``, ``run_experiment``) in this
process, checks every output, and prints every metric by name with its
unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The full report, with machine facts, is also written to
``.bench_out/results/``.  The exit code is 0 when every check passed, 1 when
the correctness gate failed, and 2 when the benchmark could not start.

See perfbench/README.md for the workloads, the metrics and their spread.
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
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5       # set-ups timed before each config
TRACED_SHARE = 0.5      # share of --seconds a traced run spends on operations
REFERENCE_ITERS = 5000  # sets the reference loop's length (40 to 60 ms)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, render_configs, seed_failures  # noqa: E402


def percentile_summary(walls: list[float]) -> dict:
    """Median, and the highest whole percentile with at least ten samples
    beyond it (nearest rank), with the sample count."""
    ordered = sorted(walls)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "p": None, "value": None}
    if n > 10:
        p = (100 * (n - 10)) // n
        out["p"], out["value"] = p, ordered[max(-(-p * n // 100) - 1, 0)]
    return out


def machine_facts() -> dict:
    import numpy as np

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            **git_facts()}


def git_facts() -> dict:
    """SHA and dirty flag of the checkout; ``None`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": head.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def reference_loop() -> float:
    """Wall seconds of a fixed mix of the operations a bilevelbench iteration
    is made of: Python arithmetic, Philox generators and their normal draws,
    small dense solves and norms, and numpy arithmetic on short vectors.

    It runs no bilevelbench code, so no change to the program moves it; it
    moves only with the speed the host gives this process.  Timed next to
    every config, it is the unit of ``wall_ref``.  Four kernels rather than
    one, so that no single kernel's luck in one process (memory layout,
    hash seed) sets the unit.
    """
    import numpy as np

    a = np.arange(8.0)
    m = np.eye(5) * 3.0 + 0.1
    b = np.ones(5)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(REFERENCE_ITERS):
            v = a * 0.5 + i
            acc += float(v[3]) * 1e-9 + (i % 7) * 0.5
        for i in range(REFERENCE_ITERS // 10):
            np.random.Generator(np.random.Philox(key=i)).standard_normal(2)
        for i in range(REFERENCE_ITERS // 4):
            acc += float(np.linalg.norm(np.linalg.solve(m, b)))
        for i in range(REFERENCE_ITERS // 16):
            g = np.random.Generator(np.random.Philox(key=i)).standard_normal(5)
            acc += float(np.linalg.norm(np.linalg.solve(m, b + g)))
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


class Bench:
    """One workload at one seed: set-up, operations and the correctness gate."""

    def __init__(self, workload, seed: int, work: Path):
        from bilevelbench import harness

        self.harness = harness
        self.wl = workload
        self.work = work
        self.paths = []
        for label, text in render_configs(workload, seed):
            path = work / f"{label}.cfg"
            path.write_text(text)
            self.paths.append((label, path))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._reference = None

    def setup(self) -> list[tuple]:
        """``parse_config`` + ``build_problem`` + ``resolve_schedule`` per config."""
        out = []
        for label, path in self.paths:
            cfg = self.harness.parse_config(path)
            problem = self.harness.build_problem(cfg)
            out.append((label, cfg, problem, self.harness.resolve_schedule(cfg, problem)))
        return out

    def runs(self, configs, workers: int = 1, between=None) -> tuple[list, list]:
        """Run every config through ``run_experiment``; the wall seconds of
        each config, and the outputs.

        ``between()`` runs before each config, outside the timed region.
        """
        walls = []
        outputs = []
        for label, cfg, _, schedule in configs:
            if between:
                between()
            t0 = time.perf_counter()
            res = self.harness.run_experiment(replace(cfg, workers=workers),
                                              self.work / label)
            walls.append(time.perf_counter() - t0)
            outputs.append((label, cfg, schedule, res.metadata,
                            [p.read_bytes() for p in res.trace_paths]))
        return walls, outputs

    def check(self, outputs) -> None:
        """Gate one operation's outputs; the first operation is the reference
        that every later one must reproduce byte for byte."""
        if self._reference is None:
            self._reference = outputs
        reference = {out[0]: out[4] for out in self._reference}
        for label, cfg, schedule, meta, blobs in outputs:
            for info, blob, ref_blob in zip(meta["seeds"], blobs, reference[label],
                                            strict=True):
                self.attempted += 1
                reasons = seed_failures(cfg, schedule, self.wl.ceilings[label], info)
                if blob != ref_blob:
                    reasons.append("trace CSV differs from the first repeat")
                if reasons:
                    self._fail(f"{label} seed {info['seed']}: {'; '.join(reasons)}")

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


def oracle_calls(outputs) -> int:
    return sum(sum(info["calls"].values())
               for _, _, _, meta, _ in outputs for info in meta["seeds"]
               if "calls" in info)


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, tracing off."""
    configs = bench.setup()
    setup_s: list[float] = []
    walls: list[float] = []
    refs: list[float] = []
    loops: list[float] = []
    calls = None

    def between() -> None:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            bench.setup()
            setup_s.append(time.perf_counter() - t0)
        loops.append(reference_loop())

    def one(timed: bool) -> None:
        nonlocal calls
        first = len(loops)
        segments, outputs = bench.runs(configs, between=between)
        loops.append(reference_loop())
        around = loops[first:]
        bench.check(outputs)
        if timed:
            walls.append(sum(segments))
            # each config over the mean of the reference loops
            # timed just before and just after it
            refs.append(sum(2 * w / (a + b)
                            for w, a, b in zip(segments, around, around[1:])))
        calls = oracle_calls(outputs)

    one(timed=False)   # warm-up: lazy imports and first-call caches
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        one(timed=True)
    wall = percentile_summary(walls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gated = {
        "wall_ref": (statistics.median(refs), "ref_loop"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    shown = dict(gated)
    shown["wall_s"] = (wall["median"], "s")
    if wall["p"] is not None:
        shown[f"wall_s_p{wall['p']}"] = (wall["value"], "s")
    shown["wall_s_samples"] = (wall["n"], "count")
    shown["setup_s_samples"] = (len(setup_s), "count")
    shown["reference_loop_ms"] = (statistics.median(loops) * 1e3, "ms")
    shown["oracle_calls_per_s"] = (calls / wall["median"], "1/s")
    shown["failed_ratio"] = (bench.failed / max(bench.attempted, 1), "ratio")
    return gated, shown, {}


def probe_us(fn, batches: int = 15, per_batch: int = 40) -> float:
    """Median over batches of the mean microseconds of one ``fn(i)`` call."""
    means = []
    i = 0
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn(i)
            i += 1
        means.append((time.perf_counter() - t0) / per_batch * 1e6)
    return statistics.median(means)


def probes(bench: Bench, configs, layers: dict) -> dict:
    """Direct calls through the public API on the workload's first instance.

    They give the unit costs the spans cannot: a noiseless map against its
    noisy oracle, a loop with and without metrics, and the thread pool; and a
    draw or solve on a workload whose own operations never make one.
    """
    import numpy as np
    from bilevelbench import OracleTag, Sample, Stream, verify

    label, cfg, problem, schedule = configs[0]
    meta = problem.metadata
    x = np.full(problem.dim_x, float(cfg.inits.get("x0", meta.get("x0_default", 0.0))))
    y = np.full(problem.dim_y, float(cfg.inits.get("y0", meta.get("y0_default", 1.0))))
    seed = cfg.seeds[0]
    out = {}
    if layers["times_us"]["samples.draw"] is None:
        layers["times_us"]["samples.draw"] = probe_us(
            lambda i: Sample(Stream.PI, i, seed).generator(
                OracleTag.GRAD_Y_G).standard_normal(problem.dim_y))
    if layers["times_us"]["verify.inner_solve"] is None:
        layers["times_us"]["verify.inner_solve"] = probe_us(
            lambda i: verify.inner_solve_exact(problem, x), 5, 10)
        y_star = verify.inner_solve_exact(problem, x)
        layers["times_us"]["verify.linear_solve"] = probe_us(
            lambda i: verify.solve_linear_system_exact(problem, x, y_star), 5, 10)
    out["det_grad_y_g"] = probe_us(lambda i: problem.det.grad_y_g(x, y))
    noisy = probe_us(lambda i: problem.oracle.grad_y_G(x, y, Sample(Stream.PI, i, seed)))
    out["noise"] = noisy - out["det_grad_y_g"]

    # one seed of the first config, with the metric evaluator and with a
    # no-op one, alternating; per-iteration time from the seed's metadata
    single = [(label, replace(cfg, seeds=[seed]), problem, schedule)]
    harness = bench.harness
    default_metrics = harness.default_metrics
    per_iter = {True: [], False: []}
    for _ in range(3):
        for with_metrics in (True, False):
            if not with_metrics:
                harness.default_metrics = lambda prob: (lambda *a: (None,) * 5)
            try:
                _, outputs = bench.runs(single)
            finally:
                harness.default_metrics = default_metrics
            info = outputs[0][3]["seeds"][0]
            per_iter[with_metrics].append(info["wall_seconds"] / schedule.T * 1e6)
    out["iter"] = statistics.median(per_iter[True])
    out["iter_nometrics"] = statistics.median(per_iter[False])

    # the first config at one and at two worker threads, alternating
    pool = {1: [], 2: []}
    for _ in range(2):
        for workers in (1, 2):
            walls, outputs = bench.runs(configs[:1], workers)
            bench.check(outputs)
            pool[workers].append(sum(walls))
    out["pool_speedup"] = statistics.median(pool[1]) / statistics.median(pool[2])
    return out


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics: traced operations alternate with untraced ones."""
    from tracing import Tracer, installed, layer_metrics

    tracer = Tracer()
    configs = bench.setup()
    untraced, traced, meta_calls = [], [], []
    t_start = time.perf_counter()
    bench.check(bench.runs(configs)[1])
    while not traced or time.perf_counter() - t_start < TRACED_SHARE * seconds:
        walls, outputs = bench.runs(configs)
        bench.check(outputs)
        untraced.append(sum(walls))
        with installed(tracer):
            walls, outputs = bench.runs(configs)
        tracer.run += 1
        bench.check(outputs)
        traced.append(sum(walls))
        meta_calls.append(oracle_calls(outputs))
    cols = tracer.columns()
    layers = layer_metrics(cols, tracer.names)
    extra = probes(bench, configs, layers)
    tracer.save(OUT / f"spans-{bench.wl.name}.npz")

    times, counts = layers["times_us"], layers["counts"]
    seed_s = [info["wall_seconds"] for meta in tracer.metadata for info in meta["seeds"]]
    metrics = {
        "samples.draw_us": (times["samples.draw"], "us"),
        "samples.draws": (counts["samples.draws"][0], "count"),
        **{f"problem.{n}_us": (times[f"problem.{n}"], "us")
           for n in ("grad_x_F", "grad_y_F", "grad_y_G", "hvp_xy_G", "hvp_yy_G")},
        "problem.det_grad_y_g_us": (extra["det_grad_y_g"], "us"),
        "problem.noise_us": (extra["noise"], "us"),
        "problem.calls": (counts["problem.calls"][0], "count"),
        "algorithms.iter_us": (extra["iter"], "us"),
        "algorithms.iter_nometrics_us": (extra["iter_nometrics"], "us"),
        "algorithms.self_us": (times["algorithms.self"], "us"),
        "algorithms.metrics_us": (times["algorithms.metrics"], "us"),
        "algorithms.warm_step_us": (times["algorithms.warm_step"], "us"),
        "verify.inner_solve_us": (times["verify.inner_solve"], "us"),
        "verify.linear_solve_us": (times["verify.linear_solve"], "us"),
        "verify.solves": (counts["verify.solves"][0], "count"),
        "harness.seed_s": (statistics.median(seed_s), "s"),
        "harness.pool_speedup": (extra["pool_speedup"], "ratio"),
        "trace.write_ms": (times["trace.write"] / 1e3, "ms"),
        "trace.encode_us_per_row": (times["trace.encode_per_row"], "us"),
        "trace.bytes": (counts["trace.bytes"][0], "count"),
        # each traced operation against the untraced one just before it
        "bench.trace_overhead": (statistics.median(
            t / u for t, u in zip(traced, untraced)) - 1, "ratio"),
    }
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        raise RuntimeError(f"no measurement for {missing}")
    shown = dict(metrics)
    shown["wall_s_untraced"] = (statistics.median(untraced), "s")
    shown["wall_s_traced"] = (statistics.median(traced), "s")
    shown["traced_operations"] = (len(traced), "count")
    shown["spans"] = (layers["spans"], "count")
    notes = {"counts_repeat": {k: len(set(v)) == 1 for k, v in counts.items()}}
    # oracle calls made minus those the metadata reports (doubleloop's final
    # refinement runs after the last trace row is written)
    notes["calls_unrecorded_per_operation"] = [
        int(c - m) for c, m in zip(counts["problem.calls"], meta_calls)]
    return metrics, shown, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "bilevelbench" / "__init__.py").is_file():
        print(f"bilevelbench sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bilevelbench

    if Path(bilevelbench.__file__).resolve().parent != src / "bilevelbench":
        print(f"imported bilevelbench from {bilevelbench.__file__}, not {src}",
              file=sys.stderr)
        return 2

    facts = machine_facts()
    facts["loadavg_start"] = os.getloadavg()
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, args.seed, work)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, shown, notes = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_end"] = os.getloadavg()

    correct = bench.failed == 0
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": bench.attempted,
              "failed": bench.failed, "failures": bench.failures, "machine": facts,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
              **notes}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{'correct' if correct else 'INCORRECT'}  "
          f"{bench.attempted - bench.failed}/{bench.attempted} operations passed")
    for reason in bench.failures:
        print(f"  failed: {reason}")
    for name, (value, unit) in shown.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    print(f"  machine: {json.dumps(facts)}")
    print(f"  report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
