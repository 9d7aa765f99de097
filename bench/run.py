"""Benchmark of conicsteps: four seeded workloads, end to end and per layer.

Usage::

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seconds 25          # every workload, both modes

``--trace 0`` measures the end-to-end metrics: p90 op latency of a closed
loop (one client, one op at a time) and the median set-up time of several
fresh processes.  ``--trace 1`` measures the per-layer metrics: an untraced
and a traced pass over the same inputs, the kernel microbenchmark, and
cold-start probes.  Every op is checked outside its timed interval.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with run context and the sha256 of the workload's output bytes, is written
to ``bench/out/<workload>-seed<seed>-trace<mode>.json``; span records of
the first traced cycle go to ``bench/out/spans-<workload>-seed<seed>.jsonl``.
See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
NAMES = ("sweep", "telescope", "figures", "cli")

MIN_OPS = 100  # so that ten samples lie beyond p90
SETUP_SAMPLES = 9  # fresh-process set-ups spread over an end-to-end run
PROBE_ROUNDS = 20  # cold-start probe rounds spread over the untraced pass
PARSES_PER_ROUND = 5


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_context(args, backend: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


# ------------------------------------------------------------------ loops

class Loop:
    """A closed loop over whole cycles of a workload's inputs."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.first_error: str | None = None

    def run_one(self, op, i: int):
        """Run and check op ``i``; returns (latency ns, ok, output)."""
        clock = time.perf_counter_ns
        t0 = clock()
        try:
            out = op(i)
        except Exception:  # a failed op is counted, never fatal
            t1 = clock()
            self._note(traceback.format_exc())
            return t1 - t0, False, None
        t1 = clock()
        try:
            ok = bool(self.w.check(i, out))
        except Exception:
            self._note(traceback.format_exc())
            ok = False
        if not ok:
            self._note(f"op {i} failed its check")
        return t1 - t0, ok, out

    def _note(self, text: str) -> None:
        if self.first_error is None:
            self.first_error = text
            print(f"{self.w.name}: {text}", file=sys.stderr)

    def measure(self, op, seconds: float, tracer=None, pauses: int = 0, pause=None):
        """Whole cycles until ``seconds`` have passed and MIN_OPS ran.

        ``pause(k)`` runs between cycles once (k + 1/2) / pauses of the time
        has passed, for k < pauses, so that samples taken there spread over
        the run; time spent in pauses does not count.  Each op is preceded
        and followed by a reference-loop timing (see calibrate.py).  Returns (latencies
        ns, reference times s, failed, first-cycle output bytes).
        """
        n = len(self.w.inputs)
        latencies: list[int] = []
        refs: list[float] = []
        failed = 0
        outputs: list[bytes] = []
        start = time.perf_counter()
        paused = 0.0
        done = 0

        def elapsed() -> float:
            return time.perf_counter() - start - paused

        while (elapsed() < seconds or len(latencies) < MIN_OPS) and elapsed() < 4 * seconds:
            for i in range(n):
                refs.append(calibrate.reference_seconds())
                if tracer is not None:
                    tracer.begin_op(len(latencies), record=len(latencies) < n)
                ns, ok, out = self.run_one(op, i)
                if tracer is not None:
                    tracer.end_op()
                refs.append(calibrate.reference_seconds())
                latencies.append(ns)
                failed += not ok
                if len(outputs) < n:
                    outputs.append(self.w.output_bytes(i, out) if ok else b"")
            while done < pauses and elapsed() >= (done + 0.5) * seconds / pauses:
                t0 = time.perf_counter()
                pause(done)
                paused += time.perf_counter() - t0
                done += 1
        return latencies, refs, failed, outputs


def setup_seconds(name: str, seed: int, workdir: str) -> tuple[float, float]:
    """Set-up time of one fresh process and its reference time (see setup_child.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_child.py"), name, str(seed), workdir],
        env=child_env(), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}{proc.stdout}")
    setup, ref = proc.stdout.split()
    return float(setup), float(ref)


def timed_process(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=child_env(), check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


class ColdStartProbe:
    """One round: ``python -c pass``, ``python -c "import conicsteps"`` and
    PARSES_PER_ROUND in-process ``parse_scene`` calls; samples in seconds."""

    def __init__(self, scene_text: str) -> None:
        self.scene_text = scene_text
        self.start_s: list[float] = []
        self.import_s: list[float] = []
        self.parse_s: list[float] = []

    def __call__(self, k: int) -> None:
        from conicsteps import parse_scene

        self.start_s.append(timed_process([sys.executable, "-c", "pass"]))
        self.import_s.append(timed_process([sys.executable, "-c", "import conicsteps"]))
        for _ in range(PARSES_PER_ROUND):
            t0 = time.perf_counter()
            parse_scene(self.scene_text)
            self.parse_s.append(time.perf_counter() - t0)


# ------------------------------------------------------------- the modes

def calibrated_p90(latencies: list[int], refs: list[float]) -> float:
    """p90 op latency in seconds at the nominal speed of calibrate.py.

    Reference times are taken just before and just after each op, so in a
    run that mixes speed states both p90s fall in the same (slow) state.
    """
    return percentile(latencies, 90) / 1e9 * calibrate.NOMINAL_S / percentile(refs, 90)


def end_to_end(args, workload, loop: Loop, workdir: str) -> tuple[dict, dict, int, int]:
    setup: list[tuple[float, float]] = []

    def setup_sample(k: int) -> None:
        sub = os.path.join(workdir, f"setup-{k}")
        os.makedirs(sub)
        setup.append(setup_seconds(args.workload, args.seed, sub))
        shutil.rmtree(sub)

    latencies, refs, failed, outputs = loop.measure(workload.op, args.seconds,
                                                    pauses=SETUP_SAMPLES, pause=setup_sample)
    wall = sum(latencies) / 1e9
    metrics = {
        "latency_p90_ms": {"value": calibrated_p90(latencies, refs) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(t * calibrate.NOMINAL_S / r for t, r in setup),
                    "unit": "s"},
    }
    extra = {
        "samples": len(latencies),
        "latency_p90_raw_ms": percentile(latencies, 90) / 1e6,
        "latency_p50_raw_ms": percentile(latencies, 50) / 1e6,
        "throughput_raw_ops_s": len(latencies) / wall,
        "fail_ratio": failed / len(latencies),
        "setup_raw_s": statistics.median(t for t, _ in setup),
        "reference_p50_ms": percentile(refs, 50) * 1e3,
        "reference_p90_ms": percentile(refs, 90) * 1e3,
        "setup_samples_s": setup,
        "output_sha256": hashlib.sha256(b"".join(outputs)).hexdigest(),
    }
    return metrics, extra, len(latencies), failed


def per_layer(args, workload, loop: Loop, workdir: str) -> tuple[dict, dict, int, int]:
    import conicsteps
    import kernel_timing
    import tracing
    import workloads

    probe = ColdStartProbe(workloads.probe_scene_text(args.seed))
    plain, plain_refs, failed_plain, _ = loop.measure(workload.traced_op, args.seconds / 2,
                                          pauses=PROBE_ROUNDS, pause=probe)
    kernel_ns = kernel_timing.kernel_ns_per_call(conicsteps._backend.kernels, args.seed)

    tracer = tracing.Tracer()
    tracer.install(extra_namespaces=(workloads,))
    try:
        traced, traced_refs, failed_traced, _ = loop.measure(workload.traced_op, args.seconds / 2,
                                                tracer=tracer)
    finally:
        tracer.uninstall()

    ops = len(traced)
    busy = sum(traced)
    calls, counts = tracer.calls, tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kernel_calls = tracer.calls_matching("kernels.")
    values = {
        "construction.exact_return_calls_per_op": ratio(calls["construction.exact_return"], ops),
        "construction.residual_evals_per_exact_return":
            ratio(counts["residual_in_exact_return"], calls["construction.exact_return"]),
        "kernels.calls_per_op": ratio(kernel_calls, ops),
        "kernels.us_per_call": ratio(tracer.inclusive_matching("kernels.") / 1e3, kernel_calls),
        "kernels.nearest_ok_ratio": ratio(counts["nearest_ok"], counts["nearest_attempts"]),
        "optics.intersect_calls_per_op": ratio(calls["optics.intersect_ray"], ops),
        "optics.hits_per_intersect":
            ratio(counts["intersect_nonempty"], calls["optics.intersect_ray"]),
        "optics.bounces_per_trace": ratio(counts["bounces"], calls["optics.trace"]),
        "geometry.points_per_op": ratio(counts["points"], ops),
        "geometry.directions_per_op": ratio(counts["directions"], ops),
        "conics.residual_calls_per_op": ratio(calls["conics.Conic.residual"], ops),
        "conics.placement_calls_per_op": ratio(tracer.calls_matching("conics.Placement."), ops),
        "conics.point_at_calls_per_op": ratio(calls["conics.Conic.point_at"], ops),
        "svgout.bytes_per_op": ratio(counts["svg_bytes"], ops),
        "sceneio.parse_ms": percentile(probe.parse_s, 90) * 1e3,
        "cli.import_ms": percentile(probe.import_s, 90) * 1e3,
        "cli.interpreter_start_ms": percentile(probe.start_s, 90) * 1e3,
        "trace_overhead": calibrated_p90(traced, traced_refs) / calibrated_p90(plain, plain_refs),
    }
    for layer in tracing.LAYERS:
        values[f"{layer}.self_share"] = ratio(tracer.self_ns[layer], busy)
    for name, ns in kernel_ns.items():
        values[f"kernels.{name}_ns"] = ns

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    extra = {
        "samples_untraced": len(plain),
        "samples_traced": ops,
        "probe_rounds": len(probe.start_s),
        "parse_samples": len(probe.parse_s),
        "untraced_p90_raw_ms": percentile(plain, 90) / 1e6,
        "traced_p90_raw_ms": percentile(traced, 90) / 1e6,
        "harness_self_share": 1.0 - sum(values[f"{l}.self_share"] for l in tracing.LAYERS),
        "calls_per_op": {name: n / ops for name, n in sorted(calls.items())},
        "recorded_spans": len(tracer.spans),
    }
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(spans_path, "w") as fh:
        for op_id, name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"op": op_id, "name": name, "start_ns": start,
                                 "end_ns": end, "parent": parent}) + "\n")
    return metrics, extra, len(plain) + ops, failed_plain + failed_traced


# Per-layer metric -> unit; the set BENCHMARK.json lists under "per_layer".
PER_LAYER_UNITS = {
    "construction.exact_return_calls_per_op": "count/op",
    "construction.residual_evals_per_exact_return": "count",
    "construction.self_share": "ratio",
    "kernels.calls_per_op": "count/op",
    "kernels.us_per_call": "us",
    "kernels.self_share": "ratio",
    "kernels.nearest_ok_ratio": "ratio",
    "kernels.ellipse_residual_ns": "ns",
    "kernels.ellipse_gradient_ns": "ns",
    "kernels.ellipse_point_ns": "ns",
    "kernels.ellipse_ray_coeffs_ns": "ns",
    "kernels.quadratic_roots_ns": "ns",
    "kernels.ellipse_nearest_param_ns": "ns",
    "convergence.self_share": "ratio",
    "optics.intersect_calls_per_op": "count/op",
    "optics.hits_per_intersect": "ratio",
    "optics.bounces_per_trace": "count",
    "optics.self_share": "ratio",
    "geometry.points_per_op": "count/op",
    "geometry.directions_per_op": "count/op",
    "geometry.self_share": "ratio",
    "conics.residual_calls_per_op": "count/op",
    "conics.placement_calls_per_op": "count/op",
    "conics.point_at_calls_per_op": "count/op",
    "conics.self_share": "ratio",
    "svgout.self_share": "ratio",
    "svgout.bytes_per_op": "bytes/op",
    "sceneio.parse_ms": "ms",
    "sceneio.self_share": "ratio",
    "cli.import_ms": "ms",
    "cli.interpreter_start_ms": "ms",
    "cli.self_share": "ratio",
    "trace_overhead": "ratio",
}


def recorded_digest(name: str, seed: int) -> str | None:
    with open(os.path.join(BENCH_DIR, "digests.json")) as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def run_workload(args) -> int:
    # The CPUs change speed independently of each other; on one CPU the
    # reference loop and the work it calibrates (child processes included,
    # which inherit the affinity) see the same speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import conicsteps
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        context = run_context(args, conicsteps.BACKEND)
        workload = workloads.build(args.workload, args.seed, workdir)
        loop = Loop(workload)
        _, warm_ok, _ = loop.run_one(workload.traced_op if args.trace else workload.op, 0)
        mode = per_layer if args.trace else end_to_end
        metrics, extra, attempted, failed = mode(args, workload, loop, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += 1
    failed += not warm_ok

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if "output_sha256" in extra:
        recorded = recorded_digest(args.workload, args.seed)
        extra["output_sha256_recorded"] = recorded
        extra["output_bytes"] = ("no digest recorded for this seed" if recorded is None else
                                 "unchanged" if recorded == extra["output_sha256"] else "CHANGED")
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"context": context, **result, "extra": extra}, fh, indent=2)
        fh.write("\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} backend={context['backend']} "
          f"python={context['python']} nproc={context['nproc']} "
          f"loadavg={context['loadavg'][0]:.2f} commit={context['commit']}")
    print(f"  attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.4g}")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    for name, value in extra.items():
        if not isinstance(value, (dict, list)):
            print(f"  ({name}) {value}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in its own process; a summary table."""
    os.makedirs(OUT, exist_ok=True)
    summary = {}
    for name in NAMES:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(proc.stdout, end="")
                return proc.returncode
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{trace}.json")
            with open(path) as fh:
                summary.setdefault(name, {})[f"trace{trace}"] = json.load(fh)
    print(f"{'workload':<10} {'p90 ms':>9} {'raw p90':>9} {'raw p50':>9} {'samples':>8} "
          f"{'setup s':>8} {'fail_ratio':>10} {'overhead':>9}  output")
    for name, runs in summary.items():
        e, t = runs["trace0"], runs["trace1"]
        x = e["extra"]
        print(f"{name:<10} {e['metrics']['latency_p90_ms']['value']:>9.3f} "
              f"{x['latency_p90_raw_ms']:>9.3f} {x['latency_p50_raw_ms']:>9.3f} {x['samples']:>8} "
              f"{e['metrics']['setup_s']['value']:>8.4f} {x['fail_ratio']:>10.3g} "
              f"{t['metrics']['trace_overhead']['value']:>9.2f}  {x['output_bytes']}")
    with open(os.path.join(OUT, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    correct = all(r["correct"] for runs in summary.values() for r in runs.values())
    print(json.dumps({"correct": correct, "summary": os.path.relpath(
        os.path.join(OUT, "summary.json"), ROOT)}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "conicsteps", "__init__.py")):
        print(f"error: no conicsteps sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
