"""Benchmark for orthograph: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 bench/run.py --workload lod-sweep --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every operation
passed its check, 1 when one raised, exited non-zero or failed its check
(apart from a known program fault, which is only counted in failed), and 2
when the program cannot be imported or set up.  Result, trace and span files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
# The reference kernel's time on an uncontended core of the machine the
# README's figures come from; operation times are scaled to that host speed.
REF_S = 0.0004
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def setup(workload, workdir: Path):
    """Import orthograph, then build every input; returns (program, inputs)."""
    prog = workloads.import_program(ROOT)
    return prog, workload.build(prog, workdir)


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Set-up time in a fresh interpreter, so that first imports count."""
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise workloads.ProgramMissing("set-up took more than 120 s") from None
    if proc.returncode:
        raise workloads.ProgramMissing(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "set-up failed")
    return float(proc.stdout.split()[-1])


def reference_kernel() -> float:
    """Time a fixed piece of pure-Python work, integer and dict operations
    like the solvers' own, to gauge the host's speed at this moment.  It
    never calls orthograph, so no change to the program moves it."""
    start = time.perf_counter()
    seen, x = {}, 1
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        seen[x & 1023] = seen.get(x & 1023, 0) + (x >> 7 & 63).bit_count()
    return time.perf_counter() - start


class Runner:
    def __init__(self, workload, ops: list):
        self.workload = workload
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reported: set[str] = set()

    def one_pass(self, tracer=None) -> tuple[float, list, list]:
        """Run every operation once and check it.  Returns the busy seconds;
        each operation's latency, None where the operation failed its check
        or raised, so that a failure never counts as a fast operation; and
        the reference kernel's time, taken just before each operation."""
        gc.collect()
        busy, latencies, refs = 0.0, [], []
        for op in self.ops:
            self.attempted += 1
            if op.cert:
                op.cert.unlink(missing_ok=True)
            refs.append(reference_kernel())
            start = time.perf_counter()
            try:
                out = tracer.span("op " + op.label, op.call) if tracer else op.call()
            except Exception as exc:  # OpFailed (a non-zero exit) included
                errs = [f"raised {type(exc).__name__}: {exc}"]
                took = time.perf_counter() - start
            else:
                took = time.perf_counter() - start
                try:
                    errs = op.check(out)
                except Exception as exc:  # e.g. a certificate that was never written
                    errs = [f"check raised {type(exc).__name__}: {exc}"]
            busy += took
            latencies.append(None if errs else took)
            if not errs:
                continue
            self.failed += 1
            if op.known_fault:
                if op.label not in self.reported:
                    self.reported.add(op.label)
                    print(f"failed: {op.label}: known fault ({op.known_fault}): {errs[0]}", file=sys.stderr)
            else:
                self.errors += [f"{op.label}: {e}" for e in errs]
        self.errors += self.workload.pass_errors()
        return busy, latencies, refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = OUT / "work" / args.workload
    if not args.setup_probe:
        # nothing an earlier run wrote may pass a check of this one
        shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            start = time.perf_counter()
            setup(workload, workdir)
            print(time.perf_counter() - start)
            return 0
        workloads.import_program(ROOT)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_times = [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPS)]
        prog, built = setup(workload, workdir)
    except workloads.ProgramMissing as exc:
        print(f"cannot set up orthograph: {exc}", file=sys.stderr)
        return 2

    workload.references()
    runner = Runner(workload, workload.ops(prog, built, workdir))
    runner.errors += workload.input_errors(built)
    workload.rng.shuffle(runner.ops)

    tracer = tracing.Tracer() if args.trace else None
    pass_times, traced_times, layer_passes, host_factors = [], [], [], []
    # Each operation's passing times, scaled by the host's speed during its pass.
    scaled = [[] for _ in runner.ops]
    deadline = time.perf_counter() + args.seconds
    while True:
        busy, lat, refs = runner.one_pass()
        pass_times.append(busy)
        host_factors.append(statistics.fmean(refs) / REF_S)
        for times, x in zip(scaled, lat):
            if x is not None:
                times.append(x / host_factors[-1])
        if tracer:
            mark = tracer.mark()
            tracer.install()
            try:
                busy, _, refs = runner.one_pass(tracer)
            finally:
                tracer.uninstall()
            traced_times.append(busy / (statistics.fmean(refs) / REF_S))
            layer_passes.append(tracer.pass_figures(mark))
        if time.perf_counter() >= deadline:
            break

    if tracer:
        units = tracing.PER_LAYER
        values = tracing.combine(layer_passes)
        untraced = [t / f for t, f in zip(pass_times, host_factors)]
        values["trace.overhead_ratio"] = statistics.median(untraced) / statistics.median(traced_times)
    else:
        units = END_TO_END
        per_op = [statistics.median(t) for t in scaled if t]  # empty only when correct is false
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(per_op) / sum(per_op) if per_op else 0.0,
            "op_p50_ms": 1000 * statistics.median(per_op) if per_op else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({**result, "passes": len(pass_times), "ops_per_pass": len(runner.ops),
                   "pass_seconds": pass_times, "traced_pass_scaled_seconds": traced_times,
                   "host_factors": host_factors, "setup_seconds": setup_times,
                   "errors": runner.errors[:100]}, fh, indent=1)
    if tracer:
        tracer.write_spans(f"{stem}.spans.json")
    for err in runner.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
