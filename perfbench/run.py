#!/usr/bin/env python3
"""Benchmark of the mtwcheck command line, run in-process through cli.main.

    python3 perfbench/run.py --workload scan-dense --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

Run from the root of a source checkout; the package is imported from src/.
One workload runs whole passes over its seeded ops for about --seconds and
prints, as its last line, one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  --workload all runs every workload, untraced and traced, each in
a fresh process, and prints every metric by name.  See README.md.
"""

import os

# Single-threaded numeric libraries, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")

WORKLOAD_NAMES = ("scan-dense", "scan-newton", "routes", "scan-export")
SETUP_PROBES = 7
SPEED_SAMPLES_PER_PROBE = 9
PROBE_TIMEOUT_S = 60
MAX_REPORTED_MISMATCHES = 5
WARM_UP_S = 4.0
# A tail needs this many samples beyond it, and a run at least MIN_OPS ops.
TAIL_BEYOND = 10
MIN_OPS = 4 * TAIL_BEYOND


def setup(workload, seed):
    """Import the program and build the workload's ops: the work before op 1."""
    sys.path.insert(0, SRC)
    from mtwcheck import cli
    csv_dir = os.path.join(OUT, "csv")
    os.makedirs(csv_dir, exist_ok=True)
    return cli, workloads.make_ops(workload, seed, csv_dir)


def probe_setup_seconds(workload, seed):
    """CPU time a fresh interpreter spends from its start to its ops being ready.

    Returns it scaled to the nominal machine speed, and as measured.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
    cpu, ref = (float(x) for x in proc.stdout.split()[-2:])
    return cpu * speed.nominal(speed.SETUP_KERNELS) / ref, cpu


def program_caches():
    """The package's memo caches; a CLI process starts with them empty."""
    return [obj for name, module in list(sys.modules.items())
            if name == "mtwcheck" or name.startswith("mtwcheck.")
            for obj in vars(module).values()
            if callable(getattr(obj, "cache_clear", None))]


class Runner:
    """Runs ops through cli.main, times them and tallies their checks."""

    def __init__(self, cli, caches, kernels):
        self.cli = cli
        self.caches = caches
        self.kernels = kernels
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def run_op(self, op, count=True):
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        report, exit_code, crash = None, None, None
        started = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                exit_code = self.cli.main(list(op.argv))
        except Exception as exc:  # the op failed; the run goes on to report it
            crash = f"{type(exc).__name__}: {exc}"
        elapsed = time.process_time() - started
        lines = out.getvalue().strip().splitlines()
        if lines:
            try:
                report = json.loads(lines[-1])
            except json.JSONDecodeError:
                report = None
        try:
            if crash is not None:
                raise checks.CheckFailure(f"{op.label}: raised {crash}")
            op.check(exit_code, report)
            message = None
        except checks.CheckFailure as exc:
            message = f"{exc} (stderr: {err.getvalue().strip()[:200]!r})"
        self.attempted += count
        if message is not None and not op.known_fault:
            self.mismatches.append(message)
        elif message is not None:
            self.failed += count
        return elapsed

    def warm_up(self, ops, seconds):
        """Whole passes over ops, checked but neither timed nor counted.

        In the first seconds of a process the speed kernel ran slower
        relative to the ops than later on (scaled scan-newton times 20% lower
        in a first 4 s block than in the next three), so timing starts after.
        """
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for op in ops:
                self.run_op(op, count=False)
                speed.sample(self.kernels)

    def run_passes(self, ops, seconds, min_ops=1):
        """Whole passes over ops until seconds have passed and min_ops ops ran.

        A speed-reference sample is taken before every op and after the last.
        Returns each pass's op times, in the order of ops, twice: as measured
        and scaled to the nominal machine speed.
        """
        raw, refs = [], [speed.sample(self.kernels)]
        started = time.perf_counter()
        while True:
            for op in ops:
                raw.append(self.run_op(op))
                refs.append(speed.sample(self.kernels))
            if time.perf_counter() - started >= seconds and len(raw) >= min_ops:
                break
        scaled = speed.normalise(raw, refs, self.kernels)
        return ([raw[i:i + len(ops)] for i in range(0, len(raw), len(ops))],
                [scaled[i:i + len(ops)] for i in range(0, len(scaled), len(ops))])


def op_stats(passes):
    """Number of ops, total op time, the mean over inputs of each input's
    median, and the tail: the highest op time with TAIL_BEYOND ops above it."""
    times = sorted(t for one_pass in passes for t in one_pass)
    per_input = [statistics.median(samples) for samples in zip(*passes)]
    return len(times), sum(times), statistics.fmean(per_input), times[-TAIL_BEYOND - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args):
    setup_samples = ([] if args.trace else
                     [probe_setup_seconds(args.workload, args.seed)
                      for _ in range(SETUP_PROBES)])
    cli, ops = setup(args.workload, args.seed)
    runner = Runner(cli, program_caches(), speed.WORKLOAD_KERNELS[args.workload])
    runner.warm_up(ops, WARM_UP_S)

    if not args.trace:
        raw, scaled = runner.run_passes(ops, args.seconds, min_ops=MIN_OPS)
        count, total, typical, tail = op_stats(scaled)
        _, raw_total, raw_typical, raw_tail = op_stats(raw)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "op_ms.p50": _metric(1000.0 * typical, "ms"),
            "ops_per_s": _metric(count / total, "1/s"),
            "setup_s": _metric(statistics.median(s for s, _ in setup_samples), "s"),
            "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
        }
        print(f"{args.workload}: {count} ops, tail (p{100.0 * (1 - TAIL_BEYOND / count):.1f}) "
              f"{1000.0 * tail:.4f} ms; as measured, before scaling to the nominal speed: "
              f"op_ms.p50 {1000.0 * raw_typical:.4f} ms, tail {1000.0 * raw_tail:.4f} ms, "
              f"ops_per_s {count / raw_total:.4f} 1/s, setup_s "
              f"{statistics.median(raw for _, raw in setup_samples):.4f} s")
    else:
        plain_count, plain_total, _, _ = op_stats(runner.run_passes(ops, args.seconds / 2.0)[1])
        tracer = Tracer()
        tracer.install()
        count, total, _, _ = op_stats(runner.run_passes(ops, args.seconds / 2.0)[1])
        untraced_rate, traced_rate = plain_count / plain_total, count / total
        overhead = untraced_rate / traced_rate - 1.0
        metrics = {name: _metric(value, unit)
                   for name, (value, unit) in tracer.per_op(count).items()}
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_ops": count, "untraced_ops": plain_count,
                       "untraced_ops_per_s": untraced_rate, "traced_ops_per_s": traced_rate,
                       "tracing_overhead": overhead, **tracer.summary()}, fh, indent=1)
        print(f"{args.workload}: tracing overhead {100.0 * overhead:+.1f}% "
              f"({untraced_rate:.3f} ops/s untraced, {traced_rate:.3f} ops/s traced); "
              f"trace in {trace_path}")

    for message in runner.mismatches[:MAX_REPORTED_MISMATCHES]:
        print(f"MISMATCH {message}", file=sys.stderr)
    print(json.dumps({"correct": not runner.mismatches, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    all_correct = True
    for workload in WORKLOAD_NAMES:
        results[workload] = {}
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} --trace {trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            results[workload]["traced" if trace else "untraced"] = result
            all_correct &= result["correct"]
            print(f"{workload} ({'traced' if trace else 'untraced'}): "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {str(result['correct']).lower()}")
            for line in lines[:-1]:
                print(f"  {line}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"results-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"results in {path}")
    print(json.dumps({"correct": all_correct, "workloads": results}))
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mtwcheck", "cli.py")):
        print(f"error: no mtwcheck sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed)
        cpu = time.process_time()
        ref = statistics.median(speed.sample(speed.SETUP_KERNELS)
                                for _ in range(SPEED_SAMPLES_PER_PROBE))
        print(cpu, ref)
        return 0
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
