"""fastjl benchmark: one workload, one process, one JSON line of results.

    python3 perfbench/run.py --workload jlp --seed 1 --seconds 10 --trace 0

Run from the root of a fastjl checkout; the package is imported from its
src/ directory.  With --trace 0 the workload is set up, then runs whole
rounds for about --seconds seconds, and the end-to-end metrics are printed.
With --trace 1 a fixed number of rounds runs twice, alternately traced and
untraced, and the per-layer metrics are printed.  Either way the workload's
untimed calls follow the rounds (traced, in a traced run), and then every
round's output and theirs is checked; a failed check prints "correct":
false, names the workload and the check on stderr, and exits with code 1.
"""

import os
import time


def _process_start() -> float:
    """The perf_counter() reading at which this process was started.

    The kernel's start time of the process (in clock ticks since boot) is
    compared with CLOCK_BOOTTIME, so interpreter start-up and site imports
    count; where /proc is not readable, this module's first line stands in.
    """
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        age = 0.0
    return time.perf_counter() - max(age, 0.0)


_PROCESS_START = _process_start()

# OpenBLAS picks its thread count by problem size, which makes a timing
# depend on the thread scheduler on a small machine.  Pin it to one thread
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

WORKLOADS = ("jlp", "apply")


def timed_run(wl, seed: int, seconds: float):
    wl.setup(seed)
    setup_s = time.perf_counter() - _PROCESS_START
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(wl.run_round(len(results)))
        # Stop at the round boundary nearest to the requested duration.
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untimed = wl.run_untimed()
    ops = len(results) * wl.ops_per_round
    metrics = {
        "ops_per_s": (ops / elapsed, "op/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return ops, results, untimed, metrics


def traced_run(wl, seed: int, out_dir: Path):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    wl.setup(seed)
    bits0, gauss0 = tracer.draws()
    # Traced and untraced repetitions of each round alternate, so that a
    # change in the host's speed shows in both sides of trace.overhead_s.
    untraced = []
    traced_s = untraced_s = 0.0
    for k in range(wl.trace_rounds):
        t0 = time.perf_counter()
        wl.run_round(k)
        traced_s += time.perf_counter() - t0
        tracer.uninstall()
        t0 = time.perf_counter()
        untraced.append(wl.run_round(k))
        untraced_s += time.perf_counter() - t0
        if k + 1 < wl.trace_rounds:
            tracer.install()
    # Only BitSources made while the wrappers were installed are counted.
    bits1, gauss1 = tracer.draws()
    tracer.install()
    untimed = wl.run_untimed()
    tracer.uninstall()

    round_ops = wl.trace_rounds * wl.ops_per_round
    own = tracer.summary()
    values = {}
    for name in tracing.span_names():
        self_s, calls = own.get(name, (0.0, 0))
        values[f"{name}.self_s"] = self_s
        values[f"{name}.calls"] = calls
    values["randomness.bits_per_op"] = (bits1 - bits0) / round_ops
    values["randomness.gaussians_per_op"] = (gauss1 - gauss0) / round_ops
    values["randomness.permutation_bits_per_entropy_bit"] = (
        tracer.permutation_bits / tracer.permutation_entropy_bits
        if tracer.permutation_entropy_bits
        else 0.0
    )
    values["trace.spans"] = len(tracer.start)
    values["trace.overhead_s"] = traced_s - untraced_s
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{wl.name}.json")
    units = tracing.metric_units()
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return 2 * round_ops, untraced, untimed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import fastjl from {HERE.parent / 'src'}: {exc}", file=sys.stderr)
        return 2
    import checks

    wl = workloads.WORKLOADS[args.workload]()
    if args.trace:
        attempted, results, untimed, metrics = traced_run(wl, args.seed, workloads.OUT_DIR)
    else:
        attempted, results, untimed, metrics = timed_run(wl, args.seed, args.seconds)

    correct = True
    try:
        wl.check(results, untimed)
    except checks.CheckFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        correct = False
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": 0,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
