"""One workload in one fresh, single-threaded process.

Set-up runs from the top of this file (before picard3 is imported) to the
first timed operation: the import, building the workload's inputs and a
warm-up on inputs that are never timed.  Then rounds of operations run as a
closed loop with one caller until ``--seconds`` have passed, each round
whole.  With ``--trace 1`` a fixed number of rounds runs instead, in pairs:
one round untraced, one round traced, so that both the per-layer counts and
the tracing overhead come from the same run.

Host speed.  The host is shared and its speed changes, for seconds or
minutes at a time, by up to about 1.75x.  So every timed operation is
bracketed by runs of a fixed pure-Python yardstick, and its wall time is
also reported scaled to reference speed:
``wall * YARDSTICK_REF_S / (mean of the two yardstick times around it)``.
The set-up time is scaled the same way, by yardstick runs right after it.
The yardstick never changes, and never calls picard3.

Prints one JSON object as its last line of standard output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import gcd  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
YARDSTICK_REF_S = 0.0005   # the yardstick's time at reference speed


def _yardstick():
    acc, d = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
        d[i % 13] = d.get(i % 13, 0) + gcd(i * 7919, 104729)
    return acc, d


def yardstick_s() -> float:
    """Wall time of one yardstick run, with the cyclic GC held off so that
    the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _yardstick()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0 < q <= 100)."""
    i = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * q // 100) - 1))
    return sorted_values[int(i)]


def timing_summary(ops):
    """Figures over (kind, wall s, scaled s) triples.

    p50_scaled_ms (gated): for each kind, the median of its scaled times; the
    mean of these medians, each kind weighted by its number of operations.
    A median over all operations would fall between kinds of different cost.
    The rest are for reference: the median and the highest of
    75/90/95/99/99.9 with at least ten samples beyond it, of the wall times,
    and operations per second from the total wall time.
    """
    n = len(ops)
    if not n:
        return {"n": 0}
    by_kind = {}
    for kind, _, s in ops:
        by_kind.setdefault(kind, []).append(s)
    p50_by_kind = {k: percentile(sorted(v), 50) * 1e3 for k, v in by_kind.items()}
    wall = sorted(w for _, w, _ in ops)
    out = {"n": n,
           "p50_scaled_ms": sum(p50_by_kind[k] * len(v) for k, v in by_kind.items()) / n,
           "p50_scaled_ms_by_kind": p50_by_kind,
           "p50_ms": percentile(wall, 50) * 1e3, "ops_per_s": n / sum(wall),
           "tail": None}
    if n >= 40:
        for q in (99.9, 99, 95, 90, 75):
            beyond = n - -(-n * q // 100)
            if beyond >= 10:
                out["tail"] = {"percentile": q, "ms": percentile(wall, q) * 1e3,
                               "samples_beyond": int(beyond)}
                break
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="file for the traced run's spans")
    args = p.parse_args(argv)

    import picard3
    if Path(picard3.__file__).resolve().parent != SRC / "picard3":
        print(f"worker: picard3 imported from {picard3.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    setup_s = time.perf_counter() - T0
    setup_yard_s = statistics.median(yardstick_s() for _ in range(5))
    setup = {"setup_s": setup_s, "setup_yardstick_s": setup_yard_s,
             "setup_scaled_s": setup_s * YARDSTICK_REF_S / setup_yard_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = Tracer() if args.trace else None
    rounds = None
    if args.trace:
        rounds = 2 * max(1, round(args.seconds * wl.trace_rounds_per_s / 2))
    ops = []    # (kind, traced, wall s, index of the yardstick run before it)
    yards = []  # yardstick times, one before each operation and one at the end
    attempted = failed = wrong = 0
    messages = []
    start = time.perf_counter()
    deadline = start + args.seconds
    r = 0
    exhausted = False
    peak_rss_mib = None
    while rounds is None or r < rounds:
        inputs = wl.next_round()
        if inputs is None:
            exhausted = True
            break
        traced = tracer is not None and r % 2 == 1
        for kind, inp in inputs:
            attempted += 1
            yards.append(yardstick_s())
            try:
                if traced:
                    out, dt = tracer.call(wl.op, inp)
                else:
                    t = time.perf_counter()
                    out = wl.op(inp)
                    dt = time.perf_counter() - t
            except Exception as exc:  # a fault of the program: count, go on
                failed += 1
                if len(messages) < 5:
                    messages.append(f"operation failed: {exc!r}")
                continue
            ops.append((kind, traced, dt, len(yards) - 1))
            try:
                wl.check(inp, out)
            except workloads.CheckError as exc:
                wrong += 1
                if len(messages) < 5:
                    messages.append(f"wrong output: {exc}")
        r += 1
        if peak_rss_mib is None and attempted >= wl.rss_after_ops:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if (rounds is None and time.perf_counter() >= deadline
                and peak_rss_mib is not None):
            break
    yards.append(yardstick_s())
    elapsed = time.perf_counter() - start
    if peak_rss_mib is None:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        wl.final_check()
    except workloads.CheckError as exc:
        wrong += 1
        messages.append(f"wrong output: {exc}")

    def scaled(traced_rounds):
        return [(kind, dt, dt * 2 * YARDSTICK_REF_S / (yards[y] + yards[y + 1]))
                for kind, traced, dt, y in ops if traced == traced_rounds]

    result = dict(setup, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=r, pool_exhausted=exhausted, elapsed_s=elapsed,
                  attempted=attempted, failed=failed, wrong=wrong,
                  messages=messages, peak_rss_mib=peak_rss_mib,
                  yardstick_p50_ms=statistics.median(yards) * 1e3,
                  untraced=timing_summary(scaled(False)))
    if tracer is not None:
        result["traced"] = timing_summary(scaled(True))
        result["layers"] = tracer.summary()
        result["missing_functions"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    else:
        kinds = sorted({k for k, _, _ in scaled(False)})
        result["kinds"] = kinds
        result["ops"] = [(kinds.index(k), dt, s) for k, dt, s in scaled(False)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
