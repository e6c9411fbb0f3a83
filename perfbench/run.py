"""picard3 benchmark: one workload per call, each in its own fresh process.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0

Run from the root of a picard3 checkout; picard3 is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (op_p50_ms, setup_s, peak_rss_mib); with ``--trace 1`` it
holds the per-layer metrics of a traced run.  The lines before it give
reference figures that are not gated.  Every run also writes its full result
to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import YARDSTICK_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("roundtrip", "gram_suites", "analyze_mn")
SETUP_ONLY_RUNS = 8   # set-up is also timed in the measuring process: median of 9
TIME_LIMIT_S = 170


def spawn(args, deadline):
    """Run worker.py with ``args``; return its last stdout line as JSON."""
    env = {k: os.environ[k] for k in ("HOME", "PATH", "LANG", "LC_ALL")
           if k in os.environ}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt_timing(t):
    s = (f"op_p50_ms {t['p50_scaled_ms']:.4f} (per-kind medians, scaled to reference "
         f"speed) over {t['n']} ops; wall median {t['p50_ms']:.4f} ms")
    if t["tail"]:
        s += (f"; wall p{t['tail']['percentile']:g} {t['tail']['ms']:.4f} ms "
              f"({t['tail']['samples_beyond']} samples beyond)")
    return s + f"; {t['ops_per_s']:.2f} ops/s (total-based)"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="picard3 benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "picard3" / "__init__.py").is_file():
        print(f"perfbench: no picard3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    # set-up is timed before and after the measuring process, so that one
    # slow stretch of the host does not cover every sample
    setups = []
    setup_only = 0 if args.trace else SETUP_ONLY_RUNS // 2
    for _ in range(setup_only):
        setups.append(spawn(base + ["--setup-only"], deadline))
    spans = results / f"{tag}.spans.jsonl"
    res = spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
                + (["--spans", str(spans)] if args.trace else []), deadline)
    setups.append(res)
    for _ in range(setup_only):
        setups.append(spawn(base + ["--setup-only"], deadline))
    res["setup_runs"] = [{k: s[k] for k in ("setup_s", "setup_yardstick_s", "setup_scaled_s")}
                         for s in setups]
    (results / f"{tag}.json").write_text(json.dumps(res, indent=1) + "\n")

    for m in res["messages"]:
        print(f"{args.workload}: {m}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"{res['attempted']} ops attempted, {res['failed']} failed, "
          f"{res['wrong']} wrong, in {res['elapsed_s']:.2f} s"
          + ("; input pool used up" if res["pool_exhausted"] else ""))
    if args.trace:
        u, t = res["untraced"], res["traced"]
        print(f"untraced rounds: {fmt_timing(u)}")
        print(f"traced rounds:   {fmt_timing(t)}")
        for key, what in (("p50_scaled_ms", "op_p50_ms"), ("p50_ms", "wall median")):
            print(f"tracing overhead on {what}: {t[key] - u[key]:.4f} ms per op "
                  f"({100 * (t[key] / u[key] - 1):.1f}%)")
        if res["missing_functions"]:
            print(f"not found, reported as 0: {', '.join(res['missing_functions'])}")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in res["layers"].items()}
    else:
        u = res["untraced"]
        print(fmt_timing(u))
        print(f"setup_s median of {len(setups)} (scaled): "
              + ", ".join(f"{s['setup_scaled_s']:.4f}" for s in setups)
              + f"; wall median {statistics.median(s['setup_s'] for s in setups):.4f} s")
        print(f"yardstick median {res['yardstick_p50_ms']:.4f} ms "
              f"(reference speed: {1e3 * YARDSTICK_REF_S} ms)")
        print(f"peak_rss_mib {res['peak_rss_mib']:.3f}")
        metrics = {
            "op_p50_ms": {"value": u["p50_scaled_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(s["setup_scaled_s"] for s in setups),
                        "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
