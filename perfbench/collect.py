#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads eval-grid,pretrain-pairs \\
        --seeds 0-9 --trace 0 --out .perfbench_out/summary.json

Runs ``perfbench/run.py`` once per (workload, seed), one after another, and
reports per workload and metric the median, the quartiles and the spread
(interquartile distance over the median, as ``statistics.quantiles`` with
n=4 gives them). ``--seconds`` defaults to ``run_seconds`` in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
            "n": len(values)}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workloads.split(",")
    runs = {workload: [] for workload in names}
    for seed in args.seeds:  # seed-major, so slow drift of the machine hits every workload
        for workload in names:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            runs[workload].append({"seed": seed, "result": result, "detail": detail,
                                   "wall_s": time.perf_counter() - start})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{values if args.trace == 0 else ''}", flush=True)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload, done in runs.items():
        metrics = done[0]["result"]["metrics"]
        table = {name: summarise([r["result"]["metrics"][name]["value"] for r in done])
                 for name in metrics}
        summary["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in done),
            "inputs": done[0]["detail"].get("inputs"),
            "env": done[0]["detail"]["env"],
            "metrics": {name: dict(row, unit=metrics[name]["unit"]) for name, row in table.items()},
            "runs": [{"seed": r["seed"],
                      "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()},
                      "setup_s_all": r["detail"]["setup_s_all"],
                      "stage_s_all": r["detail"].get("stage_s_all"),
                      "quality": r["detail"].get("quality"),
                      "inputs": r["detail"].get("inputs"),
                      "digests": r["detail"]["digests"],
                      "wall_s": r["wall_s"]} for r in done],
        }
        if args.trace == 0:
            print(workload)
            for name, row in table.items():
                bound = bounds.get(name)
                flag = ""
                if bound and name != "setup_s":
                    flag = "  OK" if row["spread"] < bound / 3 else "  WIDE"
                print(f"  {name:16s} median {row['median']:.6g}  spread {row['spread']:.4f}"
                      f"  bound {bound}{flag}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
