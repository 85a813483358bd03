"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 perfbench/spread.py --workloads tester-far,service-hit --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out baseline.json

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median.
End-to-end spreads are compared with the bounds in ``BENCHMARK.json``; a
spread above a third of its bound is flagged.  ``--out`` writes the
figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BOUNDS = {
    m["name"]: m["bound"]
    for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
}


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the figures to this JSON file")
    args = parser.parse_args(argv)

    report = {}
    steady = True
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed ops")
                steady = False
            runs.append(result["metrics"])
        report[name] = {}
        for metric in runs[0]:
            figures = summary([run[metric]["value"] for run in runs])
            figures["unit"] = runs[0][metric]["unit"]
            report[name][metric] = figures
            bound = BOUNDS.get(metric) if args.trace == 0 else None
            flag = ""
            checked = bound is not None and metric != "setup_s"
            if checked and figures["spread"] > bound / 3:
                flag = f"  > bound/3 ({bound / 3:.3f})"
                steady = False
            print(f"{name:<14} {metric:<38} median {figures['median']:<12.6g} "
                  f"q1 {figures['q1']:<12.6g} q3 {figures['q3']:<12.6g} "
                  f"spread {figures['spread']:.4f}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
