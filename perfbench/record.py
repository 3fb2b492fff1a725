"""Run the benchmark over several seeds and summarise every metric.

Usage, from the repository root::

    python3 perfbench/record.py --seeds 1-10 --out runs.json [--workloads predict-cold,...]

Each (workload, seed) runs once with ``--trace 0`` at ``run_seconds`` from
BENCHMARK.json; the summary gives every metric's values, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (interquartile distance
over the median), and the paper ratio each paper-speedup run printed.
A failed or incorrect run stops the recording, and so does a run whose
compiled transient backend differs from the first run's: their timings
are not comparable.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

from harness import comparable

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RATIO = re.compile(r"prediction_vs_simulation_x (\S+)")


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)

    record: dict = {"run_seconds": bench["run_seconds"], "seeds": seeds(args.seeds)}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        ratios = []
        for seed in record["seeds"]:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(proc.stdout[-4000:], proc.stderr[-4000:], file=sys.stderr)
                print(f"{workload} seed {seed} failed", file=sys.stderr)
                return 1
            fingerprint = json.loads(lines[0].split(" ", 2)[2])
            record.setdefault("fingerprint", fingerprint)
            if not comparable(record["fingerprint"], fingerprint):
                print(f"{workload} seed {seed}: backend {fingerprint['compiled_backend']} "
                      f"differs from {record['fingerprint']['compiled_backend']}; "
                      "refusing to mix runs", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            ratios += [float(m) for m in RATIO.findall(proc.stdout)]
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v[-1]:.4g}" for k, v in values.items()), flush=True)
        record.setdefault("workloads", {})[workload] = {
            name: summary(v) for name, v in values.items()
        }
        if ratios:
            record["workloads"][workload]["prediction_vs_simulation_x"] = summary(ratios)
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
