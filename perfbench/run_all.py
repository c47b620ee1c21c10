"""Run every workload over several seeds and summarize each metric.

    python3 perfbench/run_all.py                         # all workloads, seed 1
    python3 perfbench/run_all.py --seeds 1-10            # the spread check
    python3 perfbench/run_all.py --workloads labeling-certify --seeds 1-5 --trace 1

Each run is `run.py` in its own process, with BENCHMARK.json's command and
run length.  Per workload and metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
next to the metric's bound, plus the share of failed operations.  The
summary is also written to .perfbench_out/summary-trace<0|1>.json.  It stops
at the first run that exits non-zero, as run.py does on a wrong result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:  # run.py exits with 1 on a wrong result
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(doc)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.6g}" for k, m in doc["metrics"].items()
                if bounds.get(k) is not None or args.trace), flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                          "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                          "bound": bounds.get(name), "values": values}
        shares = {r["failed"] / r["attempted"] for r in runs}
        summary[workload] = {"metrics": rows, "failed_shares": sorted(shares)}
        print(f"== {workload}: {len(runs)} runs, all correct, failed share {' / '.join(f'{s:.4f}' for s in sorted(shares))}")
        for name, row in rows.items():
            bound = f"bound {row['bound']}" if row["bound"] is not None else ""
            print(f"   {name:30s} median {row['median']:.6g} {row['unit']}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f} {bound}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"summary-trace{args.trace}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
