"""Run one benchmark workload against the misens in this checkout.

    python3 perfbench/run.py --workload continuous --seed 1 --seconds 20 --trace 0

The run repeats whole rounds of the workload's design operations until
--seconds have passed, checks every result against the independent oracles
in `oracles.py`, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics (from spans
around misens's public functions) with --trace 1, by the names and units
BENCHMARK.json lists.  It exits with 1 when a check fails other than the
known faults in `workloads.KNOWN_FAULTS`.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def setup_once(workload: str) -> float:
    """Time of one fresh interpreter that imports misens and generates the
    workload's datasets, from process start to exit.

    No timeout: with one, `subprocess` polls for the child's exit in steps
    of up to 50 ms, which would quantize the measurement.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_once.py"), workload],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_rounds(ops, data, seed: int, seconds: float, before_round):
    """Whole rounds until `seconds` have passed; the seed orders each round.

    `before_round(r)` runs untimed before round r.  Returns each round's
    wall time (first design call to last result) and each round's outcomes,
    a DesignReport or the exception a design raised.
    """
    rng = random.Random(seed)
    walls, outcomes = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        before_round(len(walls))
        order = rng.sample(range(len(ops)), len(ops))
        results = [None] * len(ops)
        t0 = time.perf_counter()
        for i in order:
            try:
                results[i] = ops[i].run(data)
            except Exception as exc:  # a failed design is a failed operation
                results[i] = exc
        walls.append(time.perf_counter() - t0)
        outcomes.append(results)
    return walls, outcomes


def check_outcomes(ops, data, outcomes) -> tuple[int, dict[str, list[str]]]:
    """Run the oracles; identical outputs are checked once.

    Returns the number of failed operations and the failure messages per
    operation name.
    """
    import oracles  # scipy: only after the timed rounds
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    verdicts: dict[tuple, list[str]] = {}
    failures: dict[str, list[str]] = {}
    failed = 0
    for results in outcomes:
        for op, rep in zip(ops, results):
            if isinstance(rep, Exception):
                errors = ["raised " + "".join(traceback.format_exception_only(rep)).strip()]
            else:
                key = (op.name, workloads.fingerprint(rep))
                if key not in verdicts:
                    ref = reference.get(op.check, {}).get("optimum")
                    verdicts[key] = oracles.check(op.check, rep, data[op.scenario],
                                                  op.cfg, ref)
                errors = verdicts[key]
            if errors:
                failed += 1
                failures.setdefault(op.name, [])
                failures[op.name].extend(e for e in errors if e not in failures[op.name])
    return failed, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the misens under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; valid: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up is sampled once before every round, so that its samples, like
    # the rounds, span the whole run rather than one moment of it.
    setup_times: list[float] = []
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

        def before_round(r):
            tracer.round = r
    else:
        def before_round(r):
            setup_times.append(setup_once(args.workload))
    data = workloads.generate(args.workload)
    ops = workloads.operations(args.workload)
    walls, outcomes = run_rounds(ops, data, args.seed, args.seconds, before_round)
    if tracer is not None:
        tracer.round = None
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, failures = check_outcomes(ops, data, outcomes)
    attempted = len(ops) * len(outcomes)
    unexpected = [name for name, errors in failures.items()
                  if not all(e.startswith(workloads.KNOWN_FAULTS.get(name, "\0"))
                             for e in errors)]

    bench = json.loads(BENCHMARK_JSON.read_text())
    if tracer is None:
        values = {"wall_s": statistics.fmean(walls),
                  "setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb}
        listed = bench["end_to_end"]
    else:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        values = tracer.metrics(walls)
        listed = bench["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"{args.workload}, seed {args.seed}: {len(walls)} rounds of {len(ops)} "
          f"design operations, round wall time mean {statistics.fmean(walls):.4f} s "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}, failed {failed}")
    for name, errors in failures.items():
        tag = "known fault" if name not in unexpected else "UNEXPECTED"
        for e in errors:
            print(f"  FAILED {name} ({tag}): {e}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
