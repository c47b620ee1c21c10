"""Recompute the labeling-capped reference optimum with HiGHS.

    python3 perfbench/reference.py

Builds the labeling-capped workload's MILP with misens, proves its optimum
with scipy's HiGHS and writes it to perfbench/reference.json, where the
benchmark's check reads it: misens's best bound at the node cap may not
exceed it.  Takes about a minute on one core.
"""

import json
import time
from pathlib import Path

if __name__ == "__main__":
    import oracles
    import scipy
    import workloads
    from misens.design import build_mis_con_lab_milp

    (op,) = workloads.operations("labeling-capped")
    train = workloads.generate("labeling-capped")[op.scenario]
    program = build_mis_con_lab_milp(train, op.cfg)
    t0 = time.perf_counter()
    optimum = oracles.highs_optimum(program)
    seconds = time.perf_counter() - t0
    doc = {op.check: {
        "operation": op.name, "n_cl": op.cfg.n_cl,
        "rows": program.base.n_rows, "vars": program.base.n_vars,
        "optimum": optimum,
        "solver": f"HiGHS via scipy {scipy.__version__}, mip_rel_gap 0",
        "seconds": round(seconds, 1)}}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
