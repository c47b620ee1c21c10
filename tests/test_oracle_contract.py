"""The benchmark's HiGHS oracle reads a labeling MILP through
`perfbench/oracles.mip_arrays`: it must see exactly the program's own
objective, rows and bounds.

perfbench/oracles.py needs scipy, which misens does not, so this suite is
skipped without it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("scipy")

from misens.design import DesignConfig, build_mis_con_lab_milp  # noqa: E402
from misens.study import ScenarioConfig, generate_scenario  # noqa: E402

ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def _oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


# (uniform-30 draw, n_cl): the capped benchmark MILP, then the six certify ones
PROGRAMS = [(1, 3)] + [(seed, 2) for seed in range(1, 7)]


@pytest.mark.parametrize("seed,n_cl", PROGRAMS)
def test_mip_arrays_are_the_programs_fields(seed, n_cl):
    train = generate_scenario(ScenarioConfig(kind="uniform", n_total=30, seed=seed))[0]
    program = build_mis_con_lab_milp(train, DesignConfig(n_cl=n_cl, seed=1))
    base = program.base
    *arrays, integrality = _oracles().mip_arrays(program)
    fields = (base.objective, base.a, base.row_lo, base.row_hi, base.lower, base.upper)
    assert len(arrays) == len(fields)
    for got, want in zip(arrays, fields):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.flatnonzero(integrality), program.binary_vars)
