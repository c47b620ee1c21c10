"""Branch-and-bound mixed-integer linear programming over binary variables.

Search order is best-bound-first with a depth-first dive every 10 nodes to
find incumbents early; branching picks the binary whose relaxation value is
closest to 0.5 (ties to the lowest index).  Child nodes warm-start from the
parent's simplex basis, which carries its inverse, so a child skips the
refactorization; both children share the parent's one inverse.  Once the
open list holds as many nodes as BINV_STORE_BYTES allows inverses, a node
pushed onto it keeps its basis without the inverse.  The default mode is
fully deterministic: node order depends only on the instance, the limits
and the BLAS thread count, never on wall-clock time.  A threaded BLAS sums
products in another order, and the roundoff can break pricing ties
another way; pin it to one thread before numpy is imported (as
perfbench/workloads.py does) to repeat a search exactly.  A time limit,
when set, naturally breaks run-to-run reproducibility.

Every variable is boxed (the LP layer refuses an infinite bound), so the
root relaxation is infeasible or has an optimum.  The LP is compiled once
over the program's box; a node only tightens it, fixing binaries, so the
slacks' implied bounds of that compilation hold at every node.

Each node LP gets the incumbent (less CUTOFF_TOL) as its objective cutoff:
the dual simplex, warm or cold, stops with Status.CUTOFF as soon as the
cost of a still infeasible iterate, a lower bound, reaches it, and the node
is pruned without its optimum.  An LP whose cost reaches the cutoff only at
its optimum (one whose starting basis is already primal feasible, say) is
pruned as dominated once that optimum is known.  `node_lps_cut_off` counts
the LPs stopped early; the search is the same either way.

Status meaning: OPTIMAL proves gap <= gap_target; FEASIBLE means the node
cap stopped the search with an incumbent in hand; TIMED_OUT means the time
limit stopped the search, or a limit stopped it before any incumbent was
found; INFEASIBLE is a proof that no integer-feasible point exists.  The gap
is relative to the incumbent: (incumbent - bound) / |incumbent|.
"""

from __future__ import annotations

import enum
import heapq
import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .lp import (
    CompiledLp,
    LinearProgram,
    Status,
    compile_lp,
    solve_compiled,
)

log = logging.getLogger("misens.milp")

INT_TOL = 1e-6
CUTOFF_TOL = 1e-9
BASIS_STORE_CAP = 50_000  # stop attaching bases when the open list is huge
BINV_STORE_BYTES = 12_000_000  # budget for basis inverses on the open list


class MipStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed_out"


@dataclass
class MilpLimits:
    time_limit_s: float | None = None   # 0: stop after the root node
    gap_target: float = 1e-6
    node_cap: int = 200_000

    def __post_init__(self):
        if self.time_limit_s is not None and not (
                self.time_limit_s >= 0 and np.isfinite(self.time_limit_s)):
            raise ValueError("time_limit_s must be None or non-negative and finite")
        if not (self.gap_target >= 0 and np.isfinite(self.gap_target)):
            raise ValueError("gap_target must be non-negative and finite")
        if not self.node_cap >= 1:
            raise ValueError("node_cap must be at least 1")


@dataclass
class MixedIntegerProgram:
    base: LinearProgram
    binary_vars: tuple[int, ...]

    def __post_init__(self):
        self.binary_vars = tuple(int(j) for j in self.binary_vars)

    def validate(self) -> None:
        self.base.validate()
        n = self.base.n_vars
        seen = set()
        for j in self.binary_vars:
            if j < 0 or j >= n:
                raise ValueError(f"binary variable index {j} out of range")
            if j in seen:
                raise ValueError(f"binary variable index {j} repeated")
            seen.add(j)
        lower, upper = self.bounds()
        for j in self.binary_vars:
            if lower[j] > upper[j]:
                raise ValueError(f"binary variable {j} has contradictory bounds")

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the variable bounds with each binary's box intersected
        with [0, 1]; the program's own bounds are left as they are."""
        lower, upper = self.base.lower.copy(), self.base.upper.copy()
        bins = list(self.binary_vars)
        lower[bins] = np.maximum(lower[bins], 0.0)
        upper[bins] = np.minimum(upper[bins], 1.0)
        return lower, upper


@dataclass
class MipResult:
    status: MipStatus
    values: np.ndarray | None
    objective_value: float | None
    gap: float
    nodes_explored: int
    best_bound: float
    node_lps_cut_off: int = 0  # node LPs the dual simplex stopped at the incumbent

    @property
    def abs_gap(self) -> float:
        """incumbent - best bound; inf without an incumbent."""
        if self.objective_value is None:
            return np.inf
        return max(0.0, self.objective_value - self.best_bound)

    def summary(self) -> dict:
        return {
            "schema": 1,
            "status": self.status.value,
            "objective_value": self.objective_value,
            "gap": self.gap,
            "abs_gap": self.abs_gap,
            "nodes_explored": self.nodes_explored,
            "best_bound": self.best_bound,
            "node_lps_cut_off": self.node_lps_cut_off,
        }


def _relative_gap(incumbent: float, bound: float) -> float:
    """(incumbent - bound) / |incumbent|: 0 once the bound reaches the
    incumbent, inf when the incumbent is 0 and the bound is still below it."""
    diff = incumbent - bound
    if diff <= 0.0:
        return 0.0
    if incumbent == 0.0:
        return np.inf
    return diff / abs(incumbent)


class _Node:
    __slots__ = ("fixes", "basis")

    def __init__(self, fixes, basis):
        self.fixes = fixes          # linked chain: (var, value, parent_chain)
        self.basis = basis


def _materialize(lo0, hi0, fixes):
    lo = lo0.copy()
    hi = hi0.copy()
    chain = fixes
    while chain is not None:
        var, val, chain = chain
        lo[var] = val
        hi[var] = val
    return lo, hi


def _check_hint(prob: MixedIntegerProgram, comp: CompiledLp, hint,
                lower: np.ndarray, upper: np.ndarray) -> float | None:
    """Objective of a hint that is integral and feasible in the rows and in
    the bounds `lower`/`upper`; None when the hint is unusable."""
    v = np.asarray(hint, dtype=float)
    if v.shape != (prob.base.n_vars,):
        return None
    if np.any(v < lower - 1e-9) or np.any(v > upper + 1e-9):
        return None
    bins = v[list(prob.binary_vars)]
    if np.max(np.abs(bins - np.round(bins))) > INT_TOL:
        return None
    slack = comp.rhs - comp.a[:, :comp.n_struct] @ v
    if np.any(slack < comp.slack_lo - 1e-6) or np.any(slack > comp.slack_hi + 1e-6):
        return None
    return float(prob.base.objective @ v)


def solve_milp(prob: MixedIntegerProgram, limits: MilpLimits | None = None,
               incumbent_hint=None, log_interval: int = 0) -> MipResult:
    """Solve min c @ v with the given binaries; see the module docstring."""
    limits = limits or MilpLimits()
    prob.validate()
    lower, upper = prob.bounds()
    comp = compile_lp(prob.base)
    binaries = np.array(prob.binary_vars, dtype=int)
    t_start = time.perf_counter()

    inc_val: np.ndarray | None = None
    inc_obj = np.inf
    if incumbent_hint is not None:
        obj = _check_hint(prob, comp, incumbent_hint, lower, upper)
        if obj is not None:
            inc_val = np.asarray(incumbent_hint, dtype=float).copy()
            inc_obj = obj
            log.info("accepted incumbent hint with objective %.9g", obj)
        else:
            log.info("incumbent hint rejected (infeasible or fractional)")

    root_sol = solve_compiled(comp, lower, upper)
    if root_sol.status == Status.INFEASIBLE:
        return MipResult(MipStatus.INFEASIBLE, None, None, np.inf, 1, np.inf)

    nodes_explored = 1
    node_lps_cut_off = 0
    seq = 0
    heap: list[tuple[float, int, _Node]] = []
    bound_global = root_sol.objective_value
    timed_out = False
    node_capped = False
    binv_cap = max(8, BINV_STORE_BYTES // max(1, 8 * comp.m * comp.m))

    def push(key, node):
        nonlocal seq
        if len(heap) >= BASIS_STORE_CAP:
            node.basis = None
        elif len(heap) >= binv_cap and node.basis.binv is not None:
            node.basis = replace(node.basis, binv=None)
        heapq.heappush(heap, (key, seq, node))
        seq += 1

    def frac_branch_var(values) -> int | None:
        v = values[binaries]
        frac = np.abs(v - np.round(v))
        cand = np.nonzero(frac > INT_TOL)[0]
        if cand.size == 0:
            return None
        scores = np.abs(v[cand] - 0.5)
        return int(binaries[cand[int(scores.argmin())]])

    def consider_incumbent(sol):
        nonlocal inc_val, inc_obj
        if sol.objective_value < inc_obj - CUTOFF_TOL:
            inc_val = sol.values.copy()
            inc_obj = sol.objective_value
            log.info("incumbent %.9g at node %d", inc_obj, nodes_explored)

    def limits_hit() -> bool:
        nonlocal timed_out, node_capped
        if limits.time_limit_s is not None and time.perf_counter() - t_start > limits.time_limit_s:
            timed_out = True
            return True
        if nodes_explored >= limits.node_cap:
            node_capped = True
            return True
        return False

    # root handling
    j = frac_branch_var(root_sol.values)
    if j is None:
        consider_incumbent(root_sol)
        bound_global = inc_obj
    else:
        for val in (0.0, 1.0):
            push(root_sol.objective_value, _Node((j, val, None), root_sol.basis))

    exhausted = not heap  # search proven complete (vs stopped by a limit/gap)
    while heap:
        if limits_hit():
            break
        key, _, node = heapq.heappop(heap)
        bound_global = max(bound_global, key)
        if inc_val is not None:
            if key >= inc_obj - CUTOFF_TOL:
                # best-first: every open node is dominated too
                bound_global = max(bound_global, inc_obj - CUTOFF_TOL)
                exhausted = True
                break
            if _relative_gap(inc_obj, bound_global) <= limits.gap_target:
                break  # certified within the requested gap
        dive = nodes_explored % 10 == 0
        current = node
        while True:  # runs once unless diving
            nodes_explored += 1
            if log_interval and nodes_explored % log_interval == 0:
                log.info("nodes=%d open=%d incumbent=%s bound=%.9g gap=%.3g cut_off=%d",
                         nodes_explored, len(heap),
                         f"{inc_obj:.9g}" if inc_val is not None else "-",
                         bound_global,
                         _relative_gap(inc_obj, bound_global)
                         if inc_val is not None else np.inf,
                         node_lps_cut_off)
            lo, hi = _materialize(lower, upper, current.fixes)
            sol = solve_compiled(comp, lo, hi, warm=current.basis,
                                 cutoff=inc_obj - CUTOFF_TOL)
            if sol.status != Status.OPTIMAL:
                # cut off at the incumbent, or an infeasible subtree (children
                # only tighten bounds)
                node_lps_cut_off += sol.status == Status.CUTOFF
                break
            if sol.objective_value >= inc_obj - CUTOFF_TOL:
                break  # dominated: the cutoff is tested on infeasible iterates only
            j = frac_branch_var(sol.values)
            if j is None:
                consider_incumbent(sol)
                break
            if not dive:
                for val in (0.0, 1.0):
                    push(sol.objective_value, _Node((j, val, current.fixes), sol.basis))
                break
            nearest = 1.0 if sol.values[j] >= 0.5 else 0.0
            push(sol.objective_value, _Node((j, 1.0 - nearest, current.fixes), sol.basis))
            current = _Node((j, nearest, current.fixes), sol.basis)
            if limits_hit():
                break
        if timed_out or node_capped:
            break
    else:
        exhausted = True

    if exhausted:
        bound_global = inc_obj if inc_val is not None else np.inf

    if inc_val is not None:
        gap = _relative_gap(inc_obj, bound_global)
        if gap <= limits.gap_target:
            status = MipStatus.OPTIMAL
        elif timed_out:
            status = MipStatus.TIMED_OUT
        else:
            status = MipStatus.FEASIBLE  # node cap with an incumbent in hand
    else:
        gap = np.inf
        status = MipStatus.INFEASIBLE if exhausted else MipStatus.TIMED_OUT

    result = MipResult(status, inc_val, inc_obj if inc_val is not None else None,
                       gap, nodes_explored, bound_global, node_lps_cut_off)
    log.info("finished: %s", result.summary())
    return result
