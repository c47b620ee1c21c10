"""Branch-and-bound mixed-integer linear programming over binary variables.

The search is one loop over an open list ordered by each node's key, its
parent's LP optimum.  The root is the list's first node, with key -inf, no
fixes and no basis, and is solved, pruned and branched like every other
node.  Search order is best-bound-first with a depth-first dive every 10
nodes to find incumbents early; the root never dives, so it pushes both
children.  Branching works on groups, read once per solve from the
program's own rows: a row with both bounds 1 whose only entries are
binaries with coefficient 1 (the labeling rows sum_j z_ij = 1 of
MIS-con-lab).  A member's own rows are the other rows whose one binary
entry is that member (the epigraph rows of z_ij).  Each group with a
fractional member is scored by its cheapest completion: the least, over
its members, of the total violation of the member's own rows with that
member at 1 and every other variable at its LP value.  On the labeling
MILP that is max(0, min_j |y_i - f_j(x_i)| - t_i), how far the relaxation
underestimates point i's error.  The search branches on the lowest-index
fractional member of the highest-scoring group (ties to the lower group).
With no fractional grouped binary, it branches on the binary whose
relaxation value is closest to 0.5 (ties to the lowest index).  Child
nodes warm-start from the parent's simplex basis, which carries its
inverse, so a child skips the refactorization; both children share the
parent's one inverse.  Once the open list holds as many nodes as
BINV_STORE_BYTES allows inverses, a node pushed onto it keeps its basis
without the inverse.  The default mode is fully deterministic: node order
depends only on the instance, the limits and the BLAS thread count, never
on wall-clock time.  A threaded BLAS sums products in another order, and
the roundoff can break pricing ties another way; pin it to one thread
before numpy is imported (as perfbench/workloads.py does) to repeat a
search exactly.  A time limit, when set, naturally breaks run-to-run
reproducibility.

Every variable is boxed (the LP layer refuses an infinite bound), so the
root relaxation is infeasible or has an optimum.  A binary's box is [0, 1]
or a fixing, [0, 0] or [1, 1]; `validate` refuses any other, naming the
binary.  The LP is compiled once over the program's box; a node only fixes
binaries, so the slacks' implied bounds of that compilation hold at every
node.

Each node LP, the root's included, gets the incumbent (less CUTOFF_TOL) as
its objective cutoff:
the dual simplex, warm or cold, stops with Status.CUTOFF as soon as the
cost of a still infeasible iterate, a lower bound, reaches it, and the node
is pruned without its optimum.  An LP whose cost reaches the cutoff only at
its optimum (one whose starting basis is already primal feasible, say) is
pruned as dominated once that optimum is known.  `node_lps_cut_off` counts
the LPs stopped early; the search is the same either way.

Status meaning: OPTIMAL proves gap <= gap_target; FEASIBLE means the node
cap stopped the search with an incumbent in hand; TIMED_OUT means the time
limit stopped the search, or a limit stopped it before any incumbent was
found; INFEASIBLE is a proof that no integer-feasible point exists.  The
limits are tested between nodes, once a node has been solved, so a time
limit of 0 solves the root only.  `best_bound` is the incumbent once the
search is exhausted (inf without one); at a gap or limit stop it is the
larger of the last key popped and the open list's least key.  The gap is
relative to the incumbent, (incumbent - bound) / |incumbent|, and inf
without one.
"""

from __future__ import annotations

import enum
import heapq
import logging
import time
from dataclasses import dataclass

import numpy as np

from .lp import (
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
PROGRESS_EVERY = 1000  # nodes between progress lines, logged at DEBUG


class MipStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed_out"


@dataclass
class MilpLimits:
    # tested once a node has been solved: time limit 0 or node cap 1 solves
    # the root only
    time_limit_s: float | None = None
    gap_target: float = 1e-6
    node_cap: int = 200_000  # nodes solved, the root included

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
            box = (float(self.base.lower[j]), float(self.base.upper[j]))
            if box not in ((0.0, 1.0), (0.0, 0.0), (1.0, 1.0)):
                raise ValueError(f"binary variable {j} has box [{box[0]:g}, {box[1]:g}]; "
                                 "a binary's box is [0, 1], [0, 0] or [1, 1]")


@dataclass
class MipResult:
    status: MipStatus
    values: np.ndarray | None
    objective_value: float | None
    nodes_explored: int
    best_bound: float
    node_lps_cut_off: int = 0  # node LPs the dual simplex stopped at the incumbent
    hint_used: bool = False    # the incumbent_hint passed the check and seeded the search

    @property
    def gap(self) -> float:
        """(incumbent - best bound) / |incumbent|; inf without an incumbent."""
        return _relative_gap(np.inf if self.objective_value is None
                             else self.objective_value, self.best_bound)

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
    incumbent; inf without an incumbent (incumbent = inf), or when the
    incumbent is 0 and the bound is still below it."""
    diff = incumbent - bound
    if diff <= 0.0:  # false for inf - inf
        return 0.0
    if incumbent in (0.0, np.inf):
        return np.inf
    return diff / abs(incumbent)


def _materialize(lo0, hi0, fixes):
    lo = lo0.copy()
    hi = hi0.copy()
    chain = fixes
    while chain is not None:
        var, val, chain = chain
        lo[var] = val
        hi[var] = val
    return lo, hi


class _Groups:
    """The branching groups of a MILP's rows, found once per solve.

    A group is a row with both bounds 1 whose only entries are binaries
    with coefficient 1 (the labeling rows sum_j z_ij = 1).  A member's own
    rows are the other rows whose one binary entry is that member; a
    binary in two groups scores its own rows in each.  A completion sets
    one member to 1 and costs the total violation of its own rows' bounds,
    every other variable at its value; a group's score is its cheapest
    completion.  The rows of the members left at 0 are not read: on the
    labeling MILP they are big-M rows that `design.required_big_m` keeps
    satisfied, so they would add an exact 0.
    """

    def __init__(self, prob: LinearProgram, binaries: np.ndarray):
        rows = prob.a
        binary = np.zeros(prob.n_vars, dtype=bool)
        binary[binaries] = True
        nonzero = rows != 0.0
        on_binaries = nonzero & binary
        is_group = ((prob.row_lo == 1.0) & (prob.row_hi == 1.0)
                    & nonzero.any(axis=1) & ~(nonzero & ~binary).any(axis=1)
                    & ((rows == 1.0) | ~nonzero).all(axis=1))
        members = [np.flatnonzero(g) for g in on_binaries[is_group]]
        self.n_groups = len(members)
        if not self.n_groups:
            return
        self.starts = np.cumsum([0] + [k.size for k in members[:-1]])
        self.member = np.concatenate(members)                   # one per choice
        place = np.empty(prob.n_vars, dtype=int)
        place[binaries] = np.arange(binaries.size)
        self.member_at = place[self.member]                     # its place in binaries
        # each own row without its binary entry, and the box on that rest's
        # activity that holds the row with its owner at 1
        own = np.flatnonzero(~is_group & (on_binaries.sum(axis=1) == 1))
        self.owner = on_binaries[own].argmax(axis=1)
        entry = rows[own, self.owner]
        self.a_rest = np.where(binary, 0.0, rows[own])
        self.act_lo, self.act_hi = prob.row_lo[own] - entry, prob.row_hi[own] - entry

    def pick(self, values: np.ndarray, upper: np.ndarray,
             fractional: np.ndarray) -> int | None:
        """The lowest-index fractional member of the group whose cheapest
        completion costs most (ties to the lower group); None when no
        group has a fractional member.  `fractional` flags the binaries
        with a fractional value; a member whose upper bound is 0 is not
        completed to 1."""
        if not self.n_groups:
            return None
        fractional = fractional[self.member_at]
        act = self.a_rest @ values
        violation = np.maximum(np.maximum(self.act_lo - act, act - self.act_hi), 0.0)
        cost = np.bincount(self.owner, weights=violation, minlength=values.size)[self.member]
        cost[upper[self.member] < 0.5] = np.inf
        score = np.where(np.logical_or.reduceat(fractional, self.starts),
                         np.minimum.reduceat(cost, self.starts), -1.0)
        g = int(score.argmax())
        if score[g] < 0.0:
            return None
        start = self.starts[g]
        return int(self.member[start + int(fractional[start:].argmax())])


def _check_hint(prob: MixedIntegerProgram, hint) -> float | None:
    """Objective of a hint that is finite, integral and feasible in the rows
    and the bounds; None when the hint is unusable (every comparison with a
    NaN is false, so a NaN entry passes all the others)."""
    v = np.asarray(hint, dtype=float)
    if v.shape != (prob.base.n_vars,) or not np.isfinite(v).all():
        return None
    if np.any(v < prob.base.lower - 1e-9) or np.any(v > prob.base.upper + 1e-9):
        return None
    bins = v[list(prob.binary_vars)]
    if np.max(np.abs(bins - np.round(bins))) > INT_TOL:
        return None
    act = prob.base.a @ v
    if np.any(act < prob.base.row_lo - 1e-6) or np.any(act > prob.base.row_hi + 1e-6):
        return None
    return float(prob.base.objective @ v)


def solve_milp(prob: MixedIntegerProgram, limits: MilpLimits | None = None,
               incumbent_hint=None) -> MipResult:
    """Solve min c @ v with the given binaries; see the module docstring."""
    limits = limits or MilpLimits()
    prob.validate()
    comp = compile_lp(prob.base)
    binaries = np.array(prob.binary_vars, dtype=int)
    groups = _Groups(prob.base, binaries)
    t_start = time.perf_counter()

    inc_val: np.ndarray | None = None
    inc_obj = np.inf
    hint_used = False
    if incumbent_hint is not None:
        obj = _check_hint(prob, incumbent_hint)
        hint_used = obj is not None
        if hint_used:
            inc_val = np.asarray(incumbent_hint, dtype=float).copy()
            inc_obj = obj
            log.info("accepted incumbent hint with objective %.9g", obj)
        else:
            log.info("incumbent hint rejected (infeasible or fractional)")

    nodes_explored = 0
    node_lps_cut_off = 0
    # an open node is (key, seq, fixes, basis): its parent's LP optimum, the
    # push order, the chain of fixes (var, value, parent_chain) and the
    # parent's basis to warm-start from; the root has neither
    heap: list[tuple] = [(-np.inf, 0, None, None)]
    seq = 1
    bound_global = -np.inf
    timed_out = False
    binv_cap = max(8, BINV_STORE_BYTES // max(1, 8 * prob.base.n_rows ** 2))

    def push(key, fixes, basis):
        nonlocal seq
        if len(heap) >= BASIS_STORE_CAP:
            basis = None
        elif len(heap) >= binv_cap and basis.binv is not None:
            basis = basis.without_inverse()
        heapq.heappush(heap, (key, seq, fixes, basis))
        seq += 1

    def branch_var(values, node_upper) -> int | None:
        v = values[binaries]
        fractional = np.abs(v - np.round(v)) > INT_TOL
        if not fractional.any():
            return None
        j = groups.pick(values, node_upper, fractional)
        if j is not None:
            return j
        cand = np.flatnonzero(fractional)
        return int(binaries[cand[int(np.abs(v[cand] - 0.5).argmin())]])

    def limits_hit() -> bool:
        nonlocal timed_out
        timed_out = (limits.time_limit_s is not None
                     and time.perf_counter() - t_start > limits.time_limit_s)
        return timed_out or nodes_explored >= limits.node_cap

    while True:
        if not heap or heap[0][0] >= inc_obj - CUTOFF_TOL:
            bound_global = inc_obj  # exhausted; best-first: every open node is dominated
            break
        bound_global = max(bound_global, heap[0][0])
        if _relative_gap(inc_obj, bound_global) <= limits.gap_target:
            break  # certified within the requested gap
        if nodes_explored and limits_hit():
            break
        _, _, fixes, basis = heapq.heappop(heap)
        dive = fixes is not None and nodes_explored % 10 == 0  # never from the root
        while True:  # runs once unless diving
            nodes_explored += 1
            if nodes_explored % PROGRESS_EVERY == 0:
                log.debug("nodes=%d open=%d incumbent=%s bound=%.9g gap=%.3g cut_off=%d",
                          nodes_explored, len(heap),
                          f"{inc_obj:.9g}" if inc_val is not None else "-",
                          bound_global, _relative_gap(inc_obj, bound_global),
                          node_lps_cut_off)
            lo, hi = _materialize(prob.base.lower, prob.base.upper, fixes)
            sol = solve_compiled(comp, lo, hi, warm=basis, cutoff=inc_obj - CUTOFF_TOL)
            if sol.status != Status.OPTIMAL:
                # cut off at the incumbent, or an infeasible subtree (children
                # only tighten bounds)
                node_lps_cut_off += sol.status == Status.CUTOFF
                break
            if sol.objective_value >= inc_obj - CUTOFF_TOL:
                break  # dominated: the cutoff is tested on infeasible iterates only
            j = branch_var(sol.values, hi)
            if j is None:
                inc_val, inc_obj = sol.values.copy(), sol.objective_value
                log.info("incumbent %.9g at node %d", inc_obj, nodes_explored)
                break
            if not dive or limits_hit():  # a stopped dive leaves both children open
                for val in (0.0, 1.0):
                    push(sol.objective_value, (j, val, fixes), sol.basis)
                break
            nearest = 1.0 if sol.values[j] >= 0.5 else 0.0
            push(sol.objective_value, (j, 1.0 - nearest, fixes), sol.basis)
            fixes, basis = (j, nearest, fixes), sol.basis

    if _relative_gap(inc_obj, bound_global) <= limits.gap_target:
        status = MipStatus.OPTIMAL
    elif inc_val is None:  # exhausted with no incumbent: the bound is inc_obj = inf
        status = MipStatus.INFEASIBLE if bound_global == np.inf else MipStatus.TIMED_OUT
    else:
        status = MipStatus.TIMED_OUT if timed_out else MipStatus.FEASIBLE

    result = MipResult(status, inc_val, inc_obj if inc_val is not None else None,
                       nodes_explored, bound_global, node_lps_cut_off, hint_used)
    log.info("finished: %s", result.summary())
    return result
