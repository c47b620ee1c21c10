"""Branch-and-bound mixed-integer linear programming over binary variables.

Search order is best-bound-first with a depth-first dive every 10 nodes to
find incumbents early.  Branching works on groups, found once per solve: an
equality row with both bounds 1 whose only entries are binaries with
coefficient 1 (the labeling rows sum_j z_ij = 1 of MIS-con-lab).  Each group
with a fractional member is scored by its cheapest completion: set one
member to 1, the others to 0, leave every other variable at its LP value,
and take the least total violation of the group's local rows (the other
rows whose binary entries all lie in the group) over those choices.  On the
labeling MILP that is max(0, min_j |y_i - f_j(x_i)| - t_i), how far the
relaxation underestimates point i's error.  The search branches on the
lowest-index fractional member of the highest-scoring group (ties to the
lower group).  With no fractional grouped binary, it branches on the binary
whose relaxation value is closest to 0.5 (ties to the lowest index).  Child
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
from dataclasses import dataclass

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
PROGRESS_EVERY = 1000  # nodes between progress lines, logged at DEBUG


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
    hint_used: bool = False    # the incumbent_hint passed the check and seeded the search

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


class _Groups:
    """The branching groups of a compiled MILP, found once per solve.

    A group is an equality row with right-hand side 1 whose only entries
    are binaries with coefficient 1 (the labeling rows sum_j z_ij = 1).  Its
    local rows are the other rows with a binary entry, all of them in the
    group.  A completion of a group sets one member to 1 and the others to
    0, every other variable at its value; a group's score is the least
    total violation of its local rows' slack boxes over its completions.
    Every (group, local row, member) triple is one entry of the flat arrays
    below, so `pick` scores all groups in one vectorized pass; the local
    rows' activities are computed once per pass and read by each triple.
    """

    def __init__(self, comp: CompiledLp, binaries: np.ndarray):
        n = comp.n_struct
        rows = comp.a[:, :n]
        binary = np.zeros(n, dtype=bool)
        binary[binaries] = True
        nonzero = rows != 0.0
        on_binaries = nonzero & binary
        is_group = ((comp.slack_lo == 0.0) & (comp.slack_hi == 0.0) & (comp.rhs == 1.0)
                    & nonzero.any(axis=1) & ~(nonzero & ~binary).any(axis=1)
                    & ((rows == 1.0) | ~nonzero).all(axis=1))
        group_rows = np.flatnonzero(is_group)
        self.n_groups = group_rows.size
        if not self.n_groups:
            return
        in_group = on_binaries[group_rows]                      # groups x n
        # binary entries of each row outside each group
        outside = on_binaries.astype(float) @ (~in_group).T.astype(float)
        local = (outside == 0.0) & on_binaries.any(axis=1)[:, None]
        local[group_rows, np.arange(self.n_groups)] = False     # rows x groups
        members = [np.flatnonzero(g) for g in in_group]
        sizes = np.array([k.size for k in members])
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.member = np.concatenate(members)                   # one per choice
        row, choice, col = [], [], []
        for g, k in enumerate(members):
            for r in np.flatnonzero(local[:, g]):
                row += [r] * k.size
                choice += range(self.starts[g], self.starts[g] + k.size)
                col += k.tolist()
        row, self.choice, col = (np.array(x, dtype=int) for x in (row, choice, col))
        place = np.empty(n, dtype=int)
        place[binaries] = np.arange(binaries.size)
        self.member_at = place[self.member]                     # its place in binaries
        # the local rows without their binary entries, each once, and each
        # triple's box on its row's activity less the member's entry: the
        # completion that sets the member to 1 violates the row by how far
        # (a_rest @ v)[row] lies outside [act_lo, act_hi]
        local_rows, self.row = np.unique(row, return_inverse=True)
        self.a_rest = np.where(binary, 0.0, rows[local_rows])
        base = comp.rhs[row] - rows[row, col]
        self.act_lo, self.act_hi = base - comp.slack_hi[row], base - comp.slack_lo[row]

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
        act = (self.a_rest @ values)[self.row]
        violation = np.maximum(np.maximum(self.act_lo - act, act - self.act_hi), 0.0)
        cost = np.bincount(self.choice, weights=violation, minlength=self.member.size)
        cost[upper[self.member] < 0.5] = np.inf
        score = np.where(np.logical_or.reduceat(fractional, self.starts),
                         np.minimum.reduceat(cost, self.starts), -1.0)
        g = int(score.argmax())
        if score[g] < 0.0:
            return None
        start = self.starts[g]
        return int(self.member[start + int(fractional[start:].argmax())])


def _check_hint(prob: MixedIntegerProgram, comp: CompiledLp, hint,
                lower: np.ndarray, upper: np.ndarray) -> float | None:
    """Objective of a hint that is finite, integral and feasible in the rows
    and in the bounds `lower`/`upper`; None when the hint is unusable (every
    comparison with a NaN is false, so a NaN entry passes all the others)."""
    v = np.asarray(hint, dtype=float)
    if v.shape != (prob.base.n_vars,) or not np.isfinite(v).all():
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
               incumbent_hint=None) -> MipResult:
    """Solve min c @ v with the given binaries; see the module docstring."""
    limits = limits or MilpLimits()
    prob.validate()
    lower, upper = prob.bounds()
    comp = compile_lp(prob.base)
    binaries = np.array(prob.binary_vars, dtype=int)
    groups = _Groups(comp, binaries)
    t_start = time.perf_counter()

    inc_val: np.ndarray | None = None
    inc_obj = np.inf
    hint_used = False
    if incumbent_hint is not None:
        obj = _check_hint(prob, comp, incumbent_hint, lower, upper)
        hint_used = obj is not None
        if hint_used:
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
            node.basis = node.basis.without_inverse()
        heapq.heappush(heap, (key, seq, node))
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
    j = branch_var(root_sol.values, upper)
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
            if nodes_explored % PROGRESS_EVERY == 0:
                log.debug("nodes=%d open=%d incumbent=%s bound=%.9g gap=%.3g cut_off=%d",
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
            j = branch_var(sol.values, hi)
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
                       gap, nodes_explored, bound_global, node_lps_cut_off, hint_used)
    log.info("finished: %s", result.summary())
    return result
