"""Linear programming over bounded variables by the revised simplex method.

Constraints are held in equality form with one slack per row; the working
basis inverse is maintained explicitly and refactorized periodically.  The
reduced costs are carried from pivot to pivot, each pivot updating them
with its row of B^-1 A, and are computed afresh at a refactorization or
when the phase-1 cost changes (Koberstein, *The dual simplex method,
techniques for a fast and stable implementation*, 2005).  A cold solve
starts from the all-slack basis, whose inverse is the identity.

Every solve ends in the same primal rounds.  A round runs phase 1 when a
basic value lies outside its box, then phase 2.  Phase 1 starts from the
round's basis and minimizes the sum of infeasibilities (Maros,
*Computational Techniques of the Simplex Method*, 2003): a basic column
outside its box keeps only the side it violates, at a cost that drives it
back, and gets its box again once it leaves the basis at that bound; the LP
is infeasible when a basic value still violates its box after phase 1.  A
round's answer stands when the basic values reproduce the right-hand side;
otherwise the next round starts from the refactorized basis.  A warm solve
(from a caller-supplied basis, e.g. a branch-and-bound parent) first
re-optimizes with the bounded-variable dual simplex when the old basis is
primal infeasible but dual feasible; when the dual gives up, or the basis
is not dual feasible, the solve starts again cold, so correctness never
depends on the warm start.

The basis exported with an optimal solution carries its inverse.  The
inverse depends only on the basic columns, never on the bounds, so a warm
start from it (a branch-and-bound child with one bound tightened) skips the
refactorization unless the basic values it gives, or the inverse itself
(Freivalds' check), fail a residual test.

`solve_compiled` takes an objective `cutoff` (a branch-and-bound passes its
incumbent).  The dual simplex keeps its basis dual feasible, so the cost of
each of its iterates is a lower bound on the LP optimum; once that bound
reaches the cutoff, confirmed by the exact cost of the iterate, the solve
stops with Status.CUTOFF and no solution.  The primal rounds ignore the
cutoff: their objective falls, so no iterate bounds the optimum from below.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIVOT_TOL = 1e-9
DEGEN_TOL = 1e-10
REFACTOR_EVERY = 128
BLAND_AFTER = 1000  # degenerate pivots before Bland's rule takes over
PRIMAL_ROUNDS = 4  # phase-1/phase-2 rounds; each after the first refactorizes

# column status codes
BASIC, AT_LO, AT_UP, FREE = 0, 1, 2, 3

SENSES = ("<=", "=", ">=")


class SimplexStalledError(RuntimeError):
    """A primal pass exceeded its iteration cap, or PRIMAL_ROUNDS rounds
    ended without basic values that reproduce the right-hand side."""


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    CUTOFF = "cutoff"  # the dual simplex proved the optimum >= the cutoff


@dataclass(frozen=True)
class Constraint:
    """Sparse row `sum(coeff * v[idx]) sense rhs`."""

    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"unknown sense {self.sense!r}")
        object.__setattr__(self, "coeffs", tuple((int(i), float(v)) for i, v in self.coeffs))
        object.__setattr__(self, "rhs", float(self.rhs))

    @classmethod
    def of(cls, coeffs: dict[int, float], sense: str, rhs: float) -> "Constraint":
        return cls(tuple(sorted(coeffs.items())), sense, rhs)


@dataclass
class LinearProgram:
    """min objective @ v subject to constraints and lower <= v <= upper."""

    objective: np.ndarray
    constraints: list[Constraint]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def n_rows(self) -> int:
        return len(self.constraints)

    def validate(self) -> None:
        n = self.n_vars
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective has non-finite coefficients")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bounds length must match the number of variables")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("bounds may be infinite but not NaN")
        if np.any(self.lower > self.upper):
            j = int(np.nonzero(self.lower > self.upper)[0][0])
            raise ValueError(f"variable {j} has lower bound above upper bound")
        for k, con in enumerate(self.constraints):
            if not np.isfinite(con.rhs):
                raise ValueError(f"constraint {k} has non-finite rhs")
            for i, v in con.coeffs:
                if i < 0 or i >= n:
                    raise ValueError(f"constraint {k} references variable {i} out of range")
                if not np.isfinite(v):
                    raise ValueError(f"constraint {k} has non-finite coefficient")


@dataclass(frozen=True)
class Basis:
    """Warm-start state: basic column per row plus status per column.

    Columns are indexed over structural variables followed by one slack per
    constraint row; status codes are BASIC/AT_LO/AT_UP/FREE.  `binv`, when
    set, is the inverse of the basic columns; it is shared, never written,
    and left out of comparisons.  A warm start checks it against the basic
    columns of its own LP and refactorizes when it does not fit.
    """

    basic: tuple[int, ...]
    status: tuple[int, ...]
    binv: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class LpSolution:
    status: Status
    values: np.ndarray | None
    objective_value: float | None
    dual_values: np.ndarray | None
    reduced_costs: np.ndarray | None = None
    basis: Basis | None = None
    iterations: int = 0
    dual_iterations: int = 0    # the share of `iterations` spent in the dual simplex
    refactorizations: int = 0
    cold_fallback: bool = False  # a warm start was offered, the solve restarted cold


@dataclass
class CompiledLp:
    """Equality-form arrays shared across repeated solves with varying bounds."""

    a: np.ndarray          # m x (n_struct + m), structural columns then slack identity
    rhs: np.ndarray
    cost: np.ndarray       # extended, slacks cost 0
    slack_lo: np.ndarray
    slack_hi: np.ndarray
    n_struct: int
    m: int


def compile_lp(prob: LinearProgram) -> CompiledLp:
    prob.validate()
    n, m = prob.n_vars, prob.n_rows
    a = np.zeros((m, n + m))
    rhs = np.empty(m)
    slack_lo = np.empty(m)
    slack_hi = np.empty(m)
    for k, con in enumerate(prob.constraints):
        for i, v in con.coeffs:
            a[k, i] += v
        a[k, n + k] = 1.0
        rhs[k] = con.rhs
        if con.sense == "<=":
            slack_lo[k], slack_hi[k] = 0.0, np.inf
        elif con.sense == ">=":
            slack_lo[k], slack_hi[k] = -np.inf, 0.0
        else:
            slack_lo[k], slack_hi[k] = 0.0, 0.0
    cost = np.concatenate([prob.objective, np.zeros(m)])
    return CompiledLp(a, rhs, cost, slack_lo, slack_hi, n, m)


@functools.lru_cache(maxsize=16)
def _freivalds_vector(m: int) -> np.ndarray:
    """The fixed vector of Freivalds' check, cos(0), ..., cos(m - 1); read-only."""
    u = np.cos(np.arange(m))
    u.flags.writeable = False
    return u


class _Simplex:
    """One solve over the compiled arrays; not reusable."""

    def __init__(self, comp: CompiledLp, lower, upper, max_iter, cutoff=np.inf):
        self.m = comp.m
        self.n_struct = comp.n_struct
        self.a = comp.a
        # the boxes, kept for phase 1, which relaxes some of them in lo/hi
        self.box_lo = np.concatenate([lower, comp.slack_lo])
        self.box_hi = np.concatenate([upper, comp.slack_hi])
        self.lo, self.hi = self.box_lo.copy(), self.box_hi.copy()
        self.cost = comp.cost
        self.rhs = comp.rhs
        self.n_cols = self.a.shape[1]
        self.max_iter = max_iter
        self.cutoff = cutoff
        self.iterations = 0
        self.dual_iterations = 0
        self.refactorizations = 0
        self.cold_fallback = False
        self.degenerate = 0
        self.bland = False
        self.pivots_since_refactor = 0
        # phase-1 cost: -1/+1 on a basic column whose box is relaxed because
        # it starts below/above it, 0 elsewhere; None outside phase 1
        self.phase1_cost: np.ndarray | None = None
        # state set up by _cold_start or _try_warm_start
        self.vstat = np.empty(0, dtype=int)
        self.basic = np.empty(0, dtype=int)
        self.binv = np.empty((0, 0))
        self.beta = np.empty(0)
        self.d = np.empty(0)  # reduced costs, carried from pivot to pivot
        # pricing state, built by _directions for each primal or dual pass and
        # carried by _pivot: +1/-1 for a movable column at its lower/upper
        # bound, 0 otherwise; the movable FREE columns, None when there are none
        self.dirn = np.empty(0)
        self.free: np.ndarray | None = None
        self.outer = np.empty((self.m, self.m))  # rank-1 term of each pivot

    # -- state helpers ------------------------------------------------------

    def _nonbasic_value(self, j: int) -> float:
        st = self.vstat[j]
        if st == AT_LO:
            return self.lo[j]
        if st == AT_UP:
            return self.hi[j]
        return 0.0

    def _nonbasic_values(self) -> np.ndarray:
        x = np.zeros(self.n_cols)
        at_lo = self.vstat == AT_LO
        at_up = self.vstat == AT_UP
        x[at_lo] = self.lo[at_lo]
        x[at_up] = self.hi[at_up]
        return x

    def _full_values(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basic] = self.beta
        return x

    def _recompute_beta(self) -> None:
        x_n = self._nonbasic_values()
        x_n[self.basic] = 0.0
        self.beta = self.binv @ (self.rhs - self.a @ x_n)

    def _refactorize(self) -> None:
        self.binv = linalg.invert(self.a[:, self.basic])
        self.refactorizations += 1
        self.pivots_since_refactor = 0
        self._recompute_beta()

    def _beta_residual_ok(self) -> bool:
        """Cheap drift check: does B @ beta reproduce the nonbasic-adjusted rhs?"""
        if not self.m:
            return True
        x = self._nonbasic_values()
        x[self.basic] = 0.0
        target = self.rhs - self.a @ x
        x[self.basic] = self.beta
        resid = self.a @ x - self.rhs  # = B @ beta - target
        scale = max(1.0, float(np.abs(target).max()))
        return bool(np.abs(resid).max() <= 1e-8 * scale)

    def _inverse_ok(self) -> bool:
        """Freivalds' check that binv inverts the basic columns: B (binv u) = u
        for one fixed vector u without structure.  The beta residual cannot
        see a wrong inverse when the vector it tests is 0."""
        u = _freivalds_vector(self.m)
        resid = self.a[:, self.basic] @ (self.binv @ u) - u
        return bool(np.abs(resid).max() <= 1e-8) if self.m else True

    def _default_statuses(self) -> np.ndarray:
        """AT_LO at a finite lower bound, else AT_UP at a finite upper, else FREE."""
        return np.where(np.isfinite(self.lo), AT_LO,
                        np.where(np.isfinite(self.hi), AT_UP, FREE))

    # -- start-up paths -----------------------------------------------------

    def _cold_start(self) -> None:
        """The all-slack basis, whose inverse is the identity."""
        n = self.n_struct
        self.vstat = self._default_statuses()
        self.basic = np.arange(n, n + self.m)
        self.vstat[self.basic] = BASIC
        self.binv = np.eye(self.m)
        self.pivots_since_refactor = 0
        self._recompute_beta()

    def _repair_statuses(self) -> None:
        """Fix statuses that reference bounds the caller changed or removed."""
        fin_lo, fin_hi = np.isfinite(self.lo), np.isfinite(self.hi)
        st = self.vstat
        stale = (((st == AT_LO) & ~fin_lo) | ((st == AT_UP) & ~fin_hi)
                 | ((st == FREE) & (fin_lo | fin_hi)))
        self.vstat = np.where(stale, self._default_statuses(), st)

    def _try_warm_start(self, warm: Basis) -> bool:
        n_base = self.n_struct + self.m
        if len(warm.status) != n_base or len(warm.basic) != self.m:
            return False
        basic = np.array(warm.basic, dtype=int)
        if len(set(basic.tolist())) != self.m or (
                self.m and (basic.min() < 0 or basic.max() >= n_base)):
            return False
        self.vstat = np.array(warm.status, dtype=int)
        self._repair_statuses()
        self.vstat[basic] = BASIC
        self.basic = basic
        try:
            if warm.binv is not None and warm.binv.shape == (self.m, self.m):
                self.binv = warm.binv.copy()
                self._recompute_beta()
                if self._beta_residual_ok() and self._inverse_ok():
                    return True
            self._refactorize()
        except linalg.LinAlgError:
            return False
        return True

    # -- pricing ------------------------------------------------------------

    def _reduced_costs(self, cost) -> np.ndarray:
        return cost - self.a.T @ (self.binv.T @ cost[self.basic])

    def _movable_mask(self) -> np.ndarray:
        return (self.hi - self.lo) > 1e-12

    def _directions(self) -> None:
        """Build dirn and free from the statuses and the boxes."""
        movable = self._movable_mask()
        st = self.vstat
        self.dirn = ((st == AT_LO) & movable).astype(float)
        self.dirn[(st == AT_UP) & movable] = -1.0
        free = (st == FREE) & movable
        self.free = free if free.any() else None

    def _entering(self, d: np.ndarray) -> int | None:
        """The column whose move off its bound lowers the cost fastest: score
        -d at the lower bound, d at the upper, |d| when free, 0 (never
        eligible) when basic or fixed."""
        score = d * self.dirn
        np.negative(score, out=score)
        if self.free is not None:
            score[self.free] = np.abs(d[self.free])
        if self.bland:
            eligible = np.nonzero(score > OPT_TOL)[0]
            return int(eligible[0]) if eligible.size else None
        j = int(score.argmax())
        return j if score[j] > OPT_TOL else None

    # -- primal simplex -----------------------------------------------------

    def _primal(self, cost: np.ndarray) -> Status:
        """Primal simplex on `cost`, pricing from the reduced costs that
        each pivot carries in self.d."""
        local_iter = 0
        self.d = self._reduced_costs(cost)
        self._directions()
        while True:
            if local_iter >= self.max_iter:
                raise SimplexStalledError(
                    f"stalled: simplex iteration cap {self.max_iter} exceeded")
            local_iter += 1
            self.iterations += 1
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                self._refactorize()
                self.d = self._reduced_costs(cost)
            e = self._entering(self.d)
            if e is None:
                return Status.OPTIMAL
            # direction: +1 when the entering variable increases; a free one
            # (dirn 0) moves against its reduced cost
            theta = float(self.dirn[e]) or (1.0 if self.d[e] < 0 else -1.0)
            w = self.binv @ self.a[:, e]
            g = theta * w
            # ratio test: basics leave at the bound they hit first
            lo_b = self.lo[self.basic]
            hi_b = self.hi[self.basic]
            pos = g > PIVOT_TOL
            neg = g < -PIVOT_TOL
            ratios = np.full(self.m, np.inf)
            with np.errstate(invalid="ignore"):
                ratios[pos] = (self.beta[pos] - lo_b[pos]) / g[pos]
                ratios[neg] = (self.beta[neg] - hi_b[neg]) / g[neg]
            ratios[~np.isfinite(ratios)] = np.inf
            np.maximum(ratios, 0.0, out=ratios)
            t_best = float(ratios.min()) if self.m else np.inf
            leave_slot = -1
            leave_to = AT_LO
            if np.isfinite(t_best):
                cand = np.nonzero(ratios <= t_best + DEGEN_TOL)[0]
                if self.bland:
                    leave_slot = int(cand[np.argmin(self.basic[cand])])
                else:
                    leave_slot = int(cand[np.argmax(np.abs(g[cand]))])
                leave_to = AT_LO if g[leave_slot] > 0 else AT_UP
            t_flip = self.hi[e] - self.lo[e] if self.dirn[e] else np.inf
            if t_best == np.inf and not np.isfinite(t_flip):
                return Status.UNBOUNDED
            if t_flip <= t_best:
                # bound flip: no basis change
                self.beta -= g * t_flip
                self.vstat[e] = AT_UP if self.vstat[e] == AT_LO else AT_LO
                self.dirn[e] = -self.dirn[e]
                if t_flip < DEGEN_TOL:
                    self._count_degenerate()
                continue
            if t_best < DEGEN_TOL:
                self._count_degenerate()
            alpha = self.a.T @ self.binv[leave_slot]
            self._pivot(e, leave_slot, leave_to, theta, w, t_best, alpha)

    def _count_degenerate(self) -> None:
        self.degenerate += 1
        if self.degenerate >= BLAND_AFTER:
            self.bland = True

    def _pivot(self, e: int, slot: int, leave_to: int, theta: float, w: np.ndarray,
               t: float, alpha: np.ndarray) -> None:
        """Swap column e into the basis at `slot`, moving t along theta * w,
        and carry the inverse, the reduced costs and the pricing directions
        along; alpha is the pivot row of B^-1 A.  A leaving relaxed phase-1
        column gets its box back, and its direction from that box; the
        phase-1 cost changed, so the reduced costs are priced afresh."""
        enter_val = self._nonbasic_value(e) + theta * t
        self.beta -= theta * t * w
        leaving = self.basic[slot]
        restored = self.phase1_cost is not None and bool(self.phase1_cost[leaving])
        if restored:
            # a relaxed column reached the bound it violated: its box is back,
            # and it rests at that bound
            self.lo[leaving], self.hi[leaving] = self.box_lo[leaving], self.box_hi[leaving]
            leave_to = AT_LO if self.phase1_cost[leaving] < 0 else AT_UP
            self.phase1_cost[leaving] = 0.0
        self.vstat[leaving] = leave_to
        self.basic[slot] = e
        self.vstat[e] = BASIC
        self.dirn[e] = 0.0
        if self.free is not None:
            self.free[e] = False
        if self.hi[leaving] - self.lo[leaving] > 1e-12:
            self.dirn[leaving] = 1.0 if leave_to == AT_LO else -1.0
        self.beta[slot] = enter_val
        # elementary update of the explicit inverse: one full rank-1 update,
        # then the pivot row is put in place.  The outer product w row' is a
        # matrix product with one inner term, so each entry is the single
        # rounded product w_i row_j, formed by BLAS faster than by broadcasting
        row = self.binv[slot] / w[slot]
        np.dot(w[:, None], row[None, :], out=self.outer)
        self.binv -= self.outer
        self.binv[slot] = row
        self.pivots_since_refactor += 1
        if restored:
            self.d = self._reduced_costs(self.phase1_cost)
        else:
            step = self.d[e] / alpha[e]
            self.d -= step * alpha
            self.d[e] = 0.0
            self.d[leaving] = -step

    # -- dual simplex (warm re-optimization) --------------------------------

    def _dual(self, d: np.ndarray) -> Status | None:
        """Restore primal feasibility keeping dual feasibility.

        `d` holds the reduced costs of the starting basis; each pivot carries
        them in self.d with the pivot row it forms anyway.  Returns
        Status.OPTIMAL once the basis is primal feasible, Status.CUTOFF once
        the cost of a still infeasible iterate reaches self.cutoff, or None
        to request a cold restart, which also decides infeasibility.  The
        attempt is best-effort: it gets a small sub-budget so degenerate
        cycling can never starve the cold path that guarantees correctness.
        """
        local_iter = 0
        budget = min(self.max_iter, 3 * self.m + 50)
        self.d = d
        self._directions()
        # the dual objective is the monotone quantity here; stalling in it
        # for many pivots indicates degenerate cycling.  It starts at the basic
        # solution's cost, and each pivot raises it by |d_q / alpha_q| |delta|
        dual_obj = float(self.cost @ self._full_values())
        last_dual_obj = -np.inf
        since_progress = 0
        lo_b = self.lo[self.basic]
        hi_b = self.hi[self.basic]
        while True:
            if local_iter >= budget:
                return None
            local_iter += 1
            self.iterations += 1
            self.dual_iterations += 1
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                self._refactorize()
                self.d = self._reduced_costs(self.cost)
            viol = np.maximum(lo_b - self.beta, self.beta - hi_b)
            slot = int(viol.argmax())
            if viol[slot] <= FEAS_TOL:
                return Status.OPTIMAL  # primal feasible again; caller polishes
            # the carried dual objective drifts, so the exact cost confirms it
            if dual_obj >= self.cutoff and float(self.cost @ self._full_values()) >= self.cutoff:
                return Status.CUTOFF
            bi = self.basic[slot]
            below = self.beta[slot] < self.lo[bi]
            delta = self.beta[slot] - (self.lo[bi] if below else self.hi[bi])
            alpha = self.a.T @ self.binv[slot]
            if dual_obj > last_dual_obj + 1e-12 * max(1.0, abs(last_dual_obj)):
                last_dual_obj = dual_obj
                since_progress = 0
            else:
                since_progress += 1
                if since_progress > 40:
                    return None  # cycling; the cold path decides
            # a column may enter when moving it off its bound moves the leaving
            # row towards its violated bound (g = alpha at the upper, -alpha at
            # the lower).  Stricter pivot quality than the primal: dual updates
            # feed the explicit inverse and a weak pivot wrecks it quickly
            g = alpha * self.dirn
            if below:
                np.negative(g, out=g)
            ok = g > 1e-7
            if self.free is not None:
                ok |= self.free & (np.abs(alpha) > 1e-7)
            idx = ok.nonzero()[0]
            if not idx.size:
                return None  # no column can enter; the cold path decides
            ratios = np.abs(self.d[idx] / alpha[idx])
            best = int(idx[ratios <= ratios.min() + 1e-12][0])
            w = self.binv @ self.a[:, best]
            t = delta / w[slot]
            theta = 1.0 if t >= 0 else -1.0
            dual_obj += abs(self.d[best] / alpha[best]) * abs(delta)
            self._pivot(best, slot, AT_LO if below else AT_UP, theta, w, abs(t), alpha)
            lo_b[slot], hi_b[slot] = self.lo[best], self.hi[best]

    # -- driver --------------------------------------------------------------

    def solve(self, warm: Basis | None) -> Status:
        if warm is not None and self._try_warm_start(warm):
            try:
                status = Status.OPTIMAL
                if not self._beta_feasible():
                    d = self._reduced_costs(self.cost)
                    status = self._dual(d) if self._dual_feasible(d) else None
                if status == Status.CUTOFF:
                    return status
                if status is not None:
                    return self._primal_rounds()
            except linalg.LinAlgError:
                pass  # numerically wrecked warm basis; start again cold
        self.cold_fallback = warm is not None
        self._cold_start()
        return self._primal_rounds()

    def _relax(self) -> bool:
        """Phase 1 from the current basis: a basic column more than FEAS_TOL
        outside its box keeps only the bound it violates, now on its other
        side, and gets the phase-1 cost that drives it towards that bound.
        False, with nothing changed, when no basic value is out of its box."""
        lo_b, hi_b = self.lo[self.basic], self.hi[self.basic]
        below = self.beta < lo_b - FEAS_TOL
        above = self.beta > hi_b + FEAS_TOL
        if not (below.any() or above.any()):
            return False
        cols_below, cols_above = self.basic[below], self.basic[above]
        self.phase1_cost = np.zeros(self.n_cols)
        self.phase1_cost[cols_below] = -1.0
        self.phase1_cost[cols_above] = 1.0
        self.hi[cols_below], self.lo[cols_below] = lo_b[below], -np.inf
        self.lo[cols_above], self.hi[cols_above] = hi_b[above], np.inf
        return True

    def _primal_rounds(self) -> Status:
        """Phase 1 when a basic value is out of its box, then phase 2.  An
        answer stands when beta reproduces the right-hand side; otherwise
        the basis is refactorized and the next round starts from it."""
        for _ in range(PRIMAL_ROUNDS):
            status = Status.OPTIMAL
            if self._relax():
                status = self._primal(self.phase1_cost)
                assert status == Status.OPTIMAL  # phase 1 is bounded below
                self.phase1_cost = None
                self.lo[:], self.hi[:] = self.box_lo, self.box_hi
                if not self._beta_feasible():
                    status = Status.INFEASIBLE
            if status == Status.OPTIMAL:
                status = self._primal(self.cost)
            if self._beta_residual_ok() and (status != Status.OPTIMAL or self._beta_feasible()):
                return status
            self._refactorize()
        raise SimplexStalledError(f"stalled: no accurate basis in {PRIMAL_ROUNDS} rounds")

    def _beta_feasible(self) -> bool:
        lo_b = self.lo[self.basic]
        hi_b = self.hi[self.basic]
        return bool(np.all(self.beta >= lo_b - FEAS_TOL) and np.all(self.beta <= hi_b + FEAS_TOL))

    def _dual_feasible(self, d: np.ndarray) -> bool:
        st = self.vstat
        wrong_sign = (((st == AT_LO) & (d < -OPT_TOL)) | ((st == AT_UP) & (d > OPT_TOL))
                      | ((st == FREE) & (np.abs(d) > OPT_TOL)))
        return not np.any(wrong_sign & self._movable_mask())

    def export_basis(self) -> Basis:
        """The final basis with the working inverse attached (not copied: this
        solve is over)."""
        return Basis(tuple(self.basic.tolist()), tuple(self.vstat.tolist()), self.binv)

    def duals(self) -> tuple[np.ndarray, np.ndarray]:
        """Row duals, and the reduced costs the last primal pass carried."""
        return self.binv.T @ self.cost[self.basic], self.d[:self.n_struct]


def solve_compiled(comp: CompiledLp, lower, upper, warm: Basis | None = None, *,
                   cutoff: float = np.inf) -> LpSolution:
    """Solve the compiled LP over the given bounds; see the module docstring.
    Status.CUTOFF, like INFEASIBLE and UNBOUNDED, comes with no solution."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    s = _Simplex(comp, lower, upper, 50 * (comp.n_struct + comp.m), cutoff)
    status = s.solve(warm)
    counters = dict(iterations=s.iterations, dual_iterations=s.dual_iterations,
                    refactorizations=s.refactorizations, cold_fallback=s.cold_fallback)
    if status != Status.OPTIMAL:
        return LpSolution(status, None, None, None, **counters)
    values = s._full_values()[:comp.n_struct]
    y, red = s.duals()
    obj = float(comp.cost[:comp.n_struct] @ values)
    return LpSolution(Status.OPTIMAL, values, obj, y, red, s.export_basis(), **counters)


def solve_lp(prob: LinearProgram, warm: Basis | None = None) -> LpSolution:
    """Solve min c @ v s.t. constraints, bounds.  See module docstring."""
    comp = compile_lp(prob)
    return solve_compiled(comp, prob.lower, prob.upper, warm)


def duality_gap(prob: LinearProgram, sol: LpSolution) -> float:
    """|primal - dual| with the bound terms of bounded-variable duality included."""
    if sol.status != Status.OPTIMAL:
        raise ValueError("duality gap is defined for optimal solutions only")
    rhs = np.array([c.rhs for c in prob.constraints])
    dual_obj = float(sol.dual_values @ rhs) if rhs.size else 0.0
    for j in range(prob.n_vars):
        d = sol.reduced_costs[j]
        v = sol.values[j]
        lo, hi = prob.lower[j], prob.upper[j]
        # at-bound contribution: active bound times its multiplier
        if d > 0 and np.isfinite(lo) and v <= lo + 1e-6:
            dual_obj += d * lo
        elif d < 0 and np.isfinite(hi) and v >= hi - 1e-6:
            dual_obj += d * hi
    return abs(sol.objective_value - dual_obj)
