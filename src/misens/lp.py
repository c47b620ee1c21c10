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
otherwise the next round starts from the refactorized basis.

A warm solve (from a caller-supplied basis, e.g. a branch-and-bound parent)
has one path, on which each quantity is formed once.  The basis must fit
the LP (shapes, ranges, no repeated column); statuses that reference
changed bounds are repaired.  x_N and rhs - A x_N give the basic values,
their residual and the dual's starting objective.  A primal feasible basis
goes straight to the primal rounds.  Otherwise one pricing both decides
dual feasibility (no column may enter) and starts the bounded-variable dual
simplex.  After the dual's optimum the first primal round prices afresh,
the only guard against drift in the reduced costs the dual carried, and
checks the residual once; it does not test the boxes the dual has just
met.  When the dual gives up, or the basis is not dual feasible, the solve
starts again cold, so correctness never depends on the warm start.

The basis exported with an optimal solution carries its inverse; its
arrays are read-only, because the children of a branch-and-bound node
share it, and each child copies the inverse at its first pivot.  The
inverse depends only on the basic columns, never on the bounds, so a warm
start from it (a branch-and-bound child with one bound tightened) skips the
refactorization unless the basic values it gives, or the inverse itself
(Freivalds' check), fail a residual test; an inverse with non-finite or
overflowing entries fails them quietly.

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

# a movable column's pricing direction by status: +1 at its lower bound,
# -1 at its upper, 0 when basic or free
_DIRECTION = np.array([0.0, 1.0, -1.0, 0.0])
# the repaired status, by [status, finite lower bound + 2 * finite upper]: a
# status that references a missing bound, or FREE beside a finite one,
# becomes AT_LO at a finite lower bound, else AT_UP at a finite upper, else
# FREE; BASIC stays
_REPAIRED = np.array([[BASIC] * 4,
                      [FREE, AT_LO, AT_UP, AT_LO],
                      [FREE, AT_LO, AT_UP, AT_UP],
                      [FREE, AT_LO, AT_UP, AT_LO]])

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


@dataclass(frozen=True, eq=False)
class Basis:
    """Warm-start state: basic column per row plus status per column.

    Columns are indexed over structural variables followed by one slack per
    constraint row; status codes are BASIC/AT_LO/AT_UP/FREE.  `basic` and
    `status` are int arrays (sequences are converted).  `binv`, when set,
    is the inverse of the basic columns; it is left out of comparisons.  A
    warm start checks it against the basic columns of its own LP and
    refactorizes when it does not fit.  An exported Basis is shared by the
    children of its branch-and-bound node, so its arrays are read-only.
    """

    basic: np.ndarray
    status: np.ndarray
    binv: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "basic", np.asarray(self.basic, dtype=int))
        object.__setattr__(self, "status", np.asarray(self.status, dtype=int))

    def __eq__(self, other):
        if not isinstance(other, Basis):
            return NotImplemented
        return (np.array_equal(self.basic, other.basic)
                and np.array_equal(self.status, other.status))


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


@functools.lru_cache(maxsize=16)
def _columns(n: int) -> np.ndarray:
    """0, ..., n - 1, for gathering one entry per column; read-only."""
    cols = np.arange(n)
    cols.flags.writeable = False
    return cols


class _Simplex:
    """One solve over the compiled arrays; not reusable."""

    def __init__(self, comp: CompiledLp, lower, upper, max_iter, cutoff=np.inf):
        self.m = comp.m
        self.n_struct = comp.n_struct
        self.a = comp.a
        self.n_cols = self.a.shape[1]
        # one row per status code, so that column j rests at bounds[vstat[j], j]
        # when nonbasic: the BASIC and FREE rows are 0, and lo/hi are views
        # of the AT_LO/AT_UP rows, written in place only
        self.bounds = np.zeros((4, self.n_cols))
        self.lo, self.hi = self.bounds[AT_LO], self.bounds[AT_UP]
        self.lo[:self.n_struct], self.lo[self.n_struct:] = lower, comp.slack_lo
        self.hi[:self.n_struct], self.hi[self.n_struct:] = upper, comp.slack_hi
        # the boxes, kept for phase 1, which relaxes some of them in lo/hi
        self.box_lo, self.box_hi = self.lo.copy(), self.hi.copy()
        self.cost = comp.cost
        self.rhs = comp.rhs
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
        # state set up by _cold_start or _try_warm_start: statuses, basic
        # columns, the inverse and basic values
        self.vstat = self.basic = self.binv = self.beta = None
        self.binv_shared = False  # binv is a warm Basis's: the first pivot copies it
        self.x = None  # full values at the last beta set-up or residual check
        self.d = None  # reduced costs, carried from pivot to pivot
        self.y = None  # B^-T c_B of the last pricing on self.cost, None after a pivot
        # pricing state, built by _directions for each primal or dual pass and
        # carried by _pivot: +1/-1 for a movable column at its lower/upper
        # bound, 0 otherwise; the movable FREE columns, None when there are none
        self.dirn = None
        self.free: np.ndarray | None = None
        self.outer = np.empty((self.m, self.m))  # rank-1 term of each pivot

    # -- state helpers ------------------------------------------------------

    def _nonbasic_value(self, j: int) -> float:
        return self.bounds[self.vstat[j], j]

    def _nonbasic_values(self) -> np.ndarray:
        """x_N: each column at the bound its status names, 0 when basic or free."""
        return self.bounds[self.vstat, _columns(self.n_cols)]

    def _full_values(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basic] = self.beta
        return x

    def _set_beta(self) -> np.ndarray:
        """beta = B^-1 (rhs - A x_N).  Leaves the full values, x_N with beta
        at the basic columns, in self.x, and returns rhs - A x_N."""
        x = self._nonbasic_values()
        target = self.rhs - self.a @ x
        self.beta = self.binv @ target
        x[self.basic] = self.beta
        self.x = x
        return target

    def _refactorize(self) -> None:
        self.binv = linalg.invert(self.a[:, self.basic])
        self.binv_shared = False
        self.y = None
        self.refactorizations += 1
        self.pivots_since_refactor = 0
        self._set_beta()

    def _reproduces(self, target: np.ndarray) -> bool:
        """Cheap drift check: does B beta reproduce target = rhs - A x_N?
        B beta - target is A x - rhs for the full values x in self.x."""
        if not self.m:
            return True
        resid = self.a @ self.x - self.rhs
        scale = max(1.0, float(np.abs(target).max()))
        return bool(np.abs(resid).max() <= 1e-8 * scale)

    def _beta_residual_ok(self) -> bool:
        """The drift check for the current beta; leaves the full values in self.x."""
        x = self._nonbasic_values()
        target = self.rhs - self.a @ x
        x[self.basic] = self.beta
        self.x = x
        return self._reproduces(target)

    def _inverse_ok(self) -> bool:
        """Freivalds' check that binv inverts the basic columns: B (binv u) = u
        for one fixed vector u without structure, with binv u scattered to
        the basic columns of an n-vector.  The beta residual cannot see a
        wrong inverse when the vector it tests is 0."""
        if not self.m:
            return True
        u = _freivalds_vector(self.m)
        z = np.zeros(self.n_cols)
        z[self.basic] = self.binv @ u
        return bool(np.abs(self.a @ z - u).max() <= 1e-8)

    def _finite_bounds(self) -> np.ndarray:
        """Per column: 1 for a finite lower bound plus 2 for a finite upper."""
        return np.isfinite(self.lo) + 2 * np.isfinite(self.hi)

    # -- start-up paths -----------------------------------------------------

    def _cold_start(self) -> None:
        """The all-slack basis, whose inverse is the identity."""
        n = self.n_struct
        # each column's default status: the one a FREE status is repaired to
        self.vstat = _REPAIRED[FREE][self._finite_bounds()]
        self.basic = np.arange(n, n + self.m)
        self.vstat[self.basic] = BASIC
        self.binv = np.eye(self.m)
        self.binv_shared = False
        self.pivots_since_refactor = 0
        self._set_beta()

    def _repair_statuses(self) -> None:
        """Fix statuses that reference bounds the caller changed or removed."""
        self.vstat = _REPAIRED[self.vstat, self._finite_bounds()]

    def _try_warm_start(self, warm: Basis) -> bool:
        """Take the caller's basis, or return False when it does not fit this
        LP: wrong shapes, a status code out of range, or basic columns out of
        range or repeated.  Statuses that reference changed bounds are
        repaired.  The carried inverse is used (shared until the first
        pivot) when beta's residual and Freivalds' check hold, else the basis
        is refactorized; an inverse with non-finite or overflowing entries
        fails them."""
        m, n_base = self.m, self.n_struct + self.m
        basic, status = warm.basic, warm.status
        if basic.shape != (m,) or status.shape != (n_base,) or (status & ~3).any():
            return False  # status codes are 0..3
        if m:
            if basic.min() < 0 or basic.max() >= n_base:
                return False
            seen = np.zeros(n_base, dtype=bool)
            seen[basic] = True
            if np.count_nonzero(seen) != m:
                return False
        self.vstat = status
        self._repair_statuses()
        self.vstat[basic] = BASIC
        self.basic = basic.copy()
        try:
            binv = warm.binv
            if binv is not None and binv.shape == (m, m):
                self.binv, self.binv_shared = binv, True
                with np.errstate(over="ignore", invalid="ignore"):
                    if self._reproduces(self._set_beta()) and self._inverse_ok():
                        return True
            self._refactorize()
        except linalg.LinAlgError:
            return False
        return True

    # -- pricing ------------------------------------------------------------

    def _reduced_costs(self, cost) -> np.ndarray:
        y = self.binv.T @ cost[self.basic]
        self.y = y if cost is self.cost else None
        return cost - self.a.T @ y

    def _directions(self) -> None:
        """Build dirn and free from the statuses and the boxes."""
        fixed = (self.hi - self.lo) <= 1e-12
        self.dirn = _DIRECTION[self.vstat]
        self.dirn[fixed] = 0.0
        free = self.vstat == FREE
        self.free = None
        if free.any():
            free[fixed] = False
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

    def _primal(self, cost: np.ndarray, directions: bool = True) -> Status:
        """Primal simplex on `cost`, pricing from the reduced costs that
        each pivot carries in self.d.  The pass prices afresh; it builds the
        directions too unless they are carried (`directions` False)."""
        local_iter = 0
        self.d = self._reduced_costs(cost)
        if directions:
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
        if self.binv_shared:
            # the first pivot off a warm Basis's inverse writes a new array:
            # the Basis stays shared with the other children of its node
            self.binv = self.binv - self.outer
            self.binv_shared = False
        else:
            self.binv -= self.outer
        self.binv[slot] = row
        self.y = None
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

        `d` holds the reduced costs of the starting basis, and self.dirn and
        self.free its pricing directions, both built by the caller; each
        pivot carries them with the pivot row it forms anyway.  Returns
        Status.OPTIMAL once the basis is primal feasible, Status.CUTOFF once
        the cost of a still infeasible iterate reaches self.cutoff, or None
        to request a cold restart, which also decides infeasibility.  The
        attempt is best-effort: it gets a small sub-budget so degenerate
        cycling can never starve the cold path that guarantees correctness.
        """
        local_iter = 0
        budget = min(self.max_iter, 3 * self.m + 50)
        self.d = d
        # the dual objective is the monotone quantity here; stalling in it
        # for many pivots indicates degenerate cycling.  It starts at the basic
        # solution's cost (self.x, set up by the warm start), and each pivot
        # raises it by |d_q / alpha_q| |delta|
        dual_obj = float(self.cost @ self.x)
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
                if self._beta_feasible():
                    return self._primal_rounds()
                # the dual simplex needs a dual feasible basis: one whose
                # pricing finds no entering column
                d = self._reduced_costs(self.cost)
                self._directions()
                status = self._dual(d) if self._entering(d) is None else None
                if status == Status.OPTIMAL:
                    return self._primal_rounds(after_dual=True)
                if status == Status.CUTOFF:
                    return status
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

    def _primal_rounds(self, after_dual: bool = False) -> Status:
        """Phase 1 when a basic value is out of its box, then phase 2.  An
        answer stands when beta reproduces the right-hand side (and, for an
        optimum, lies in its boxes); otherwise the basis is refactorized and
        the next round starts from it.

        `after_dual`: the dual simplex has just put beta in its boxes and
        carried the pricing directions, so the first round skips phase 1's
        test and the directions, and tests the boxes again only when phase 2
        takes a step.  Its pricing is still fresh: that is the only guard
        against drift in the reduced costs the dual carried."""
        for _ in range(PRIMAL_ROUNDS):
            status = Status.OPTIMAL
            in_boxes = False
            if not after_dual and self._relax():
                status = self._primal(self.phase1_cost)
                assert status == Status.OPTIMAL  # phase 1 is bounded below
                self.phase1_cost = None
                self.lo[:], self.hi[:] = self.box_lo, self.box_hi
                if not self._beta_feasible():
                    status = Status.INFEASIBLE
            if status == Status.OPTIMAL:
                start = self.iterations
                status = self._primal(self.cost, directions=not after_dual)
                # one iteration is the pricing alone: beta is the dual's
                in_boxes = after_dual and self.iterations == start + 1
            if self._beta_residual_ok() and (
                    status != Status.OPTIMAL or in_boxes or self._beta_feasible()):
                return status
            self._refactorize()
            after_dual = False
        raise SimplexStalledError(f"stalled: no accurate basis in {PRIMAL_ROUNDS} rounds")

    def _beta_feasible(self) -> bool:
        lo_b = self.lo[self.basic]
        hi_b = self.hi[self.basic]
        return bool((self.beta >= lo_b - FEAS_TOL).all() and (self.beta <= hi_b + FEAS_TOL).all())

    def export_basis(self) -> Basis:
        """The final basis with the working inverse attached, not copied:
        this solve is over.  Its arrays are made read-only, because the
        children of a branch-and-bound node share it."""
        for arr in (self.basic, self.vstat, self.binv):
            arr.flags.writeable = False
        return Basis(self.basic, self.vstat, self.binv)

    def duals(self) -> tuple[np.ndarray, np.ndarray]:
        """Row duals, and the reduced costs the last primal pass carried.
        The duals are the last pricing's when no pivot came after it."""
        y = self.y if self.y is not None else self.binv.T @ self.cost[self.basic]
        return y, self.d[:self.n_struct]


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
    values = s.x[:comp.n_struct]
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
