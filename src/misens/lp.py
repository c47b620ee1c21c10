"""Linear programming over bounded variables by the bounded dual simplex.

Constraints are held in equality form with one slack per row.  The basis
inverse is kept explicitly and refactorized periodically; the reduced
costs are carried from pivot to pivot with each pivot's row of B^-1 A
(Koberstein, *The dual simplex method, techniques for a fast and stable
implementation*, 2005).

There is one method.  Any basis is dual feasible once each nonbasic column
rests on the bound that the sign of its reduced cost picks, so a solve
prices its starting basis, puts the columns there and runs the dual
simplex until the basic values lie in their boxes.  A cold solve starts
from the all-slack basis (inverse = I), a warm one from the caller's
Basis; a Basis that does not fit (shapes, ranges, a repeated column) is
replaced by the slack basis.  An infinite bound a column must rest on gets
an artificial one, ARTIFICIAL_BOUND out.  When no column can enter, the
row is formed again from a refactorized inverse: if its reach over the
real boxes falls short of the violated bound by more than FEAS_TOL, it is
a Farkas certificate (INFEASIBLE), else the pivot is the usable column of
largest |alpha|.  When the dual objective stalls for STALL_PIVOTS pivots,
the nonbasic costs are perturbed.  At the dual's optimum the basic values
must reproduce the right-hand side, the basis is priced afresh with the
true costs, and a wrong-signed reduced cost moves its column to the other
bound and the dual runs again.  A column left on an artificial bound is a
ray: UNBOUNDED when it lowers the cost and meets no finite bound of a
basic column, else the artificial bounds widen by ARTIFICIAL_GROWTH.

An optimal Basis carries its inverse in read-only arrays, shared by the
children of a branch-and-bound node; a child copies it at its first pivot
and refactorizes only when the basic values it gives, or the inverse itself
(Freivalds' check), fail a residual test.  Under an objective `cutoff` the
cost of each iterate is a lower bound on the optimum while the costs are
true, the basis dual feasible and no column on an artificial bound; once
it reaches the cutoff, confirmed by the exact cost, the solve stops with
Status.CUTOFF and no solution.
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
ENTER_TOL = 1e-7  # least |alpha| of an entering column in the ratio test
REFACTOR_EVERY = 128
STALL_PIVOTS = 40  # dual pivots without progress before the costs are perturbed
PERTURBATION = 1e-6  # relative size of the cost perturbation
ARTIFICIAL_BOUND = 1e6
ARTIFICIAL_GROWTH = 1e3

# column status codes
BASIC, AT_LO, AT_UP = 0, 1, 2

# a movable column's direction by status: +1 at its lower bound, -1 at its
# upper, 0 when basic
_DIRECTION = np.array([0.0, 1.0, -1.0])

SENSES = ("<=", "=", ">=")


class SimplexStalledError(RuntimeError):
    """A solve exceeded its iteration cap."""


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
    constraint row; status codes are BASIC/AT_LO/AT_UP.  `basic` and
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
    refactorizations: int = 0


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
        # the real boxes, one row per status code, so that a nonbasic column
        # j's bound is box[vstat[j], j] (the BASIC row is 0); lo and hi are
        # views of the AT_LO and AT_UP rows
        self.box = np.zeros((3, self.n_cols))
        self.lo, self.hi = self.box[AT_LO], self.box[AT_UP]
        self.lo[:self.n_struct], self.lo[self.n_struct:] = lower, comp.slack_lo
        self.hi[:self.n_struct], self.hi[self.n_struct:] = upper, comp.slack_hi
        self.infinite = np.isinf(self.box)
        self.movable = (self.hi - self.lo) > 1e-12
        self._set_rest(ARTIFICIAL_BOUND)  # self.rest: the box, artificial bounds for infinite ones
        self.cost = comp.cost  # perturbed into a copy while the dual stalls
        self.true_cost = comp.cost
        self.rhs = comp.rhs
        self.max_iter = max_iter
        self.cutoff = cutoff
        self.iterations = 0
        self.refactorizations = 0
        self.pivots_since_refactor = 0
        # state set up by _slack_basis or _try_warm_start: statuses, basic
        # columns, the inverse and basic values
        self.vstat = self.basic = self.binv = self.beta = None
        self.binv_shared = False  # binv is a warm Basis's: the first pivot copies it
        self.x = None  # full values at the last beta set-up or residual check
        self.d = None  # reduced costs, carried from pivot to pivot
        self.y = None  # B^-T c_B of the last pricing, None after a pivot
        self.dirn = None  # _DIRECTION of each movable column's status, else 0
        # the cost of an iterate bounds the optimum from below: the costs are
        # true and the basis is dual feasible (columns on artificial bounds
        # aside, which the cutoff test checks)
        self.bounding = True
        # a nonbasic column rests on an artificial bound, or did since beta
        # was last formed
        self.artificial_seen = False
        self.outer = np.empty((self.m, self.m))  # rank-1 term of each pivot

    # -- state helpers ------------------------------------------------------

    def _set_rest(self, reach: float) -> None:
        """Where a nonbasic column rests, by status: its bound, or for an
        infinite bound an artificial one `reach` beyond 0 or beyond the
        column's other bound, whichever is farther out."""
        self.rest = self.box.copy()
        np.copyto(self.rest[AT_LO], np.minimum(self.hi, 0.0) - reach, where=self.infinite[AT_LO])
        np.copyto(self.rest[AT_UP], np.maximum(self.lo, 0.0) + reach, where=self.infinite[AT_UP])
        self.reach = reach

    def _nonbasic_values(self) -> np.ndarray:
        """x_N: each column at the bound its status names, 0 when basic."""
        return self.rest[self.vstat, _columns(self.n_cols)]

    def _full_values(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basic] = self.beta
        return x

    def _set_values(self, fresh: bool = True) -> np.ndarray:
        """The full values in self.x: x_N, and beta at the basic columns,
        formed afresh as B^-1 (rhs - A x_N) when `fresh`.  Returns the
        target rhs - A x_N."""
        x = self._nonbasic_values()
        target = self.rhs - self.a @ x
        if fresh:
            self.beta = self.binv @ target
        x[self.basic] = self.beta
        self.x = x
        return target

    def _refactorize(self) -> None:
        """A fresh inverse, basic values and reduced costs."""
        self.binv = linalg.invert(self.a[:, self.basic])
        self.binv_shared = False
        self.refactorizations += 1
        self.pivots_since_refactor = 0
        self._set_values()
        self.d = self._reduced_costs()

    def _reproduces(self, target: np.ndarray) -> bool:
        """Cheap drift check: does B beta reproduce target = rhs - A x_N?
        B beta - target is A x - rhs for the full values x in self.x."""
        if not self.m:
            return True
        resid = self.a @ self.x - self.rhs
        scale = max(1.0, float(np.abs(target).max()))
        return bool(np.abs(resid).max() <= 1e-8 * scale)

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

    def _reduced_costs(self) -> np.ndarray:
        self.y = self.binv.T @ self.cost[self.basic]
        return self.cost - self.a.T @ self.y

    # -- start-up -----------------------------------------------------------

    def _slack_basis(self) -> None:
        """The all-slack basis, whose inverse is the identity."""
        self.basic = np.arange(self.n_struct, self.n_cols)
        self.vstat = np.full(self.n_cols, AT_LO)
        self.vstat[self.basic] = BASIC
        self.binv = np.eye(self.m)
        self.binv_shared = False
        self.pivots_since_refactor = 0
        self.x = None  # no values yet, whatever a warm start that failed left

    def _try_warm_start(self, warm: Basis) -> bool:
        """Take the caller's basis, or return False when it does not fit this
        LP: wrong shapes, a status code out of range, or basic columns other
        than those with status BASIC.  The carried inverse is used (shared
        until the first pivot) when beta's residual and Freivalds' check
        hold, else the basis is refactorized; an inverse with non-finite or
        overflowing entries fails them."""
        m = self.m
        basic, status = warm.basic, warm.status
        if (basic.shape != (m,) or status.shape != (self.n_cols,)
                or status.min(initial=BASIC) < BASIC or status.max(initial=BASIC) > AT_UP
                or not np.array_equal(np.flatnonzero(status == BASIC), np.sort(basic))):
            return False
        self.vstat = status.copy()
        self.basic = basic.copy()
        self.dirn = _DIRECTION[self.vstat] * self.movable
        try:
            binv = warm.binv
            if binv is not None and binv.shape == (m, m):
                self.binv, self.binv_shared = binv, True
                with np.errstate(over="ignore", invalid="ignore"):
                    if self._reproduces(self._set_values()) and self._inverse_ok():
                        return True
            self._refactorize()
        except linalg.LinAlgError:
            return False
        return True

    def _statuses(self, d: np.ndarray) -> np.ndarray:
        """The dual feasible statuses for reduced costs d: each movable
        nonbasic column on the bound the sign of its reduced cost picks (a
        near-0 one keeps its bound unless that is infinite and the other is
        not); a fixed column keeps its bound."""
        vstat = self.vstat
        fin_lo, fin_hi = ~self.infinite[AT_LO], ~self.infinite[AT_UP]
        up = (d < -OPT_TOL) | ((d <= OPT_TOL) & fin_hi & ((vstat == AT_UP) | ~fin_lo))
        return np.where(self.movable & (vstat != BASIC), np.where(up, AT_UP, AT_LO), vstat)

    def _price_statuses(self) -> bool:
        """Price the basis with the true costs and make it dual feasible
        (_statuses).  True when a status changed; beta is then formed
        afresh."""
        self.cost = self.true_cost
        self.d = self._reduced_costs()
        self.bounding = True
        self.artificial_seen = bool(self.infinite[self.vstat, _columns(self.n_cols)].any())
        if (self.x is not None and not self.artificial_seen
                and not (self.d * self.dirn < -OPT_TOL).any()):
            return False  # dual feasible as it stands
        side = self._statuses(self.d)
        self.artificial_seen = bool(self.infinite[side, _columns(self.n_cols)].any())
        changed = self.x is None or not np.array_equal(side, self.vstat)
        self.vstat = side
        self.dirn = _DIRECTION[side] * self.movable
        if changed:
            self._set_values()
        return changed

    # -- dual simplex -------------------------------------------------------

    def _entering(self, alpha: np.ndarray, below: bool) -> int | None:
        """The dual ratio test on the pivot row alpha: among the columns
        whose move off their bound moves the leaving row towards its
        violated bound by more than ENTER_TOL per unit (g = alpha at the
        upper, -alpha at the lower, negated when the row is below its box),
        the one whose reduced cost reaches 0 first; the lowest index on
        ties.  None when no column qualifies."""
        g = alpha * self.dirn
        if below:
            np.negative(g, out=g)
        idx = (g > ENTER_TOL).nonzero()[0]
        if not idx.size:
            return None
        ratios = np.abs(self.d[idx] / alpha[idx])
        return int(idx[ratios <= ratios.min() + 1e-12][0])

    def _out_of_reach(self, slot: int, below: bool, alpha: np.ndarray) -> int | None:
        """A row no column can enter, formed from a fresh inverse: None when
        its reach over the real boxes falls short of the violated bound by
        more than FEAS_TOL (a Farkas certificate of infeasibility), else
        the usable column of largest |alpha|.  Entries |alpha| <= PIVOT_TOL
        count as 0."""
        gain = -alpha if below else alpha.copy()  # the row's move per unit of each column
        gain[self.basic] = 0.0
        gain[np.abs(alpha) <= PIVOT_TOL] = 0.0
        x = self._nonbasic_values()
        with np.errstate(invalid="ignore"):  # 0 * inf, on the branch not taken
            reach = np.where(gain > 0, gain * (self.hi - x),
                             np.where(gain < 0, gain * (self.lo - x), 0.0))
        reach[~self.movable] = 0.0
        bi = self.basic[slot]
        short = (self.lo[bi] - self.beta[slot] if below else self.beta[slot] - self.hi[bi])
        if short - reach.sum() > FEAS_TOL:
            return None
        return int(np.where(reach > 0, np.abs(alpha), -1.0).argmax())

    def _dual(self) -> Status:
        """Pivot until the basic values lie in their boxes (OPTIMAL), the
        LP is proven infeasible, or the cost of an iterate reaches the
        cutoff.  Each pivot carries self.d and self.dirn along."""
        # the dual objective starts at the basic solution's cost and each
        # pivot raises it by |d_q / alpha_q| |delta|: not at all when d_q = 0
        dual_obj = float(self.cost @ self.x)
        last_dual_obj = -np.inf
        since_progress = 0
        lo_b = self.lo[self.basic]
        hi_b = self.hi[self.basic]
        while self.m:
            if self.iterations >= self.max_iter:
                raise SimplexStalledError(
                    f"stalled: simplex iteration cap {self.max_iter} exceeded")
            self.iterations += 1
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                self._refactorize()
            viol = np.maximum(lo_b - self.beta, self.beta - hi_b)
            slot = int(viol.argmax())
            if viol[slot] <= FEAS_TOL:
                break
            # the carried dual objective drifts, so the exact cost confirms it;
            # only the true costs on real bounds give a lower bound
            if (dual_obj >= self.cutoff and self.bounding
                    and not self.infinite[self.vstat, _columns(self.n_cols)].any()
                    and float(self.cost @ self._full_values()) >= self.cutoff):
                return Status.CUTOFF
            if dual_obj > last_dual_obj + 1e-12 * max(1.0, abs(last_dual_obj)):
                last_dual_obj = dual_obj
                since_progress = 0
            else:
                since_progress += 1
                if since_progress > STALL_PIVOTS and self.cost is self.true_cost:
                    self._perturb()
                    dual_obj = last_dual_obj = float(self.cost @ self._full_values())
                    since_progress = 0
            below = self.beta[slot] < lo_b[slot]
            alpha = self.a.T @ self.binv[slot]
            q = self._entering(alpha, below)
            if q is None:
                if self.pivots_since_refactor or self.binv_shared:
                    self._refactorize()
                    continue  # form the row again from a fresh inverse
                q = self._out_of_reach(slot, below, alpha)
                if q is None:
                    return Status.INFEASIBLE
                self.bounding = False  # this pivot may break dual feasibility
            delta = viol[slot] if not below else -viol[slot]
            w = self.binv @ self.a[:, q]
            t = delta / w[slot]
            dual_obj += abs(self.d[q] / alpha[q]) * abs(delta)
            self._pivot(q, slot, AT_LO if below else AT_UP, t, w, alpha)
            lo_b[slot], hi_b[slot] = self.lo[q], self.hi[q]
        return Status.OPTIMAL

    def _perturb(self) -> None:
        """Koberstein's cost perturbation against dual degeneracy: each
        movable nonbasic column's cost, and its reduced cost, moves by
        PERTURBATION (1 + |c_j|) times a fixed weight in [0.5, 1], away from
        the bound it rests on.  Basic costs stay, so the duals do too."""
        weight = 0.75 + 0.25 * _freivalds_vector(self.n_cols)
        shift = PERTURBATION * (1.0 + np.abs(self.true_cost)) * weight * self.dirn
        self.cost = self.true_cost + shift
        self.d = self.d + shift
        self.bounding = False

    def _pivot(self, e: int, slot: int, leave_to: int, t: float, w: np.ndarray,
               alpha: np.ndarray) -> None:
        """Swap column e into the basis at `slot`, moving it by t (the basic
        values move by -t w), and carry the inverse, the reduced costs and
        the directions along; alpha is the pivot row of B^-1 A."""
        enter_val = self.rest[self.vstat[e], e] + t
        self.beta -= t * w
        leaving = self.basic[slot]
        self.vstat[leaving] = leave_to
        self.basic[slot] = e
        self.vstat[e] = BASIC
        self.dirn[e] = 0.0
        if self.movable[leaving]:
            self.dirn[leaving] = _DIRECTION[leave_to]
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
        step = self.d[e] / alpha[e]
        self.d -= step * alpha
        self.d[e] = 0.0
        self.d[leaving] = -step

    # -- driver --------------------------------------------------------------

    def solve(self, warm: Basis | None) -> Status:
        if warm is None or not self._try_warm_start(warm):
            self._slack_basis()
        self._price_statuses()
        while True:
            status = self._dual()
            if status != Status.OPTIMAL:
                return status
            status = self._finish()
            if status is not None:
                return status

    def _finish(self) -> Status | None:
        """Check the dual's optimum: OPTIMAL or UNBOUNDED, or None when the
        dual must run again from fresh basic values."""
        # beta carried values the size of any artificial bounds and lost
        # digits to them: it is formed afresh then, and its boxes tested again
        accurate = self._reproduces(self._set_values(fresh=self.artificial_seen))
        if accurate and self.artificial_seen:
            lo_b, hi_b = self.lo[self.basic], self.hi[self.basic]
            if np.maximum(lo_b - self.beta, self.beta - hi_b).max(initial=0.0) > FEAS_TOL:
                return None
        if not accurate:
            self._refactorize()
            return None
        if self._price_statuses():
            return None  # a reduced cost had the wrong sign for its bound
        ray_cols = np.flatnonzero(self.infinite[self.vstat, _columns(self.n_cols)])
        if not ray_cols.size:
            return Status.OPTIMAL
        # each column's ray leaves its artificial bound outwards, against
        # dirn_j: the basic values move by dirn_j w_j per unit, and meet a
        # finite bound when they move towards it
        move = (self.binv @ self.a[:, ray_cols]) * self.dirn[ray_cols]
        lo_b, hi_b = self.lo[self.basic], self.hi[self.basic]
        meets = (((move > PIVOT_TOL) & np.isfinite(hi_b)[:, None])
                 | ((move < -PIVOT_TOL) & np.isfinite(lo_b)[:, None])).any(axis=0)
        if (~meets & (np.abs(self.d[ray_cols]) > OPT_TOL)).any():
            if self.pivots_since_refactor:
                self._refactorize()  # the proof takes a fresh inverse
                return None
            return Status.UNBOUNDED
        if not meets.any():
            return Status.OPTIMAL  # the rays cost nothing
        self._set_rest(self.reach * ARTIFICIAL_GROWTH)
        self._set_values()
        return None

    def export_basis(self) -> Basis:
        """The final basis with the working inverse attached, not copied:
        this solve is over.  Its arrays are made read-only, because the
        children of a branch-and-bound node share it."""
        for arr in (self.basic, self.vstat, self.binv):
            arr.flags.writeable = False
        return Basis(self.basic, self.vstat, self.binv)


def solve_compiled(comp: CompiledLp, lower, upper, warm: Basis | None = None, *,
                   cutoff: float = np.inf) -> LpSolution:
    """Solve the compiled LP over the given bounds; see the module docstring.
    Status.CUTOFF, like INFEASIBLE and UNBOUNDED, comes with no solution."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    s = _Simplex(comp, lower, upper, 50 * (comp.n_struct + comp.m), cutoff)
    status = s.solve(warm)
    counters = dict(iterations=s.iterations, refactorizations=s.refactorizations)
    if status != Status.OPTIMAL:
        return LpSolution(status, None, None, None, **counters)
    values = s.x[:comp.n_struct]
    obj = float(comp.cost[:comp.n_struct] @ values)
    # the row duals and reduced costs of the final pricing
    return LpSolution(Status.OPTIMAL, values, obj, s.y, s.d[:comp.n_struct],
                      s.export_basis(), **counters)


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
    # at-bound contribution: active bound times its multiplier
    d, v, lo, hi = sol.reduced_costs, sol.values, prob.lower, prob.upper
    at_lo = (d > 0) & np.isfinite(lo) & (v <= lo + 1e-6)
    at_hi = (d < 0) & np.isfinite(hi) & (v >= hi - 1e-6)
    dual_obj += float(d[at_lo] @ lo[at_lo] + d[at_hi] @ hi[at_hi])
    return abs(sol.objective_value - dual_obj)
