"""Linear programming over boxed variables by the bounded dual simplex.

A program is min c'v over dense rows row_lo <= A v <= row_hi and a finite
box lower <= v <= upper (`LinearProgram.validate` refuses any other), so it
is infeasible or has an optimum.  `compile_lp` gives each row a slack s =
rhs - A v, with rhs the row's finite side (row_hi when finite, else
row_lo), in the box [rhs - row_hi, rhs - row_lo].  A one-sided row's slack
gets a stand-in for its open side that cuts nothing, the range of the row
over the compiled box (rhs - min a'v for an open top, rhs - max a'v for an
open bottom, clamped at 0).  A nonbasic slack whose reduced cost picks that
side rests there; the leaving-row test keeps the real boxes.  A solve's
bounds must lie within the compiled box, which branch and bound only
tightens.  The basis inverse is kept explicitly and refactorized
periodically; the reduced costs are carried from pivot to pivot with each
pivot's row of B^-1 A (Koberstein, *The dual simplex method, techniques
for a fast and stable implementation*, 2005).

There is one method.  Any basis is dual feasible once each nonbasic column
rests on the bound that the sign of its reduced cost picks, so a solve
prices its starting basis, puts the columns there and runs the dual
simplex until the basic values lie in their boxes.  Its ratio test is
Harris's two passes (Harris, "Pivot selection methods of the Devex LP
code", Math. Programming 5, 1973): the first bounds the step by the least
(|d_j| + OPT_TOL) / |alpha_j| over the columns that can enter, the second
takes the one of largest |alpha_j| whose ratio lies within that bound.  On
degenerate LPs it takes fewer zero-length steps than the least ratio does,
at the price of reduced costs wrong-signed by up to OPT_TOL, which the final
pricing puts right.  A solve starts from the all-slack basis (inverse = I)
unless it is given a Basis exported by a solve over the same CompiledLp.
When no column can enter, the row is formed again from a refactorized
inverse: if its reach over the real boxes falls short of the violated bound
by more than FEAS_TOL, it is a Farkas certificate (INFEASIBLE), else the
pivot is the usable column of largest |alpha|.  When the dual objective
stalls for STALL_PIVOTS pivots, the nonbasic costs are perturbed.  At the
dual's optimum the basic values must reproduce the right-hand side and,
after pivots, the inverse must pass Freivalds' check; the basis is priced
afresh with the true costs, and a wrong-signed reduced cost moves its
column to the other bound and the dual runs again.

An optimal Basis carries its inverse in read-only arrays, shared by the
children of a branch-and-bound node, and the mark of the CompiledLp it was
solved over.  A child solved over that same CompiledLp takes the inverse
as it is, because the parent's solve checked it against the same arrays at
its optimum or formed it fresh, and copies it at its first pivot; a Basis
whose inverse was dropped (`Basis.without_inverse`) is refactorized once.
Any other Basis (built by hand, made by `dataclasses.replace`, or exported
over another CompiledLp) is ignored: the solve is the cold one.

Under an objective `cutoff` the solve stops with Status.CUTOFF and no
solution once the dual objective it carries reaches the cutoff and the
Lagrangian bound of the basis confirms it: with y = B^-T c_B for the true
costs and d = c - A'y, y'rhs + sum_j min(d_j lo_j, d_j hi_j) over the boxes
a nonbasic column rests in (a slack's stand-in side included).  Every box
is finite and no feasible point lies outside them, so this bounds the
optimum from below at any basis, dual feasible or not, perturbed costs or
true; at a dual feasible basis it is the cost of the basic solution.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import linalg

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIVOT_TOL = 1e-9
ENTER_TOL = 1e-7  # least |alpha| of an entering column in the ratio test
REFACTOR_EVERY = 128
STALL_PIVOTS = 40  # dual pivots without progress before the costs are perturbed
PERTURBATION = 1e-6  # relative size of the cost perturbation

# column status codes
BASIC, AT_LO, AT_UP = 0, 1, 2

# a movable column's direction by status: +1 at its lower bound, -1 at its
# upper, 0 when basic
_DIRECTION = np.array([0.0, 1.0, -1.0])


class SimplexStalledError(RuntimeError):
    """A solve exceeded its iteration cap."""


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    CUTOFF = "cutoff"  # the dual simplex proved the optimum >= the cutoff


@dataclass
class LinearProgram:
    """min objective @ v subject to row_lo <= a @ v <= row_hi and lower <= v
    <= upper: `a` is rows x variables, an equality row has row_lo == row_hi,
    every row has a finite side and every variable bound is finite."""

    objective: np.ndarray
    a: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("objective", "a", "row_lo", "row_hi", "lower", "upper"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def n_rows(self) -> int:
        return self.row_lo.shape[0]

    @property
    def constraints(self):
        """Yields each row as a record (coeffs, sense, rhs): its nonzero (index,
        value) pairs, "<=", "=" or ">=", and its finite side.  A read-only
        view for the benchmark's oracle (`perfbench/oracles.mip_arrays`);
        no solver reads it, and it goes once that oracle reads the fields
        (ROADMAP item 1).  Raises ValueError on a ranged row."""
        for k, (row, lo, hi) in enumerate(zip(self.a, self.row_lo, self.row_hi)):
            if lo != hi and np.isfinite(lo) and np.isfinite(hi):
                raise ValueError(f"row {k} is ranged: it has no single sense")
            sense = "=" if lo == hi else "<=" if lo == -np.inf else ">="
            (idx,) = np.nonzero(row)
            yield SimpleNamespace(coeffs=tuple(zip(idx.tolist(), row[idx].tolist())),
                                  sense=sense, rhs=float(lo if sense == ">=" else hi))

    def validate(self) -> None:
        n, m = self.n_vars, self.n_rows
        if (self.objective.ndim != 1 or self.a.shape != (m, n)
                or self.row_lo.shape != (m,) or self.row_hi.shape != (m,)):
            raise ValueError("a must be rows x variables, one row_lo and row_hi per row")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective has non-finite coefficients")
        bad = ~np.isfinite(self.a).all(axis=1)
        if bad.any():
            raise ValueError(f"row {int(bad.argmax())} has a non-finite coefficient")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bounds length must match the number of variables")
        bad = ~(np.isfinite(self.lower) & np.isfinite(self.upper))
        if bad.any():
            raise ValueError(f"variable {int(bad.argmax())} has a non-finite bound")
        if np.any(self.lower > self.upper):
            j = int(np.nonzero(self.lower > self.upper)[0][0])
            raise ValueError(f"variable {j} has lower bound above upper bound")
        lo, hi = self.row_lo, self.row_hi
        # lo = +inf or hi = -inf is either above the other side or both infinite
        for bad, what in ((np.isnan(lo) | np.isnan(hi), "a NaN bound"),
                          (lo > hi, "lower bound above upper bound"),
                          (np.isinf(lo) & np.isinf(hi), "no finite bound")):
            if bad.any():
                raise ValueError(f"row {int(bad.argmax())} has {what}")


@dataclass(frozen=True, eq=False)
class Basis:
    """Warm-start state a solve exports: basic column per row, status per
    column and the inverse of the basic columns (None once dropped).

    Columns are indexed over structural variables followed by one slack per
    row; status codes are BASIC/AT_LO/AT_UP.  Only a solve over
    the CompiledLp that exported the Basis starts from it; see the module
    docstring.  It is shared by the children of its branch-and-bound node,
    so its arrays are read-only.
    """

    basic: np.ndarray
    status: np.ndarray
    binv: np.ndarray | None = field(default=None, repr=False)
    # the CompiledLp it was exported over; set by the solver alone
    _solved_over: CompiledLp | None = field(default=None, init=False, repr=False)

    def without_inverse(self) -> Basis:
        """This Basis, still a start for its CompiledLp, with no inverse."""
        basis = replace(self, binv=None)
        object.__setattr__(basis, "_solved_over", self._solved_over)
        return basis


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
    lower: np.ndarray      # the structural box; a solve's bounds must lie within it
    upper: np.ndarray
    slack_lo: np.ndarray
    slack_hi: np.ndarray
    implied_lo: np.ndarray  # slack boxes, each infinite side the row's range over the box
    implied_hi: np.ndarray
    n_struct: int
    m: int
    # each solve's tables (_Simplex) with their slack columns filled in; a
    # solve copies them and writes its structural bounds
    box: np.ndarray = field(init=False, repr=False)
    rest: np.ndarray = field(init=False, repr=False)
    movable: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_struct
        self.box = np.zeros((3, self.a.shape[1]))
        self.box[AT_LO, n:], self.box[AT_UP, n:] = self.slack_lo, self.slack_hi
        self.rest = self.box.copy()
        self.rest[AT_LO, n:], self.rest[AT_UP, n:] = self.implied_lo, self.implied_hi
        self.movable = (self.box[AT_UP] - self.box[AT_LO]) > 1e-12


def compile_lp(prob: LinearProgram) -> CompiledLp:
    prob.validate()
    n, m = prob.n_vars, prob.n_rows
    a = np.hstack([prob.a, np.eye(m)])
    rhs = np.where(np.isfinite(prob.row_hi), prob.row_hi, prob.row_lo)
    slack_lo, slack_hi = rhs - prob.row_hi, rhs - prob.row_lo
    rows = prob.a
    least = np.where(rows > 0, rows * prob.lower, rows * prob.upper).sum(axis=1)
    most = np.where(rows > 0, rows * prob.upper, rows * prob.lower).sum(axis=1)
    cost = np.concatenate([prob.objective, np.zeros(m)])
    return CompiledLp(a, rhs, cost, prob.lower.copy(), prob.upper.copy(), slack_lo, slack_hi,
                      np.where(np.isinf(slack_lo), np.minimum(rhs - most, 0.0), slack_lo),
                      np.where(np.isinf(slack_hi), np.maximum(rhs - least, 0.0), slack_hi),
                      n, m)


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
        self.comp = comp
        self.m = comp.m
        self.n_struct = comp.n_struct
        self.a = comp.a
        self.n_cols = self.a.shape[1]
        n = self.n_struct
        # the real boxes, one row per status code, so that a nonbasic column
        # j's bound is box[vstat[j], j] (the BASIC row is 0); lo and hi are
        # views of the AT_LO and AT_UP rows
        self.box = comp.box.copy()
        self.lo, self.hi = self.box[AT_LO], self.box[AT_UP]
        self.lo[:n], self.hi[:n] = lower, upper
        self.movable = comp.movable.copy()
        self.movable[:n] = (upper - lower) > 1e-12
        # where a nonbasic column rests: its box, a slack's implied bounds
        self.rest = comp.rest.copy()
        self.rest[AT_LO, :n], self.rest[AT_UP, :n] = lower, upper
        self.cost = comp.cost  # perturbed into a copy while the dual stalls
        self.true_cost = comp.cost
        self.rhs = comp.rhs
        self.max_iter = max_iter
        self.cutoff = cutoff
        self.iterations = 0
        self.refactorizations = 0
        self.pivots_since_refactor = 0
        # set by _start: statuses, basic columns, the inverse and basic values
        self.vstat = self.basic = self.binv = self.beta = None
        self.binv_shared = False  # binv is a warm Basis's: the first pivot copies it
        self.x = None  # full values at the last beta set-up or residual check
        self.d = None  # reduced costs, carried from pivot to pivot
        self.y = None  # B^-T c_B of the last pricing, None after a pivot
        self.dirn = None  # _DIRECTION of each movable column's status, else 0
        self.outer = np.empty((self.m, self.m))  # rank-1 term of each pivot

    # -- state helpers ------------------------------------------------------

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

    def _lower_bound(self) -> float:
        """The Lagrangian bound of the basis: with y = B^-T c_B for the true
        costs and d = c - A'y, y'rhs + sum_j min(d_j lo_j, d_j hi_j) over
        the rest boxes.  Every feasible point lies in those boxes, so this
        bounds the optimum from below for any y, whatever the signs of d; at
        a dual feasible basis it is the cost of the basic solution."""
        y = self.binv.T @ self.true_cost[self.basic]
        d = self.true_cost - self.a.T @ y
        least = np.minimum(d * self.rest[AT_LO], d * self.rest[AT_UP])
        return float(y @ self.rhs + least.sum())

    # -- start-up -----------------------------------------------------------

    def _start(self, warm: Basis | None) -> None:
        """Statuses, basic columns, inverse and values: a Basis exported over
        this CompiledLp with its inverse (shared until the first pivot) or
        refactorized; else, or when that is singular, the all-slack basis."""
        if warm is not None and warm._solved_over is self.comp:
            self.vstat, self.basic = warm.status.copy(), warm.basic.copy()
            self.dirn = _DIRECTION[self.vstat] * self.movable
            if warm.binv is not None:
                self.binv, self.binv_shared = warm.binv, True
                self._set_values()
                return
            try:
                self._refactorize()
                return
            except linalg.LinAlgError:
                pass
        self.basic = np.arange(self.n_struct, self.n_cols)
        self.vstat = np.full(self.n_cols, AT_LO)
        self.vstat[self.basic] = BASIC
        self.dirn = _DIRECTION[self.vstat] * self.movable
        self.binv = np.eye(self.m)
        self._set_values()

    def _statuses(self, d: np.ndarray) -> np.ndarray:
        """The dual feasible statuses for reduced costs d: each movable
        nonbasic column on the bound the sign of its reduced cost picks (a
        near-0 one keeps its bound); a fixed column keeps its bound."""
        vstat = self.vstat
        up = (d < -OPT_TOL) | ((d <= OPT_TOL) & (vstat == AT_UP))
        return np.where(self.movable & (vstat != BASIC), np.where(up, AT_UP, AT_LO), vstat)

    def _price_statuses(self) -> bool:
        """Price the basis with the true costs and make it dual feasible
        (_statuses).  True when a status changed, or when prices that miss 0
        on a basic column by more than OPT_TOL (a wrong inverse, which the
        beta residual misses where beta is 0) made it refactorize."""
        self.cost = self.true_cost
        self.d = self._reduced_costs()
        stale = bool((np.abs(self.d[self.basic]) > OPT_TOL).any())
        if stale:
            self._refactorize()
        elif not (self.d * self.dirn < -OPT_TOL).any():
            return False  # dual feasible as it stands
        side = self._statuses(self.d)
        changed = stale or not np.array_equal(side, self.vstat)
        self.vstat = side
        self.dirn = _DIRECTION[side] * self.movable
        if changed:
            self._set_values()
        return changed

    # -- dual simplex -------------------------------------------------------

    def _entering(self, alpha: np.ndarray, below: bool) -> int | None:
        """Harris's two-pass dual ratio test on the pivot row alpha.  The
        candidates are the columns whose move off their bound moves the
        leaving row towards its violated bound by more than ENTER_TOL per
        unit (g = alpha at the upper, -alpha at the lower, negated when the
        row is below its box).  Pass 1 bounds the step by the least
        (|d_j| + OPT_TOL) / |alpha_j|; pass 2 takes, among the candidates
        whose ratio |d_j| / |alpha_j| lies within that bound, the one of
        largest |alpha_j|, the lowest index on ties.  None when no column
        qualifies."""
        g = alpha * self.dirn
        if below:
            np.negative(g, out=g)
        idx = (g > ENTER_TOL).nonzero()[0]
        if not idx.size:
            return None
        size, d = np.abs(alpha[idx]), np.abs(self.d[idx])
        bound = ((d + OPT_TOL) / size).min()
        return int(idx[np.where(d / size <= bound, size, -1.0).argmax()])

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
            # the carried dual objective drifts and may be that of perturbed
            # costs, so the Lagrangian bound of the basis confirms it
            if dual_obj >= self.cutoff and self._lower_bound() >= self.cutoff:
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
        """Run the dual until its optimum reproduces the right-hand side, its
        inverse passes Freivalds' check when pivots have carried it since
        the last factorization, and a fresh pricing with the true costs
        moves no column."""
        self._start(warm)
        self._price_statuses()
        while True:
            status = self._dual()
            if status != Status.OPTIMAL:
                return status
            if not (self._reproduces(self._set_values(fresh=False))
                    and (not self.pivots_since_refactor or self._inverse_ok())):
                self._refactorize()
            elif not self._price_statuses():
                return Status.OPTIMAL

    def export_basis(self) -> Basis:
        """The final basis with the working inverse attached, not copied:
        this solve is over.  Its arrays are made read-only, because the
        children of a branch-and-bound node share it."""
        for arr in (self.basic, self.vstat, self.binv):
            arr.flags.writeable = False
        basis = Basis(self.basic, self.vstat, self.binv)
        object.__setattr__(basis, "_solved_over", self.comp)
        return basis


def solve_compiled(comp: CompiledLp, lower, upper, warm: Basis | None = None, *,
                   cutoff: float = np.inf) -> LpSolution:
    """Solve the compiled LP over the given bounds; see the module docstring.
    Status.CUTOFF, like INFEASIBLE, comes with no solution.  Raises
    ValueError on bounds outside the compiled box."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (np.all(lower >= comp.lower) and np.all(upper <= comp.upper)):
        raise ValueError("bounds must lie within the box the LP was compiled with")
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


def solve_lp(prob: LinearProgram) -> LpSolution:
    """Solve min c @ v over the rows and the bounds; see the module docstring."""
    comp = compile_lp(prob)
    return solve_compiled(comp, prob.lower, prob.upper)
