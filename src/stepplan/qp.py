"""Primal-dual interior point for the convex relaxations of a MIQP.

Solves  minimize 0.5 x'Px + q'x + const  subject to  Gx <= h,  Ax = b  and
lo <= x <= hi  by Mehrotra's predictor-corrector method. A workspace holds
one constraint structure. Each call pins a set of variables (the
branch-and-bound fixings), substitutes them out, presolves the rows that
remain and solves the reduced problem from a fixed interior starting point,
so a result depends on the fixings alone.

The inequality rows and both sides of the variable bounds form one stacked
operator  G_all = [G; -I; I]  with one slack and one multiplier per row, so
the bounds add a diagonal to the Newton block  P + G_all' diag(w) G_all.
When the iterates stall (the primal residual stops falling while the
multipliers grow) or the interior point does not converge, an exact HiGHS
feasibility LP decides whether the reduced problem is infeasible; it runs at
most once per call.

The presolve removes the structures that leave a feasible set without an
interior: rows emptied by the fixings are checked and dropped, rows left
with one free variable become bounds, and pairs of opposite rows whose
right-hand sides cancel (a big-M row pair with its binary fixed) become
equalities. The workspace lists candidate pairs once; it searches only rows
with at least two entries on continuous, non-fixed columns, because a pair
becomes an equality only when both rows keep two free entries and all
their pinnable columns are fixed. The presolve changes only right-hand
sides and bounds, so a call's G_all is always a row and column subset of
the workspace's. Its rounds work on
whole-workspace vectors (live-row and free-column masks, row counts from one
product with the free-column mask); each matrix is sliced once per call.

Small problems are held dense: for a few variables, numpy products are far
cheaper than building sparse objects, and the Newton block is one product
plus the bound diagonal. Large ones keep their rows in CSR form and only the
Newton matrix is dense: the workspace lists once every pair of stored
entries that share a row of G_all, and each Newton block is one
``np.bincount`` over the pairs that survive the call's presolve, with no
sparse object built inside the iteration loop. Variable bounds must be
finite (the assembled problems always are).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import ContractViolation
from .formulation import MiqpProblem

#: residual and complementarity tolerance, relative to the data scale
EPS_ABS = 1e-9
#: interior-point iterations per call before the LP decides the status
MAX_ITER = 100
#: presolve tolerance for emptied rows, crossed bounds and zero-width pairs
FEAS_TOL = 1e-9
#: regularization of the equality block of the Newton matrix
EQ_REG = 1e-12
#: workspaces whose constraint matrix has more entries than this (rows times
#: variables) hold it in CSR form
SPARSE_MIN_ENTRIES = 20_000
#: the iterates stall when, over STALL_ITERS iterations, the relative primal
#: residual keeps more than STALL_RATIO of its value while the largest
#: multiplier grows more than STALL_GROWTH times
STALL_ITERS = 3
STALL_RATIO = 0.5
STALL_GROWTH = 10.0
#: the iterates stop once the complementarity gap is this small relative to
#: the objective: further steps only push slacks and multipliers toward zero
MU_FLOOR = 1e-32
#: the fraction to the boundary stays below 1, so no slack lands on zero
TAU_MAX = 1.0 - 1e-14

# LAPACK's LU directly: the checking wrappers cost more than a tiny solve
_getrf, _getrs = la.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


@dataclass
class QpSolution:
    """Result of one convex solve.

    ``objective`` includes the problem's constant term, so it is directly
    comparable with integral incumbents. For an optimal status it is a lower
    bound (up to solver tolerance) for every completion of the fixings the
    solve was given. ``y`` stacks the multipliers of the inequality rows,
    the equality rows and the variable bounds (positive on an upper side,
    negative on a lower side); with ``x`` it satisfies stationarity to
    ``dual_res``. ``polished`` is always False: the interior point has no
    polish step.
    """

    x: np.ndarray
    y: np.ndarray
    objective: float
    status: str  # "optimal" | "infeasible" | "max-iterations"
    prim_res: float
    dual_res: float
    iterations: int
    polished: bool = False


@dataclass
class _Reduced:
    """A call's problem after substitution and presolve, with the maps back."""

    x: np.ndarray  # full-length primal, fixed entries filled in
    cols: np.ndarray  # free original columns
    p: np.ndarray  # dense
    c: np.ndarray
    g: np.ndarray | sp.csr_matrix
    h: np.ndarray
    a: np.ndarray | sp.csr_matrix
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    g_rows: np.ndarray  # original inequality row of each reduced one
    eq_rows: np.ndarray  # original equality row, or -1 for a zero-width pair
    pair_rows: np.ndarray  # (k, 2) original rows of each zero-width pair
    bound_rows: np.ndarray  # (2, nf) singleton row that set each lower/upper bound, or -1
    bound_coefs: np.ndarray  # (2, nf) that row's coefficient
    scatter: tuple | None  # CSR only: block index, G_all row and product of each entry pair

    def newton_block(self, w: np.ndarray) -> np.ndarray:
        """P + G_all' diag(w) G_all as a dense array."""
        nf = self.c.size
        if self.scatter is None:
            # the bound diagonal goes in after the G product: one product over
            # G_all sums in another order, and a criterion-1 relaxation whose
            # complementarity sits within rounding of the tolerance then fails
            k = self.h.size
            block = self.p + (self.g.T * w[:k]) @ self.g
            block[np.diag_indices(nf)] += w[k : k + nf] + w[k + nf :]
            return block
        flat, rows, prod = self.scatter
        return self.p + np.bincount(flat, prod * w[rows], nf * nf).reshape(nf, nf)


def _take(m, rows, cols):
    if isinstance(m, np.ndarray):
        return m[np.ix_(rows, cols)]
    return m[rows][:, cols]


def _singletons(nz, m, f: np.ndarray, rows: np.ndarray):
    """Column and coefficient of the sole free entry of each row in ``rows``.

    ``nz`` marks the entries of ``m`` and ``f`` the free columns; both
    products are exact, since every other term is zero."""
    if not rows.size:
        return (), ()
    cols = (nz @ (f * np.arange(f.size)))[rows].astype(int)
    return cols, (m @ f)[rows]


def _opposite_pairs(g: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (i < j) of ``g`` that are exact negatives of each other.

    Also returns a group id per pair: pairs of the same two opposite
    patterns share it, so their zero-width equalities coincide.
    """
    g.sort_indices()
    ids: dict[bytes, int] = {}
    members: dict[int, list[int]] = {}
    keys = []
    for i in range(g.shape[0]):
        span = slice(g.indptr[i], g.indptr[i + 1])
        vals = np.round(g.data[span], 12) + 0.0  # +0.0 folds -0.0 into 0.0
        cols = g.indices[span].tobytes()
        keys.append((cols + vals.tobytes(), cols + (-vals + 0.0).tobytes()) if vals.any() else None)
        if keys[-1] is not None:
            members.setdefault(ids.setdefault(keys[-1][0], len(ids)), []).append(i)
    pairs, groups = [], []
    for i, key in enumerate(keys):
        mate = ids.get(key[1]) if key is not None else None
        if mate is not None:
            for j in members[mate]:
                if i < j:
                    pairs.append((i, j))
                    groups.append(min(mate, ids[key[0]]))
    return np.array(pairs, dtype=int).reshape(-1, 2), np.array(groups, dtype=int)


def _entry_pairs(m: sp.csr_matrix) -> tuple[np.ndarray, ...]:
    """Every ordered pair of stored entries that share a row of ``m``.

    Returns ``(row, col_a, col_b, product)`` with one element per pair, so
    that ``m' diag(w) m`` is the sum of ``w[row] * product`` at
    ``(col_a, col_b)``.
    """
    count = np.diff(m.indptr)
    row_of = np.repeat(np.arange(m.shape[0]), count)  # row of each entry
    per_entry = count[row_of]
    a = np.repeat(np.arange(m.nnz), per_entry)
    first = np.repeat(np.cumsum(per_entry) - per_entry, per_entry)
    b = m.indptr[row_of[a]] + np.arange(a.size) - first
    return row_of[a], m.indices[a], m.indices[b], m.data[a] * m.data[b]


def _wide(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Variables whose bounds leave room beyond the presolve tolerance."""
    return hi - lo > FEAS_TOL * (1.0 + np.abs(lo))


def _norm(v: np.ndarray) -> float:
    return float(np.abs(v).max(initial=0.0))


def _max_step(s: np.ndarray, ds: np.ndarray, z: np.ndarray, dz: np.ndarray) -> float:
    """Largest step keeping the positive vectors ``s`` and ``z`` nonnegative."""
    worst = min((ds / s).min(), (dz / z).min())
    return -1.0 / worst if worst < 0.0 else math.inf


class BoxQp:
    """Reusable workspace for one constraint structure with varying fixings."""

    def __init__(
        self,
        p_matrix,
        q_vector: np.ndarray,
        g_matrix,
        h_vector: np.ndarray,
        a_matrix,
        b_vector: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        objective_constant: float = 0.0,
        integer_columns=(),
    ):
        """``integer_columns`` are the variables a call may pin (the binaries);
        rows are paired as opposites on the other columns."""
        self.lo = np.asarray(lower, dtype=float)
        self.hi = np.asarray(upper, dtype=float)
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ContractViolation("all variable bounds must be finite")
        self.n = n = self.lo.shape[0]
        self.q = np.asarray(q_vector, dtype=float)
        self.h = np.asarray(h_vector, dtype=float)
        self.b = np.asarray(b_vector, dtype=float)
        self.constant = float(objective_constant)
        g = sp.csr_matrix(g_matrix, shape=(self.h.shape[0], n), dtype=float)
        a = sp.csr_matrix(a_matrix, shape=(self.b.shape[0], n), dtype=float)
        p = sp.csr_matrix(p_matrix, shape=(n, n), dtype=float)
        for m in (g, a, p):
            m.eliminate_zeros()
        self.sparse = g.shape[0] * n > SPARSE_MIN_ENTRIES
        self.g, self.a, self.p = (g, a, p) if self.sparse else (g.toarray(), a.toarray(), p.toarray())
        if self.sparse:
            eye = sp.identity(n, format="csr")
            self._scatter = _entry_pairs(sp.vstack([g, -eye, eye], format="csr"))
        pinnable = np.zeros(n, dtype=bool)
        pinnable[np.asarray(integer_columns, dtype=int)] = True
        self._pinnable = pinnable
        # 1.0 at each stored entry: a product with the free mask counts free entries
        self._nz_g = (abs(self.g) > 0.0).astype(float)
        self._nz_a = (abs(self.a) > 0.0).astype(float)
        # a pair can only become an equality when both rows keep two free
        # entries off the pinnable columns, so only such rows are searched
        sub = g[:, ~pinnable & (self.lo < self.hi)]
        rows = np.flatnonzero(np.diff(sub.indptr) >= 2)
        pairs, self._pair_groups = _opposite_pairs(sub[rows])
        self._pairs = rows[pairs]

    @classmethod
    def from_miqp(cls, problem: MiqpProblem) -> "BoxQp":
        """Relax a MIQP: binaries become [0,1] continuous."""
        return cls(
            2.0 * problem.q_matrix,
            problem.c_vector,
            problem.a_ineq,
            problem.b_ineq,
            problem.a_eq,
            problem.b_eq,
            problem.lower,
            problem.upper,
            objective_constant=problem.objective_constant,
            integer_columns=problem.binary_indices,
        )

    # --------------------------------------------------------------- presolve
    def _presolve(self, fixings: dict[int, float] | None) -> _Reduced | None:
        """Substitute the fixings and simplify; None proves infeasibility.

        Rows left empty or singleton leave the live set, and a round that
        pins a variable starts another. The reduced problem is sliced from
        the workspace once, after the last round.
        """
        lo = self.lo.copy()
        hi = self.hi.copy()
        if fixings:
            idx = np.fromiter(fixings.keys(), dtype=int, count=len(fixings))
            lo[idx] = hi[idx] = np.fromiter(fixings.values(), dtype=float, count=len(fixings))
        bound_rows = np.full((2, self.n), -1)
        bound_coefs = np.zeros((2, self.n))
        live_g = np.ones(self.h.shape[0], dtype=bool)
        live_a = np.ones(self.b.shape[0], dtype=bool)
        free = _wide(lo, hi)
        while True:
            x = np.where(free, 0.0, 0.5 * (lo + hi))
            f = free.astype(float)
            h = self.h - self.g @ x
            b = self.b - self.a @ x
            g_nnz = self._nz_g @ f
            a_nnz = self._nz_a @ f
            empty = live_g & (g_nnz == 0.0)
            if np.any(h[empty] < -FEAS_TOL * (1.0 + np.abs(self.h[empty]))):
                return None
            empty = live_a & (a_nnz == 0.0)
            if np.any(np.abs(b[empty]) > FEAS_TOL * (1.0 + np.abs(self.b[empty]))):
                return None
            # a singleton inequality row tightens one bound of its variable
            single = np.flatnonzero(live_g & (g_nnz == 1.0))
            for k, col, coef in zip(single, *_singletons(self._nz_g, self.g, f, single)):
                bound = h[k] / coef
                if coef > 0.0 and bound < hi[col]:
                    hi[col] = bound
                    bound_rows[1, col], bound_coefs[1, col] = k, coef
                elif coef < 0.0 and bound > lo[col]:
                    lo[col] = bound
                    bound_rows[0, col], bound_coefs[0, col] = k, coef
            # a singleton equality row fixes its variable
            single = np.flatnonzero(live_a & (a_nnz == 1.0))
            for k, col, coef in zip(single, *_singletons(self._nz_a, self.a, f, single)):
                val = b[k] / coef
                slack = FEAS_TOL * (1.0 + abs(val))
                if not lo[col] - slack <= val <= hi[col] + slack:
                    return None
                lo[col] = hi[col] = val
            if np.any(lo - hi > FEAS_TOL * (1.0 + np.abs(lo))):
                return None
            live_g &= g_nnz >= 2.0
            live_a &= a_nnz >= 2.0
            still_free = _wide(lo, hi)
            if np.array_equal(still_free, free):
                break
            free = still_free  # a row pinned a variable: substitute again
        found = self._zero_width_pairs(h, f, live_g)
        if found is None:
            return None
        pairs, implied = found
        live_g[implied] = False
        cols = np.flatnonzero(free)
        g_rows = np.flatnonzero(live_g)
        eq_rows = np.flatnonzero(live_a)
        g = _take(self.g, g_rows, cols)
        a = _take(self.a, eq_rows, cols)
        b = b[eq_rows]
        if pairs.size:
            first = pairs[:, 0]
            rows = _take(self.g, first, cols)
            a = np.vstack([a, rows]) if not self.sparse else sp.vstack([a, rows], format="csr")
            b = np.concatenate([b, h[first]])
            eq_rows = np.concatenate([eq_rows, np.full(len(pairs), -1)])
        p = _take(self.p, cols, cols)
        scatter = self._reduced_scatter(g_rows, cols) if self.sparse else None
        return _Reduced(
            x, cols, p if not self.sparse else p.toarray(), self.q[cols] + (self.p @ x)[cols],
            g, h[g_rows], a, b, lo[cols], hi[cols], g_rows, eq_rows, pairs,
            bound_rows[:, cols], bound_coefs[:, cols], scatter,
        )

    def _reduced_scatter(self, g_rows: np.ndarray, cols: np.ndarray) -> tuple:
        """The workspace's entry pairs that survive a call's presolve, renumbered.

        A pair survives when its row of G_all is kept and both its columns
        are free; its flat index addresses the reduced Newton block.
        """
        m, n, nf = self.h.shape[0], self.n, cols.size
        row_map = np.full(m + 2 * n, -1)
        row_map[g_rows] = np.arange(g_rows.size)
        row_map[m + cols] = g_rows.size + np.arange(nf)
        row_map[m + n + cols] = g_rows.size + nf + np.arange(nf)
        col_map = np.full(n, -1)
        col_map[cols] = np.arange(nf)
        row, col_a, col_b, prod = self._scatter
        row, col_a, col_b = row_map[row], col_map[col_a], col_map[col_b]
        keep = (row >= 0) & (col_a >= 0) & (col_b >= 0)
        return col_a[keep] * nf + col_b[keep], row[keep], prod[keep]

    def _zero_width_pairs(self, rhs, f, live_g):
        """Find opposite row pairs whose right-hand sides cancel.

        ``rhs`` is h - Gx and ``f`` the free-column mask. A pair is live when
        both rows are live and all their pinnable columns are fixed, so that
        their free parts are exact negatives. Returns ``(pairs, implied)``:
        one pair per group, whose first row becomes an equality, and every
        row of a zero-width pair, which those equalities imply. Returns None
        if a live pair has negative width.
        """
        none = np.zeros((0, 2), dtype=int)
        if not self._pairs.size:
            return none, none
        pinned = self._nz_g @ (f * self._pinnable) == 0.0
        pi, pj = self._pairs[:, 0], self._pairs[:, 1]
        live = live_g[pi] & live_g[pj] & pinned[pi] & pinned[pj]
        if not live.any():
            return none, none
        pairs, groups = self._pairs[live], self._pair_groups[live]
        h_i = rhs[pairs[:, 0]]
        width = h_i + rhs[pairs[:, 1]]
        if np.any(width < -FEAS_TOL * (1.0 + np.abs(h_i))):
            return None
        zero = width <= FEAS_TOL * (1.0 + np.abs(h_i))
        _, first = np.unique(groups[zero], return_index=True)
        return pairs[zero][first], np.unique(pairs[zero])

    # ------------------------------------------------------------------ solve
    def solve(self, fixings: dict[int, float] | None = None) -> QpSolution:
        """Solve the relaxation with the variables in ``fixings`` pinned.

        Every call starts from the same interior point, so a result is a
        function of the fixings alone.
        """
        red = self._presolve(fixings)
        if red is None:
            return self._infeasible(0)
        if red.cols.size == 0:
            return self._result(red, np.zeros(0), np.zeros(0), np.zeros(0), "optimal", 0)
        xr, y, z, it, status = _interior_point(red)
        if status == "infeasible":
            return self._infeasible(it)
        return self._result(red, xr, y, z, status, it)

    def _infeasible(self, iterations: int) -> QpSolution:
        m = self.h.shape[0] + self.b.shape[0] + self.n
        return QpSolution(
            np.full(self.n, np.nan), np.zeros(m), math.inf, "infeasible",
            math.inf, math.inf, iterations,
        )

    def _result(self, red: _Reduced, xr, y_red, z, status, iterations) -> QpSolution:
        """Map the reduced primal and duals back to the full problem."""
        x = red.x.copy()
        x[red.cols] = xr
        y_in = np.zeros(self.h.shape[0])
        y_eq = np.zeros(self.b.shape[0])
        y_bnd = np.zeros(self.n)
        k, nf = red.g_rows.size, red.cols.size
        y_in[red.g_rows] = z[:k]
        orig = red.eq_rows >= 0
        y_eq[red.eq_rows[orig]] = y_red[orig]
        lam = y_red[~orig]
        # a pair equality's multiplier belongs to the row on its side
        np.add.at(y_in, red.pair_rows[:, 0], np.maximum(lam, 0.0))
        np.add.at(y_in, red.pair_rows[:, 1], np.maximum(-lam, 0.0))
        # a bound set by a singleton row hands its multiplier to that row
        for side, mult in ((0, -z[k : k + nf]), (1, z[k + nf :])):
            rows = red.bound_rows[side]
            by_row = rows >= 0
            np.add.at(y_in, rows[by_row], mult[by_row] / red.bound_coefs[side, by_row])
            y_bnd[red.cols[~by_row]] += mult[~by_row]
        grad = self.p @ x + self.q + self.g.T @ y_in + self.a.T @ y_eq
        fixed = np.ones(self.n, dtype=bool)
        fixed[red.cols] = False
        y_bnd[fixed] = -grad[fixed]  # a pinned variable's bound row absorbs the rest
        prim_res = max(
            float(np.max(self.g @ x - self.h, initial=0.0)),
            _norm(self.a @ x - self.b),
            float(np.max(self.lo - x, initial=0.0)),
            float(np.max(x - self.hi, initial=0.0)),
        )
        return QpSolution(
            x=x,
            y=np.concatenate([y_in, y_eq, y_bnd]),
            objective=float(0.5 * x @ (self.p @ x) + self.q @ x + self.constant),
            status=status,
            prim_res=prim_res,
            dual_res=_norm(grad + y_bnd),
            iterations=iterations,
        )


def _interior_point(red: _Reduced):
    """Mehrotra predictor-corrector on the reduced problem.

    The inequality rows and both sides of the variable bounds form one
    stacked system  G_all x + s = h_all, that is  Gx + s = h,  -x + s_l = -lo
    and  x + s_u = hi,  with slacks s >= 0 and multipliers z >= 0, each held
    as one vector. Infeasibility is left to the HiGHS LP, run once: at a
    stall, or when the iterates do not converge. Returns
    ``(x, y, z, iterations, status)``.
    """
    p, c, g, a, b = red.p, red.c, red.g, red.a, red.b
    nf, mi, me = c.size, red.h.size, b.size
    h_all = np.concatenate([red.h, -red.lo, red.hi])
    n_cone = h_all.size
    g_t = g.T.tocsr() if sp.issparse(g) else g.T

    def stack(v):  # [G; -I; I] v
        return np.concatenate([g @ v, -v, v])

    def stack_t(w):  # [G; -I; I]' w
        return g_t @ w[:mi] - w[mi : mi + nf] + w[mi + nf :]

    x = 0.5 * (red.lo + red.hi)
    s = np.maximum(h_all - stack(x), 1.0)
    z = np.ones(n_cone)
    y = np.zeros(me)
    kkt = np.zeros((nf + me, nf + me))
    kkt[nf:, :nf] = a.toarray() if sp.issparse(a) else a
    kkt[:nf, nf:] = kkt[nf:, :nf].T
    kkt[nf:, nf:] = -EQ_REG * np.eye(me)
    a_t = kkt[:nf, nf:]
    norm_h, norm_b, norm_c = _norm(h_all), _norm(b), _norm(c)  # loop invariants
    feasible = None  # the LP's verdict, once it has run
    history = []  # relative primal residual and largest multiplier per iteration
    eps = EPS_ABS
    it = 0
    for it in range(1, MAX_ITER + 1):
        px, gz, ay = p @ x, stack_t(z), a_t @ y
        gx, ax = stack(x), a @ x
        r_d = px + c + gz + ay
        r_p = gx + s - h_all
        r_e = ax - b
        mu = float(s @ z) / n_cone
        obj = float(0.5 * x @ px + c @ x)
        # residuals relative to the terms that make them up
        scale_p = 1.0 + max(_norm(gx), norm_h, _norm(ax), norm_b)
        scale_d = 1.0 + max(_norm(px), norm_c, _norm(gz), _norm(ay))
        prim = max(_norm(r_p), _norm(r_e))
        if (
            prim <= eps * scale_p
            and _norm(r_d) <= eps * scale_d
            and mu * n_cone <= eps * (1.0 + abs(obj))
        ):
            return x, y, z, it - 1, "optimal"
        if mu * n_cone <= MU_FLOOR * (1.0 + abs(obj)):
            break
        res_p, z_max = prim / scale_p, float(z.max())
        history.append((res_p, z_max))
        if feasible is None and len(history) > STALL_ITERS:
            old_res, old_z = history[-1 - STALL_ITERS]
            if res_p > STALL_RATIO * old_res and z_max > STALL_GROWTH * old_z:
                feasible = _feasible(red)
                if not feasible:
                    return x, y, z, it - 1, "infeasible"
        w = z / s
        kkt[:nf, :nf] = red.newton_block(w)
        lu, piv, info = _getrf(kkt)
        if info != 0:
            break

        def newton(r_c):
            rhs = np.concatenate([-r_d - stack_t((z * r_p - r_c) / s), -r_e])
            d = _getrs(lu, piv, rhs)[0]
            ds = -r_p - stack(d[:nf])
            return d[:nf], d[nf:], ds, (-r_c - z * ds) / s

        # predictor: the affine-scaling direction sets Mehrotra's centering
        dx, dy, ds, dz = newton(s * z)
        alpha = min(1.0, _max_step(s, ds, z, dz))
        mu_aff = float((s + alpha * ds) @ (z + alpha * dz)) / n_cone
        sigma = (mu_aff / mu) ** 3
        # corrector: second-order term plus centering
        dx, dy, ds, dz = newton(s * z + ds * dz - sigma * mu)
        # a fixed fraction to the boundary can cycle at small mu
        tau = min(max(0.9, 1.0 - 10.0 * mu), TAU_MAX)
        alpha = min(1.0, tau * _max_step(s, ds, z, dz))
        if not (alpha > 1e-12 and np.all(np.isfinite(dx))):
            break
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        z = z + alpha * dz
    if feasible is None:
        feasible = _feasible(red)
    return x, y, z, it, "max-iterations" if feasible else "infeasible"


def _feasible(red: _Reduced) -> bool:
    """Exact feasibility of the reduced constraints, decided by HiGHS."""
    res = linprog(
        np.zeros(red.c.size),
        A_ub=red.g if red.h.size else None,
        b_ub=red.h if red.h.size else None,
        A_eq=red.a if red.b.size else None,
        b_eq=red.b if red.b.size else None,
        bounds=np.column_stack([red.lo, red.hi]),
        method="highs",
    )
    return res.status != 2


def solve_qp(problem: MiqpProblem, fixings: dict[int, float] | None = None) -> QpSolution:
    """Solve the convex relaxation of ``problem`` (binaries in [0,1]).

    ``fixings`` pins individual variables (typically binaries) to values.
    Convenience wrapper that builds a fresh workspace; reuse a BoxQp when
    solving many variations of one problem.
    """
    return BoxQp.from_miqp(problem).solve(fixings=fixings)
