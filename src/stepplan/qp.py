"""Primal-dual interior point for the convex relaxations of a MIQP.

Solves  minimize 0.5 x'Px + q'x + const  subject to  Gx <= h,  Ax = b  and
lo <= x <= hi  by Mehrotra's predictor-corrector method. A workspace holds
one constraint structure. Each call pins a set of variables (the
branch-and-bound fixings), substitutes them out, presolves the rows that
remain and solves the reduced problem. A call starts from a fixed interior
point, or, when given one, from another call's final iterate (a warm
start), so a result depends on the fixings and that start alone.

A warm start is a ``QpSolution`` of the same workspace: its x, and the
slack and multiplier of each of its G rows and bound sides, stored once in
the workspace's stacked row order [G rows; lower sides; upper sides],
raised to at least WARM_FLOOR, so that the iterate is well inside the
cone, and 1.0, the cold multiplier, where its call had no such row or
column. A call clips x into its box and restricts [s; z] to its own rows
of G_all with one ``take``; the equality multipliers start at 0 (Yildirim
and Wright, SIAM J. Optim. 12, 2002; Gondzio and Grothey, SIAM J. Optim.
13, 2002). Branch-and-bound hands every call the root's start, whose rows
and columns cover the call's, so such a call reads no 1.0 entry. Only
"max-iterations" can be worse from a warm start than from the cold one (an
infeasible verdict comes from the presolve or a certificate, a cutoff from
a certified bound), so a warm call that ends there is solved once more,
cold.

The inequality rows and both sides of the variable bounds form one stacked
operator  G_all = [G; -I; I]  with one slack and one multiplier per row, and
the Newton block is  P + G_all' diag(w) G_all.
When the iterates stall (the primal residual stops falling while the
multipliers grow) or the interior point does not converge, the call takes
the Farkas bound at the iterate's multipliers: the cutoff's bound (below)
with P and c dropped, the least value over the box of z_G'(Gx - h) +
y'(Ax - b), less its rounding allowance and the slack that the presolve's
tolerance FEAS_TOL (1 + |rhs|) on each row allows. A bound above 0 proves
that no point of the box meets the rows within that tolerance, and the
call ends "infeasible" (Neumaier and Shcherbina, Math. Prog. 99, 2004).
Otherwise a stalled call keeps iterating (the stall test may fire again
on a later iteration), and a call that does not converge ends
"max-iterations". So "infeasible" is proved, by the presolve or by a
certificate, and an undecided call says "max-iterations"; no call solves
an LP. A stalled infeasible problem's multipliers grow, and the bound with
them: on the bundled presets and the tree batches of seeds 1-3 no call
ends "max-iterations".

A call may be given a cutoff (branch-and-bound passes its incumbent): it
then ends with status "cutoff" as soon as a certified lower bound on its
optimum reaches the cutoff, since the caller discards such a relaxation
whatever its optimum. The bound is the Lagrangian at the iterate's
multipliers, with the quadratic replaced by its tangent at the iterate,
minimized over the box, less an allowance for rounding (Fletcher and
Leyffer, "Numerical experience with lower bounds for MIQP branch-and-bound",
SIAM J. Optim. 8, 1998; Neumaier and Shcherbina, Math. Prog. 99, 2004).
It is valid at any iterate, converged or not, and an infeasible problem's
growing multipliers drive it up. It is taken after the convergence test,
on iterations whose objective has reached the cutoff and before each
Farkas bound, so a call that does not end at the cutoff returns bit for
bit what it returns without one.

A call on the LU path (below) ends, once its active set settles, at the
solution of that set's KKT system (finite termination: Mehrotra and Ye,
Math. Prog. 62, 1993). At each convergence test, after the cutoff test,
it guesses the active rows of G_all as those with s < z. Whenever the
call has not tried that guess, from the first test on, it solves [[P,
G_act', A'], [G_act, 0, 0], [A, 0, 0]] [x; z_act; y] = [-c; h_act; b] by
one LAPACK call (``gesv``: the LU and its solve), with s = h_all - G_all
x (0 on the active rows) and z = 0 off them. The call ends "optimal",
with ``polished`` set, if z >= 0, s >= 0 and the point passes the loop's
own convergence test (the same EPS_ABS and scales). A point that fails a
sign test names the next guess, a primal-dual active-set step
(Hintermueller, Ito and Kunisch, SIAM J. Optim. 13, 2002): the guessed
rows with z >= 0 and the other rows with s < 0. That guess is solved at
once, at the same test, unless the call has tried it: a guess's point
does not depend on the iterate, so the call keeps every guess it has
tried and solves none twice. The chain ends at a point it takes, at a
guess already tried, at a point that passes the sign tests but not the
convergence test, at a singular system or a NaN, or, before any LAPACK
call, at a guess with more rows than free columns (its guessed rows and
the equality rows): such a system is singular by its shape, and rounding
would hide its zero pivot from LAPACK. The iterations then go on as they
were. A cold call's first guess is empty (s >= 1 = z), and a warm call's
first guess is its start's active set; on the tree batches most calls end
at their first test. The ``_LuNewton`` and the Newton loop's buffers are
made at the first step, so a call that ends at its first test builds and
allocates none of them. The chain and its tests have no parameter. The
step ignores the cutoff, so a call that does not end at the cutoff still
returns bit for bit what it returns without one. Calls on
``_CholeskyNewton``, every call of the bundled presets, take no such
step: their guess settles only at their last test or two.

The presolve removes the structures that leave a feasible set without an
interior: rows emptied by the fixings are checked and dropped, rows left
with one free variable become bounds, and pairs of opposite rows whose
right-hand sides cancel (a big-M row pair with its binary fixed) become
equalities. The presolve changes only right-hand sides and bounds, so a
call's G_all is always a row and column subset of the workspace's. A round
applies all its singleton rows in a few array passes with the rules of
applying them one by one in row order: inequality rows before equality
rows; a bound moves only on a strictly tighter row, and the first row to
reach the tightest bound sets it; each equality row must lie within the
tolerance of the bounds already set, an earlier equality row on its column
included, and the last one fixes the column.

A call does only the work its fixings change; what depends on the
structure alone is found once per workspace:

- the candidate opposite pairs, searched only among rows with at least two
  entries on continuous, non-fixed columns (a pair becomes an equality only
  when both rows keep two free entries and all their pinnable columns are
  fixed). One sort of the rows' padded keys (columns, then values rounded
  to 12 digits) and of their negations finds them; when no two such rows
  have opposite sums, there are none and nothing is sorted;
- whether the presolve tests rows: it does when some row has fewer than
  two entries off the pinnable and collapsed columns, and then it tests
  every row, as on every chunk relaxation. When no row has, no fixing of
  pinnable columns leaves a row empty or singleton, so a call substitutes
  the fixings once and drops no row, as in small problems whose rows all
  have two continuous entries. Such a call allocates no live-row mask and
  no map of the rows that set bounds, keeps h - Gx and b - Ax whole and,
  unless a zero-width pair turns rows into an equality, takes a dense G
  and A by columns alone. A call that fixes a column that is not pinnable
  tests every row;
- the free-column mask of the workspace bounds;
- for CSR workspaces: one order of every pair of G entries that share a
  row, with the Newton-block bin (i, j), i <= j, that each adds to; P's
  entries and the stacked rows [A; G]. A workspace holds G in canonical CSR
  form (sorted, no duplicate entries), so one order of each pair gives the
  block's lower triangle, the only one its Cholesky factorization reads.

Each matrix is sliced once per call. A CSR call builds no scipy sparse
object and dispatches no scipy product. Its G and A are the ``_Csr``
arrays of scipy's ``m[rows][:, cols]``, entry order included: one mask over
G's entries gives G, and one slice of [A; G] gives A and the zero-width
pairs' rows. Every product of a CSR matrix, in the presolve or in the
iterations, calls scipy's ``csr_matvec`` kernel on zeros, as ``m @ v``
does, and a G' product calls ``csc_matvec`` on G's arrays, as ``g.T @ v``
does: no call builds G', and a dense G' is a view. P is scattered into a
dense array, and the call's Newton system (below) is built from the
workspace's G entry pairs that survive, with the bins on free columns
numbered anew. A call's ``QpSolution`` keeps the reduced multipliers and
their index maps and maps them back to the full problem, with the
residuals, only when ``y``, ``prim_res`` or ``dual_res`` is first read;
branch-and-bound reads none of them.

Small problems are held dense: for a few variables, numpy products are far
cheaper than building sparse objects, and the Newton block is one product
over G_all. A dense workspace converts each of P, G and A once from its
input. Large ones keep their rows in CSR form, and only the Newton matrix
is dense. Variable bounds must be finite (the assembled problems always
are), and so must every fixing; a fixing outside its variable's bounds
makes the call infeasible.

On small problems a call's cost is numpy call overhead, not arithmetic, so
the interior point allocates its vectors once per call (the Newton loop's
at its first step) and writes each iteration into them: the iterate [x; y;
s; z] and its direction [dx; dy; ds; dz] are one buffer each (one ratio
test over [s; z], one update of the iterate), the Newton solve writes [dx;
dy] in place, and [G_all x; A x], [Px; G_all'z; A'y] and [r_p; r_e] are
three views of one buffer (one ``np.abs`` and one ``np.maximum.reduceat``
give the three norms). Each G_all product is one call on the operator
``_stacked`` builds. A call without equality rows, as every call on a small
random MIQP, skips A'y, Ax and their residual: A'y stays 0, and adding it
to the dual residual changes no bit. Every such rewrite is exact, each
element coming from the same floating point operations in the same order,
but one: a dense G_all product sums the stacked rows in BLAS's order, so a
dense call's iterates move in their last bits. Dense matrices stay
C-ordered: a product sums in another order on an F-ordered copy, such as
``m[rows][:, cols]`` makes.

For the same reason a call's numpy operations go through numpy's C entry
points, not through a ufunc reduction or a Python-level wrapper, which
cost a few times the arithmetic at these sizes. Each substitution keeps
every bit:

- a minimum or maximum is ``v[v.argmin()]`` or ``v[v.argmax()]``: the
  entry the reduction returns, the first NaN if there is one, as the
  reduction propagates NaN (ties differ at most in a zero's sign, and no
  caller reads that: the ratio test compares its minimum with 0, and the
  others take maxima of magnitudes or of positive multipliers). An empty
  vector keeps its own branch, as ``_norm``'s 0.0;
- an any or all test is the boolean array's entry at its ``argmax`` or
  ``argmin`` (``_any``, ``_all``); ``np.count_nonzero`` is a Python
  function in numpy 2;
- a stacked array (a dense G_all, [-c; h_all; b], a start's rows) is
  written into one allocated array, not made by ``np.concatenate``, whose
  dispatcher is a Python function; ``np.full`` is ``np.empty`` and
  ``fill``, and the warm start's clip is ``np.maximum`` then
  ``np.minimum``, the bits of ``np.clip`` for finite entries;
- ``np.dot`` and ``@`` of dense arrays are ``ndarray.dot``, which makes the
  same BLAS call without ``np.dot``'s Python dispatcher;
- ``round``, ``searchsorted``, ``take``, ``repeat``, ``cumsum`` and
  ``argsort`` are the ndarray methods that fromnumeric's wrappers call;
- a ufunc takes its output positionally, but ``np.maximum`` and
  ``np.minimum``, for which numpy deprecates it; views that an iteration
  reads, such as G' and G_all', are made once per call.

``_lagrangian_bound`` keeps one ``np.add.reduce``: its pairwise summation
sets the bound's bits. ``tools/ab_qp.py`` counts the calls that still go
through those entry points or any other Python function of numpy, per
solve and per iteration.

The Newton system [[H, A'], [A, -EQ_REG I]], H = P + G_all' W G_all, is
factored in a buffer allocated once per call, F-ordered because LAPACK
reads it column by column; each iteration writes there what the
factorization reads and factors the buffer in place, with A' kept in its
own array. A dense workspace factors the whole matrix by LU, as the plain
formulas do: it writes P plus one product G_all' W G_all over the call's
dense G_all into the buffer's leading block, then A, A' and -EQ_REG I (a
call without equality rows builds neither A' nor the regularization), so
the matrix it factors is the plain formulas' bit for bit for the weights
it is given (``tools/ab_qp.py`` compares every solution with another
checkout's). A CSR call whose equality rows each have a private pivot, a
column no other equality row touches, eliminates them (the null-space
method: Nocedal and Wright, Numerical Optimization, 2nd ed., 16.2; Benzi,
Golub and Liesen, Acta Numerica 14, 2005) and factors the reduced block by
Cholesky, in the ``_CholeskyNewton`` its presolve
builds. On the bundled presets this is cheaper than an LU of the whole
matrix, and keeps every status, iteration count and objective to nine
digits, but not every last bit. A CSR call with an equality row that has no
private pivot (none on the bundled presets, whose equality rows are the
region and segment choice rows and the zero-width pair rows) writes its
sliced G and A into dense arrays, the bits of scipy's ``toarray``, and runs
on the LU path of a dense workspace. A Cholesky breakdown stops the
iterations as a singular LU does.

A call whose iterates stop unconverged (at MU_FLOOR, on a collapsed step, a
failed factorization or MAX_ITER) at their accuracy floor ends optimal at
its best iterate: the one whose worst relative residual or complementarity
measure is smallest among those whose primal residual and complementarity
lie within 10 EPS_ABS, if that measure is within 10 EPS_ABS too. The
residuals of such iterates sit at their rounding floor while the gap keeps
falling, and further steps only make the multipliers grow.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import ContractViolation
from .formulation import MiqpProblem

#: residual and complementarity tolerance, relative to the data scale
EPS_ABS = 1e-9
#: interior-point iterations per call; one that runs out ends "infeasible"
#: if the Farkas bound proves it, else "max-iterations"
MAX_ITER = 100
#: presolve tolerance for emptied rows, crossed bounds and zero-width pairs
FEAS_TOL = 1e-9
#: regularization of the equality block of the Newton matrix
EQ_REG = 1e-12
#: a CSR call eliminates an equality row through a pivot at least this
#: fraction of the row's largest coefficient, so Z's entries stay below its inverse
PIVOT_RATIO = 0.1
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
#: a warm start's slacks and multipliers are raised to at least this
WARM_FLOOR = 0.1

# LAPACK directly: the checking wrappers cost more than a tiny solve. LU for
# the full Newton matrix of a dense call, Cholesky and triangular solves for
# the reduced block of a CSR one, and one LU-and-solve call per active-set guess
_getrf, _getrs, _gesv, _potrf, _trtrs = la.get_lapack_funcs(
    ("getrf", "getrs", "gesv", "potrf", "trtrs"), dtype=np.float64
)


@dataclass(eq=False)
class QpSolution:
    """Result of one convex solve.

    ``objective`` includes the problem's constant term, so it is directly
    comparable with integral incumbents. For an optimal status it is a lower
    bound (up to solver tolerance) for every completion of the fixings the
    solve was given. A solve that ended at its cutoff has NaN ``x`` and a
    certified lower bound, at or above the cutoff, as ``objective``; an
    infeasible one has NaN ``x`` and an infinite ``objective``.
    ``polished`` is True when the active-set termination step, not the
    interior point's own test, ended the solve (see the module docstring).

    ``y``, ``prim_res`` and ``dual_res`` are computed from the reduced
    multipliers the first time they are read, since branch-and-bound never
    reads them, and so is the warm start another call may take from this
    one. ``y`` stacks the multipliers of the inequality rows, the equality
    rows and the variable bounds (positive on an upper side, negative on a
    lower side); with ``x`` it satisfies stationarity to ``dual_res``.
    """

    x: np.ndarray
    objective: float
    status: str  # "optimal" | "infeasible" | "max-iterations" | "cutoff"
    iterations: int
    polished: bool = False
    # the workspace, the reduced multipliers with their maps back to it and the reduced slacks
    _ws: BoxQp | None = field(default=None, repr=False)
    _duals: tuple = field(default=(), repr=False)
    _slacks: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def y(self) -> np.ndarray:
        return self._ws._multipliers(self.x, *self._duals)

    @cached_property
    def prim_res(self) -> float:
        return self._ws._prim_res(self.x)

    @cached_property
    def dual_res(self) -> float:
        return self._ws._dual_res(self.x, self.y)

    @cached_property
    def _start(self) -> tuple:
        """The final iterate as a warm start: ``x``, and [s; z] of each
        workspace G row, lower and upper bound side, in that stacked order,
        raised to at least WARM_FLOOR and 1.0, the cold multiplier, where
        the call that made it had none."""
        _, z, cols, g_rows = self._duals[:4]
        mi, n = self._ws.h.shape[0], self.x.size
        rows, stored = _stacked_rows(g_rows, cols, mi, n), _full((2, mi + 2 * n), 1.0)
        stored[0, rows] = np.maximum(self._slacks, WARM_FLOOR)
        stored[1, rows] = np.maximum(z, WARM_FLOOR)
        return self.x, stored


@dataclass(eq=False)
class _Reduced:
    """A call's problem after substitution and presolve, with the maps back.

    A CSR call whose equality rows all have a private pivot holds G and A
    as ``_Csr`` arrays and its Newton system in ``newton``; any other call
    holds them dense, and its interior point factors a ``_LuNewton``."""

    x: np.ndarray  # full-length primal, fixed entries filled in
    px: np.ndarray  # P x, full length
    cols: np.ndarray  # free original columns
    p: np.ndarray  # dense
    c: np.ndarray
    g: np.ndarray | _Csr
    h: np.ndarray
    a: np.ndarray | _Csr
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    g_rows: np.ndarray  # original inequality row of each reduced one
    eq_rows: np.ndarray  # original equality row, or -1 for a zero-width pair
    pair_rows: np.ndarray  # (k, 2) original rows of each zero-width pair
    bound_rows: np.ndarray | None  # (2, nf) singleton row that set each lower/upper bound, or -1; None: no row tested
    bound_coefs: np.ndarray | None  # (2, nf) that row's coefficient
    newton: _CholeskyNewton | None  # a CSR call's Newton system; None on the LU path


def _take(m, rows: np.ndarray, cols: np.ndarray, col_map: np.ndarray | None):
    """The rows ``rows`` and ascending columns ``cols`` of ``m``.

    For a CSR ``m``, ``col_map`` gives each column's position in ``cols``,
    or -1, and the result is the ``_Csr`` arrays of ``m[rows][:, cols]``,
    entry order included. A dense result is C-ordered, unlike
    ``m[rows][:, cols]`` (see the module docstring)."""
    if isinstance(m, np.ndarray):
        return m.take(rows, 0).take(cols, 1)
    start = m.indptr[rows]
    count = m.indptr[rows + 1] - start
    ends = np.zeros(rows.size + 1, dtype=m.indptr.dtype)  # each row's span among the picked entries
    count.cumsum(out=ends[1:])
    entry = np.arange(ends[-1]) + (start - ends[:-1]).repeat(count)
    col = col_map[m.indices[entry]]
    keep = col >= 0
    kept = np.zeros(entry.size + 1, dtype=m.indptr.dtype)  # kept entries before each picked one
    keep.cumsum(out=kept[1:])
    return _Csr((rows.size, cols.size), kept[ends], col[keep].astype(m.indices.dtype), m.data[entry[keep]])


def _stored(m: sp.csr_matrix) -> sp.csr_matrix:
    """``m`` in canonical form (sorted indices, no duplicates) without explicitly stored zeros.

    ``sp.csr_matrix`` of a float CSR input shares the input's arrays, and
    ``sum_duplicates`` and ``eliminate_zeros`` compact them in place, so a
    matrix that needs either is copied first: the caller's matrix stays as
    it was."""
    if m.has_canonical_format and _all(m.data != 0.0):
        return m
    m = m.copy()
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def _held_sparse(n_rows: int, n: int) -> bool:
    """Whether a workspace of ``n_rows`` inequality rows and ``n`` variables is held in CSR form."""
    return n_rows * n > SPARSE_MIN_ENTRIES


def _dense(m, shape: tuple) -> np.ndarray:
    """``m`` as the C-ordered float array that ``toarray`` of its CSR form gives.

    A float array, or a float CSR matrix in canonical form, of the right
    shape is converted once; an array's ``+ 0.0`` copies it and folds -0.0
    into 0.0, as dropping stored zeros does. Its nonzero entries are then
    the CSR form's stored entries, which the pair search reads."""
    if getattr(m, "dtype", None) == np.float64 and m.shape == shape:
        if isinstance(m, np.ndarray):
            return np.ascontiguousarray(m) + 0.0
        if sp.issparse(m) and m.format == "csr" and m.has_canonical_format:
            return m.toarray()
    return _stored(sp.csr_matrix(m, shape=shape, dtype=float)).toarray()


def _nonzero(m):
    """1.0 at each nonzero entry of ``m`` and 0.0 elsewhere: an array for a dense ``m``, else ``_Csr`` arrays."""
    if isinstance(m, np.ndarray):
        return (np.abs(m) > 0.0).astype(float)
    return _Csr(m.shape, m.indptr, m.indices, (np.abs(m.data) > 0.0).astype(float))


def _singletons(nz, m, f: np.ndarray, rows: np.ndarray):
    """Column and coefficient of the sole free entry of each row in ``rows``.

    ``nz`` marks the entries of ``m`` and ``f`` the free columns; both
    products are exact, since every other term is zero."""
    cols = _times(nz, f * np.arange(f.size))[rows].astype(int)
    return cols, _times(m, f)[rows]


def _tighten(rows, cols, coefs, rhs, lo, hi, bound_rows, bound_coefs) -> None:
    """Apply the singleton inequality rows ``rows`` (ascending) to the bounds.

    Row k reads ``coefs[k] x[cols[k]] <= rhs[rows[k]]``. Applied one by one,
    a row moves its bound only when it is strictly tighter, so each bound
    ends at its tightest row bound, set by the first row that reaches it;
    ``bound_rows`` and ``bound_coefs`` record that row."""
    bound = rhs[rows] / coefs
    upper = coefs > 0.0
    key = np.where(upper, bound, -bound)  # smaller is tighter on either side
    # only a row strictly tighter than its bound can move it, and the
    # tightest row of a bound is one of those if any is
    tighter = (key < np.where(upper, hi[cols], -lo[cols])).nonzero()[0]
    target = 2 * cols[tighter] + upper[tighter]  # each bound a row can move: its column and side
    order = np.lexsort((key[tighter], target))  # stable: the first row wins a tie
    first = np.ones(order.size, dtype=bool)
    target = target[order]
    first[1:] = target[1:] != target[:-1]
    win = tighter[order[first]]
    side, col = upper[win], cols[win]
    hi[col[side]] = bound[win[side]]
    lo[col[~side]] = bound[win[~side]]
    at = side.astype(int), col
    bound_rows[at], bound_coefs[at] = rows[win], coefs[win]


def _fix(rows, cols, coefs, rhs, lo, hi) -> bool:
    """Apply the singleton equality rows ``rows`` (ascending); False if one conflicts.

    Applied one by one, each row's value must lie within the presolve
    tolerance of the bounds already set (an earlier row on its column set
    both to its own value), and the last row on a column fixes it."""
    val = rhs[rows] / coefs
    order = cols.argsort(kind="stable")
    col, val = cols[order], val[order]
    same = col[1:] == col[:-1]  # the row before is on the same column
    ref_lo, ref_hi = lo[col], hi[col]
    ref_lo[1:][same] = ref_hi[1:][same] = val[:-1][same]
    slack = FEAS_TOL * (1.0 + np.abs(val))
    if not _all((ref_lo - slack <= val) & (val <= ref_hi + slack)):
        return False
    last = np.ones(col.size, dtype=bool)
    last[:-1] = ~same
    lo[col[last]] = hi[col[last]] = val[last]
    return True


def _opposite_pairs(g, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (i < j) of ``g`` that are exact negatives on the ``kept`` columns.

    ``g`` is dense or a canonical CSR matrix without stored zeros. Only
    rows with at least two entries on those columns take part. Also returns
    a group id per pair: pairs of the same two opposite patterns share it,
    so their zero-width equalities coincide.
    """
    none = np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int)
    if isinstance(g, np.ndarray):
        row_of, col_of = g.nonzero()  # row by row, columns ascending
        data = g[row_of, col_of]
    else:
        row_of, col_of, data = np.arange(g.shape[0]).repeat(np.diff(g.indptr)), g.indices, g.data
    on = kept[col_of]
    row_of, col_of = row_of[on], col_of[on]
    vals_on = data[on].round(12) + 0.0  # +0.0 folds -0.0 into 0.0
    # a row takes part with two entries on, one of them nonzero
    count = np.bincount(row_of, minlength=g.shape[0])
    take = (count >= 2) & (np.bincount(row_of, vals_on != 0.0, minlength=g.shape[0]) > 0)
    rows = take.nonzero()[0]
    # a row's negation sums to the negated row sum (rounding is symmetric),
    # so with no two opposite sums there is no pair
    sums = np.bincount(row_of, vals_on, minlength=g.shape[0])[rows]
    ordered = sums.copy()
    ordered.sort()
    mates = ordered.searchsorted(-sums, "right") - ordered.searchsorted(-sums, "left")
    if not _any(mates > (sums == 0.0)):
        return none
    # each taking row's key, padded: its columns (-1 past the end), then the
    # bits of its values; the negated keys are stacked below the row keys
    entry = take[row_of]
    row_of, vals_on = row_of[entry], vals_on[entry]
    per_row = count[rows]
    pos = np.arange(row_of.size) - (per_row.cumsum() - per_row).repeat(per_row)
    at = rows.searchsorted(row_of), pos
    width = int(per_row[per_row.argmax()])
    keys = np.zeros((2 * rows.size, 2 * width), dtype=np.int64)
    keys[:, :width] = -1
    keys[at] = keys[(at[0] + rows.size, at[1])] = col_of[entry]
    keys[(at[0], at[1] + width)] = vals_on.view(np.int64)
    keys[(at[0] + rows.size, at[1] + width)] = (-vals_on + 0.0).view(np.int64)
    order = np.lexsort(keys.T[::-1])
    step = np.zeros(order.size, dtype=bool)
    step[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    key_of = np.empty(order.size, dtype=int)
    key_of[order] = step.cumsum()
    own, negated = key_of[: rows.size], key_of[rows.size :]
    # group ids number the keys by the first row that has them
    keys_seen, first = np.unique(own, return_index=True)
    ids = np.zeros(order.size, dtype=int)
    ids[keys_seen[first.argsort()]] = np.arange(keys_seen.size)
    # the rows of each key, ascending, and each row's mates among them
    members = own.argsort(kind="stable")
    size = np.bincount(own, minlength=order.size)
    start = size.cumsum() - size
    n_mates = size[negated]
    i = np.arange(rows.size).repeat(n_mates)
    j = members[np.arange(i.size) + (start[negated] - (n_mates.cumsum() - n_mates)).repeat(n_mates)]
    later = j > i
    i, j = i[later], j[later]
    return np.stack([rows[i], rows[j]], axis=1), np.minimum(ids[negated[i]], ids[own[i]])


def _entry_pairs(m: sp.csr_matrix) -> tuple[np.ndarray, ...]:
    """The pairs of stored entries that share a row of a canonical CSR ``m``, one order of each.

    Returns ``(a, b, product, bin, (i, j))``: per pair the two entries'
    positions ``a <= b`` in ``m.data``, the product of their values and the
    pair's bin; per bin its columns ``i <= j``. Bin c < n is the diagonal
    (c, c), whether or not a pair reaches it; the off-diagonal bins follow
    in (i, j) order. ``m' diag(w) m`` at (i, j) and at (j, i) is the sum of
    ``w[row] * product`` over the bin's pairs. The pairs run by bin, and
    within a bin by row, as a list by row, then by ``a``, then by ``b``
    orders them. With no two entries of a row in one column, a list of every
    ordered pair gives (i, j) and (j, i) the same products in the same
    order.
    """
    n = m.shape[1]
    count = np.diff(m.indptr)
    row_of = np.repeat(np.arange(m.shape[0]), count)  # row of each entry
    entry = np.arange(m.nnz)
    later = m.indptr[1:][row_of] - entry  # entries from each one to its row's end
    a = np.repeat(entry, later)
    b = np.arange(a.size) - np.repeat(np.cumsum(later) - later - entry, later)
    col = m.indices.astype(np.intp)
    key = (col * n)[a] + col[b]  # (i, j) in a flat n x n table
    # the table numbers the bins in key order without sorting the pairs
    used = np.zeros(n * n, dtype=bool)
    used[key] = True
    used[:: n + 1] = False
    off = np.flatnonzero(used)
    table = np.empty(n * n, dtype=np.intp)
    table[:: n + 1] = np.arange(n)
    table[off] = np.arange(n, n + off.size)
    diag = np.arange(n)
    bins = np.concatenate([diag, off // n]), np.concatenate([diag, off % n])
    pair_bin = table[key]
    # a stable sort by bin; a key of 16 bits or fewer sorts by radix
    order = np.argsort(pair_bin.astype(np.min_scalar_type(n + off.size)), kind="stable")
    a, b = a[order], b[order]
    return a, b, m.data[a] * m.data[b], pair_bin[order], bins


def _pivots(a: _Csr, row_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a canonical CSR ``a`` that have a private pivot, ascending, and the pivot entry of each.

    ``row_of`` is each entry's row. A private entry is one whose column
    has no entry in another row. A row's pivot is its private entry of
    largest magnitude, ties to the last, if that is at least PIVOT_RATIO
    times the row's largest magnitude."""
    mag = np.abs(a.data)
    rows = (a.indptr[1:] > a.indptr[:-1]).nonzero()[0]  # the rows with entries
    largest = np.zeros(a.shape[0])
    largest[rows] = np.maximum.reduceat(mag, a.indptr[rows])
    private = np.bincount(a.indices, minlength=a.shape[1])[a.indices] == 1
    eligible = private & (mag >= PIVOT_RATIO * largest[row_of])
    # a stable sort by row, then eligibility, then magnitude ends each row
    # that has an entry at its pivot, if any
    best = np.lexsort((mag, eligible, row_of))[a.indptr[rows + 1] - 1]
    best = best[eligible[best]]
    return row_of[best], best


def _through(i, j, ptr, col, coef) -> tuple[np.ndarray, ...]:
    """The terms of ``Z' e_i e_j' Z`` on the lower triangle, for each ordered column pair (i[k], j[k]).

    Row c of Z is given as CSR arrays: its entries ``col[ptr[c]:ptr[c+1]]``
    with values ``coef[...]``. Returns, per term, the pair k, the entry
    (u, v), u >= v, and Z[i, u] Z[j, v], pair by pair."""
    size = ptr[1:] - ptr[:-1]
    n_j = size[j]
    count = size[i] * n_j
    pair = np.arange(i.size).repeat(count)
    step_i, step_j = np.divmod(np.arange(pair.size) - (count.cumsum() - count)[pair], n_j[pair])
    at_i, at_j = ptr[i][pair] + step_i, ptr[j][pair] + step_j
    u, v = col[at_i], col[at_j]
    low = (u >= v).nonzero()[0]
    at_i, at_j = at_i[low], at_j[low]
    return pair[low], u[low], v[low], coef[at_i] * coef[at_j]


class _Csr(NamedTuple):
    """The arrays of a CSR matrix, for ``_copy_product`` without the checks of a scipy matrix."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def dense(self) -> np.ndarray:
        """The matrix as a C-ordered array, each entry written into zeros.

        A workspace's entries and its slices' are canonical without stored
        zeros, one per position, so this gives the bits of scipy's
        ``toarray``, which adds each entry into zeros."""
        out = np.zeros(self.shape)
        out[np.arange(self.shape[0]).repeat(self.indptr[1:] - self.indptr[:-1]), self.indices] = self.data
        return out


def _wide(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Variables whose bounds leave room beyond the presolve tolerance."""
    return hi - lo > FEAS_TOL * (1.0 + np.abs(lo))


def _crossed(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether a lower bound exceeds its upper bound beyond the presolve tolerance."""
    return _any(lo - hi > FEAS_TOL * (1.0 + np.abs(lo)))


def _any(b: np.ndarray) -> bool:
    """Whether the boolean array ``b`` has a True entry, by its first maximum."""
    return b.size > 0 and bool(b[b.argmax()])


def _all(b: np.ndarray) -> bool:
    """Whether every entry of the boolean array ``b`` is True, by its first minimum."""
    return b.size == 0 or bool(b[b.argmin()])


def _full(shape, value: float) -> np.ndarray:
    """``np.full(shape, value)``, without its Python-level wrapper."""
    out = np.empty(shape)
    out.fill(value)
    return out


def _norm(v: np.ndarray) -> float:
    """The largest |v_i|, 0.0 for an empty ``v`` and NaN if an entry is NaN."""
    if not v.size:
        return 0.0
    mag = np.abs(v)
    return float(mag[mag.argmax()])


def _copy_product(m, v: np.ndarray, out: np.ndarray) -> None:
    """``out = m @ v`` for a CSR ``m``, written in place.

    scipy's ``m @ v`` allocates zeros and has ``csr_matvec`` add each row's
    products into them; zeroing ``out`` and calling that kernel gives the
    same bits without the dispatch and the allocation."""
    out.fill(0.0)
    _sparsetools.csr_matvec(*m.shape, m.indptr, m.indices, m.data, v, out)


def _copy_product_t(m, v: np.ndarray, out: np.ndarray) -> None:
    """``out = m' @ v`` for a CSR ``m``, written in place from ``m``'s own arrays.

    A CSR matrix's arrays, read as CSC, are its transpose, and scipy's
    ``m.T @ v`` has ``csc_matvec`` add the products into zeros. Each entry
    of ``out`` sums its column's products in row order, as ``csr_matvec``
    sums a row of m' in CSR form, so the bits are those of either."""
    out.fill(0.0)
    _sparsetools.csc_matvec(m.shape[1], m.shape[0], m.indptr, m.indices, m.data, v, out)


def _times(m, v: np.ndarray) -> np.ndarray:
    """``m @ v`` in a new array: numpy's product for a dense ``m``; for a CSR
    one (a scipy matrix or ``_Csr`` arrays) scipy's kernel adds the products
    into zeros, as ``m @ v`` does after its dispatch."""
    if isinstance(m, np.ndarray):
        return m.dot(v)
    out = np.zeros(m.shape[0])
    _sparsetools.csr_matvec(*m.shape, m.indptr, m.indices, m.data, v, out)
    return out


def _rounding(terms: int, magnitude: float) -> float:
    """Rounding allowance of a sum of at most ``terms`` products whose magnitudes add up to ``magnitude``.

    A float sum of k terms errs by at most (k - 1) u times the sum of their
    magnitudes (u = 2^-53, half of ``np.finfo(float).eps``); a product
    adds u of its own. Counting 8 more terms at 2u each covers the few
    additions that combine the sums. ``math.ulp(1.0)`` is that eps."""
    return float((terms + 8) * math.ulp(1.0) * magnitude)


def _max_step(sz: np.ndarray, dsz: np.ndarray, ratio: np.ndarray) -> float:
    """Largest step along ``dsz`` keeping the positive vector ``sz``
    nonnegative, with the ratios dsz / sz written to ``ratio``; NaN when a
    ratio is NaN, as a direction that is not finite makes it."""
    np.divide(dsz, sz, ratio)
    worst = ratio[ratio.argmin()]
    return -1.0 / worst if not worst >= 0.0 else math.inf


def _stacked(g, nf: int):
    """G_all = [G; -I; I] for a call's G of ``nf`` columns: a C-ordered array
    for a dense G; for a CSR one, ``_Csr`` arrays with 2 nf unit rows after
    G's. ``csr_matvec`` sums a unit row as 0 + (-1) v_i, and ``csc_matvec``
    adds the unit rows' terms after G's, so a CSR product gives the bits of G's
    product and the bound blocks taken apart, but for the sign of a zero."""
    if isinstance(g, np.ndarray):
        k = g.shape[0]
        out = np.empty((k + 2 * nf, nf))
        out[:k] = g
        lower, upper = out[k : k + nf], out[k + nf :]
        lower.fill(-0.0)  # as in -np.eye(nf)
        upper.fill(0.0)
        lower.reshape(-1)[:: nf + 1] = -1.0
        upper.reshape(-1)[:: nf + 1] = 1.0
        return out
    cols, unit = np.arange(nf, dtype=g.indices.dtype), np.arange(1, 2 * nf + 1, dtype=g.indptr.dtype)
    data = np.concatenate([g.data, np.full(nf, -1.0), np.ones(nf)])
    return _Csr((g.shape[0] + 2 * nf, nf), np.concatenate([g.indptr, g.indptr[-1] + unit]),
                np.concatenate([g.indices, cols, cols]), data)


def _stacked_rows(g_rows: np.ndarray, cols: np.ndarray, mi: int, n: int) -> np.ndarray:
    """The position of each row of a call's G_all in a workspace's stacked
    rows [G; -I; I] of ``mi`` G rows and ``n`` columns."""
    k, nf = g_rows.size, cols.size
    out = np.empty(k + 2 * nf, dtype=np.intp)
    out[:k] = g_rows
    np.add(cols, mi, out[k : k + nf])
    np.add(cols, mi + n, out[k + nf :])
    return out


class BoxQp:
    """Reusable workspace for one constraint structure with varying fixings.
    A solve never modifies it: a call's result depends only on its own arguments."""

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
        if not (_all(np.isfinite(self.lo)) and _all(np.isfinite(self.hi))):
            raise ContractViolation("all variable bounds must be finite")
        self.n = n = self.lo.shape[0]
        columns = np.asarray(integer_columns)
        # -1 would pin the last column and 0.5 column 0, silently
        if columns.size and not (
            columns.dtype.kind in "iu" and 0 <= columns[columns.argmin()] <= columns[columns.argmax()] < n
        ):
            raise ContractViolation(f"integer_columns must be integer column indices in 0..{n - 1}")
        self.q = np.asarray(q_vector, dtype=float)
        self.h = np.asarray(h_vector, dtype=float)
        self.b = np.asarray(b_vector, dtype=float)
        self.constant = float(objective_constant)
        self.sparse = _held_sparse(self.h.shape[0], n)
        shapes = (self.h.shape[0], n), (self.b.shape[0], n), (n, n)
        g, a, p = (
            _stored(sp.csr_matrix(m, shape=shape, dtype=float)) if self.sparse else _dense(m, shape)
            for m, shape in zip((g_matrix, a_matrix, p_matrix), shapes)
        )
        self.g, self.a, self.p = g, a, p
        self._all_rows = np.arange(self.h.shape[0]), np.arange(self.b.shape[0])  # of a call that keeps every row
        if self.sparse:
            # computed once: the G entry pairs and their bins, the entries of P and [A; G]
            self._scatter = _entry_pairs(g)
            self._g_entries = np.arange(g.shape[0]).repeat(np.diff(g.indptr)), g.indices.astype(np.intp)
            self._p_entries = np.arange(n).repeat(np.diff(p.indptr)), p.indices, p.data
            self._ag = sp.vstack([a, g], format="csr")
        else:
            self._ag = np.vstack([self.a, self.g])
        pinnable = np.zeros(n, dtype=bool)
        pinnable[columns.astype(int)] = True
        self._pinnable = pinnable
        # 1.0 at each nonzero entry: a product with the free mask counts free entries
        self._nz_ag = _nonzero(self._ag)
        # a pair can only become an equality when both rows keep two free
        # entries off the pinnable columns, so only such entries are compared
        self._pairs, self._pair_groups = _opposite_pairs(g, ~pinnable & (self.lo < self.hi))
        self._free = _wide(self.lo, self.hi)
        # a cutoff's rounding allowance for the objective's fixed part and
        # the reduced linear term, which sum the same products, at any
        # fixings within the presolve tolerance of the bounds
        width = np.maximum(np.abs(self.lo), np.abs(self.hi)) + 1.0
        magnitude = width.dot(abs(p).dot(width)) + np.abs(self.q).dot(width) + abs(self.constant)
        self._fixed_slack = 2.0 * _rounding(n, magnitude)
        self._crossed = _crossed(self.lo, self.hi)
        # with two entries off the pinnable and collapsed columns in every
        # row, no fixing of pinnable columns leaves a row empty or singleton,
        # so no bound moves and the presolve tests no row
        kept = (~pinnable & self._free).astype(float)
        self._tests_rows = _any(_times(self._nz_ag, kept) < 2.0)

    @classmethod
    def from_miqp(cls, problem: MiqpProblem) -> "BoxQp":
        """Relax a MIQP: binaries become [0,1] continuous."""
        q = problem.q_matrix
        if sp.issparse(q) and not _held_sparse(problem.b_ineq.shape[0], problem.lower.shape[0]):
            q = q.toarray()  # scaling by 2 is exact, so it may follow the conversion
        return cls(
            2.0 * q,
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
        pins a variable starts another. Rows are tested only when the
        workspace tests them or a fixing is off the pinnable columns; then
        every row is. The reduced problem is sliced from the workspace once,
        after the last round. A call that tests no row and finds no
        zero-width pair keeps every row: it builds no live set, no map of
        the rows that set bounds (``bound_rows`` is None) and no row index,
        and its h and b are h - Gx and b - Ax whole.
        """
        lo = self.lo.copy()
        hi = self.hi.copy()
        free = self._free.copy()
        tests_rows = self._tests_rows
        if fixings:
            # np.fromiter alone truncates an index such as 1.5, "1" or
            # np.float64(1.0), and operator.index reads True as 1, which
            # integer_columns rejects
            idx = None
            if bool not in (kinds := set(map(type, fixings))) and np.bool_ not in kinds:
                try:
                    idx = np.fromiter(map(operator.index, fixings), dtype=int, count=len(fixings))
                except (TypeError, OverflowError):
                    pass
            val = np.fromiter(fixings.values(), dtype=float, count=len(fixings))
            bad = f"fixings must pin variables 0..{self.n - 1} to finite values"
            if idx is None or not (0 <= idx[idx.argmin()] and idx[idx.argmax()] < self.n):
                raise ContractViolation(bad)
            # a value within its bounds is within their tolerance, so only
            # when a value's excess over them is above 0 or NaN (the value is
            # not finite) does the tolerance's own test run
            below, above = lo[idx], hi[idx]
            np.subtract(below, val, below)
            np.subtract(val, above, above)
            excess = np.maximum(below, above, out=below)
            if not excess[excess.argmax()] <= 0.0:
                if not _all(np.isfinite(val)):
                    raise ContractViolation(bad)
                slack = FEAS_TOL * (1.0 + np.abs(val))
                if _any((val < lo[idx] - slack) | (val > hi[idx] + slack)):
                    return None
            lo[idx] = hi[idx] = val
            free[idx] = False
            tests_rows = tests_rows or not _all(self._pinnable[idx])
        # only the workspace's own bounds can cross here: a fixing sets lo = hi
        if self._crossed and _crossed(lo, hi):
            return None
        me = self.b.shape[0]
        # the rows of [A; G] still tested and the singleton row that set each
        # bound; a call that tests no row keeps every row and sets no bound by one
        live = bound_rows = bound_coefs = None
        if tests_rows:
            live = np.ones(me + self.h.shape[0], dtype=bool)
            bound_rows, bound_coefs = np.full((2, self.n), -1), np.zeros((2, self.n))
        while True:
            x = 0.5 * (lo + hi)
            x[free] = 0.0
            h = self.h - _times(self.g, x)
            b = self.b - _times(self.a, x)
            if not tests_rows:
                break  # every row keeps two free entries
            f = free.astype(float)
            nnz = _times(self._nz_ag, f)
            empty = (live & (nnz == 0.0)).nonzero()[0]
            if empty.size:
                eq, ineq = empty[empty < me], empty[empty >= me] - me
                if _any(np.abs(b[eq]) > FEAS_TOL * (1.0 + np.abs(self.b[eq]))) or _any(
                    h[ineq] < -FEAS_TOL * (1.0 + np.abs(self.h[ineq]))
                ):
                    return None
            single = (live & (nnz == 1.0)).nonzero()[0]
            live &= nnz >= 2.0
            if not single.size:
                break  # no bound moved, so no variable is pinned
            cols, coefs = _singletons(self._nz_ag, self._ag, f, single)
            eq = single.searchsorted(me)  # the equality rows come first
            # a singleton inequality row tightens one bound of its variable
            if eq < single.size:
                _tighten(single[eq:] - me, cols[eq:], coefs[eq:], h, lo, hi, bound_rows, bound_coefs)
            # a singleton equality row fixes its variable
            if eq and not _fix(single[:eq], cols[:eq], coefs[:eq], b, lo, hi):
                return None
            if _crossed(lo, hi):  # a tightened bound crossed the other
                return None
            still_free = _wide(lo, hi)
            if not _any(still_free != free):
                break
            free = still_free  # a row pinned a variable: substitute again
        found = self._zero_width_pairs(h, free, None if live is None else live[me:])
        if found is None:
            return None
        pairs, implied = found
        cols = free.nonzero()[0]
        px = _times(self.p, x)
        whole = live is None and not pairs.size  # every row kept: G, h, A and b are whole
        if whole:
            g_rows, eq_rows = self._all_rows
            a_rows = eq_rows
        else:
            if live is None:
                live = np.ones(me + self.h.shape[0], dtype=bool)
            live_a, live_g = live[:me], live[me:]
            live_g[implied] = False  # the pairs' equalities imply their rows
            g_rows, eq_rows = live_g.nonzero()[0], live_a.nonzero()[0]
            a_rows, b = eq_rows, b[eq_rows]
            if pairs.size:  # the first row of each zero-width pair joins the equalities
                a_rows = np.concatenate([eq_rows, me + pairs[:, 0]])
                b = np.concatenate([b, h[pairs[:, 0]]])
                eq_rows = np.concatenate([eq_rows, np.full(len(pairs), -1)])
            h = h[g_rows]
        if self.sparse:
            p, g, a, newton = self._slice_csr(g_rows, a_rows, cols)
        else:  # a call that keeps every row takes G and A by columns alone
            p, newton = _take(self.p, cols, cols, None), None
            g = self.g.take(cols, 1) if whole else _take(self.g, g_rows, cols, None)
            a = self.a.take(cols, 1) if whole else _take(self._ag, a_rows, cols, None)
        if bound_rows is not None:
            bound_rows, bound_coefs = bound_rows[:, cols], bound_coefs[:, cols]
        return _Reduced(
            x, px, cols, p, self.q[cols] + px[cols], g, h, a, b, lo[cols], hi[cols],
            g_rows, eq_rows, pairs, bound_rows, bound_coefs, newton,
        )

    def _slice_csr(self, g_rows, a_rows, cols) -> tuple:
        """The call's P, G and A, the latter two as ``_Csr`` arrays, and its ``_CholeskyNewton``;
        or, when an equality row has no private pivot, P, G and A dense and None, for the LU path.

        P's entries in free columns are scattered into a dense array, as
        ``toarray`` adds them into zeros. One mask marks the workspace's G
        entries in kept rows and free columns, which G keeps in entry order,
        as ``_take`` does; A is taken from [A; G] with the column map, which
        gives each column's position in ``cols``, or -1. An entry pair
        survives when both its entries do. The pairs keep the workspace's
        order, bin by bin; a surviving pair's bin is on free columns, and
        those bins keep their order, diagonals first.
        """
        g, k, nf = self.g, g_rows.size, cols.size
        col_map = np.full(self.n, -1)
        col_map[cols] = np.arange(nf)
        row_map = np.full(self.h.shape[0], -1)
        row_map[g_rows] = np.arange(k)
        p_row, p_col, p_val = self._p_entries
        p_row, p_col = col_map[p_row], col_map[p_col]
        keep = (p_row | p_col) >= 0  # both are: an OR of integers is negative when either is
        p_entries = p_row[keep], p_col[keep], p_val[keep]
        p = np.zeros((nf, nf))
        p[p_entries[:2]] = p_entries[2]  # P has one entry per position: adding it to 0.0 is writing it
        row_of, col_of = self._g_entries
        row, col = row_map[row_of], col_map[col_of]
        on = (row | col) >= 0
        entry = on.nonzero()[0]
        indptr = np.zeros(k + 1, dtype=np.intp)
        np.bincount(row[entry], minlength=k).cumsum(out=indptr[1:])
        g_red = _Csr((k, nf), indptr, col[entry], g.data[entry])
        a_red = _take(self._ag, a_rows, cols, col_map)
        a, b, prod, bins, (i, j) = self._scatter
        keep = on[a] & on[b]
        i, j = col_map[i], col_map[j]
        live = (i | j) >= 0
        # the pairs bin by bin (the workspace orders them so): the rows of a CSR matrix
        count = np.bincount(bins[keep], minlength=live.size)[live]
        indptr = np.zeros(count.size + 1, dtype=np.intp)
        count.cumsum(out=indptr[1:])
        pairs = _Csr((count.size, k + 2 * nf), indptr, row[a[keep]], prod[keep])
        newton = _CholeskyNewton.build(nf, p_entries, a_red, pairs, (i[live], j[live]))
        if newton is None:  # an equality row without a private pivot: the call runs on the dense LU path
            return p, g_red.dense(), a_red.dense(), None
        return p, g_red, a_red, newton

    def _zero_width_pairs(self, rhs, free, kept):
        """Find opposite row pairs whose right-hand sides cancel.

        ``rhs`` is h - Gx, ``free`` the free-column mask and ``kept`` marks
        the rows the presolve kept, or is None when it kept every row. A
        pair is live when the presolve kept both rows and fixed all their
        pinnable columns, so that their free parts are exact negatives.
        Returns ``(pairs, implied)``: one pair per group, whose first row
        becomes an equality, and the rows of every zero-width pair (repeats
        allowed), which those equalities imply. Returns None if a live pair
        has negative width.
        """
        none = np.zeros((0, 2), dtype=int)
        if not self._pairs.size:
            return none, none[:, 0]
        pinnable = _times(self._nz_ag, (free & self._pinnable).astype(float))[self.b.shape[0] :]
        ready = pinnable == 0.0
        if kept is not None:
            ready &= kept
        live = ready[self._pairs[:, 0]] & ready[self._pairs[:, 1]]
        if not _any(live):
            return none, none[:, 0]
        pairs, groups = self._pairs[live], self._pair_groups[live]
        h_i = rhs[pairs[:, 0]]
        width = h_i + rhs[pairs[:, 1]]
        if _any(width < -FEAS_TOL * (1.0 + np.abs(h_i))):
            return None
        zero = width <= FEAS_TOL * (1.0 + np.abs(h_i))
        _, first = np.unique(groups[zero], return_index=True)
        return pairs[zero][first], pairs[zero].ravel()

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        fixings: dict[int, float] | None = None,
        cutoff: float = math.inf,
        start: QpSolution | None = None,
    ) -> QpSolution:
        """Solve the relaxation with the variables in ``fixings`` pinned.

        Without ``start``, every call starts from the same interior point.
        With it, a solution of this workspace that has an iterate (not an
        infeasible or cutoff one), the call starts from that solution's
        final iterate, restricted to the call's free columns and kept rows
        (see the module docstring); if it then ends "max-iterations", it is
        solved once more without the start, and ``iterations`` counts both.
        A result is a function of the fixings, the cutoff and the start
        alone. A fixing outside its variable's bounds (beyond the presolve
        tolerance) makes the call infeasible; a non-finite value, or an
        index that is not an integer or lies outside the variables, is a
        ContractViolation. A call ends "infeasible" only when the presolve
        or a Farkas certificate at its iterate proves it; one that neither
        converges nor is proved infeasible ends "max-iterations".

        With a finite ``cutoff``, a call whose certified lower bound reaches
        it before the iterates converge stops there with status "cutoff"
        and that bound as its objective; its ``x`` is NaN. Any other call
        returns what it returns without a cutoff, bit for bit.
        """
        if start is not None and start._ws is not self:
            raise ContractViolation("a warm start must be a solution with an iterate from this workspace")
        red = self._presolve(fixings)
        if red is None:
            return self._unsolved(0)
        if red.cols.size == 0:
            return self._result(red, np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), "optimal", 0)
        base = slack = 0.0
        if cutoff < math.inf:  # the objective's fixed part and its rounding allowance
            x = red.x
            base, slack = float((0.5 * x).dot(red.px) + self.q.dot(x) + self.constant), self._fixed_slack
        warm = None if start is None else start._start
        xr, y, s, z, it, status, bound = _interior_point(red, cutoff - base + slack, warm)
        if status == "max-iterations" and warm is not None:  # the one status a start can worsen
            xr, y, s, z, cold, status, bound = _interior_point(red, cutoff - base + slack)
            it += cold
        if status == "infeasible":
            return self._unsolved(it)
        if status == "cutoff":
            # the reduced bound reached cutoff - base + slack, so the sum can
            # fall below the cutoff only by its own rounding, which the
            # allowances exceed: the cutoff is a bound as well
            return self._unsolved(it, "cutoff", max(cutoff, base - slack + bound))
        if status == "polished":
            return self._result(red, xr, y, s, z, "optimal", it, polished=True)
        return self._result(red, xr, y, s, z, status, it)

    def _unsolved(self, iterations: int, status="infeasible", objective=math.inf) -> QpSolution:
        """A solution with no primal point: infeasible, or ended at the cutoff with a certified bound."""
        sol = QpSolution(_full(self.n, np.nan), objective, status, iterations)
        # nothing to map back: the lazy fields are set now
        m = self.h.shape[0] + self.b.shape[0] + self.n
        vars(sol).update(y=np.zeros(m), prim_res=math.inf, dual_res=math.inf)
        return sol

    def _result(self, red: _Reduced, xr, y_red, s, z, status, iterations, polished=False) -> QpSolution:
        """The full primal and objective; the multipliers are mapped on read.

        The solution keeps the reduced multipliers and the small index maps,
        not ``red``, whose dense ``p`` and Newton system are large."""
        x = red.x.copy()
        x[red.cols] = xr
        return QpSolution(
            x, float((0.5 * x).dot(_times(self.p, x)) + self.q.dot(x) + self.constant), status, iterations,
            polished, _ws=self,
            _duals=(y_red, z, red.cols, red.g_rows, red.eq_rows, red.pair_rows,
                    red.bound_rows, red.bound_coefs),
            _slacks=s,
        )

    def _multipliers(self, x, y_red, z, cols, g_rows, eq_rows, pair_rows, bound_rows, bound_coefs):
        """A solution's ``y``: the reduced multipliers mapped back to the full problem."""
        mi, me = self.h.shape[0], self.b.shape[0]
        y = np.zeros(mi + me + self.n)
        y_in, y_eq, y_bnd = y[:mi], y[mi : mi + me], y[mi + me :]
        k, nf = g_rows.size, cols.size
        y_in[g_rows] = z[:k]
        orig = eq_rows >= 0
        y_eq[eq_rows[orig]] = y_red[orig]
        if pair_rows.size:
            # a pair equality's multiplier belongs to the row on its side
            lam = y_red[~orig]
            np.add.at(y_in, pair_rows[:, 0], np.maximum(lam, 0.0))
            np.add.at(y_in, pair_rows[:, 1], np.maximum(-lam, 0.0))
        # a bound set by a singleton row hands its multiplier to that row
        for side, mult in ((0, -z[k : k + nf]), (1, z[k + nf :])):
            by_row = np.zeros(nf, dtype=bool) if bound_rows is None else bound_rows[side] >= 0
            if by_row.any():
                np.add.at(y_in, bound_rows[side, by_row], mult[by_row] / bound_coefs[side, by_row])
            y_bnd[cols[~by_row]] += mult[~by_row]
        fixed = np.ones(self.n, dtype=bool)
        fixed[cols] = False
        y_bnd[fixed] = -self._gradient(x, y)[fixed]  # a pinned variable's bound row absorbs the rest
        return y

    def _gradient(self, x, y):
        """Px + q + G'y_in + A'y_eq: the Lagrangian's gradient without the bound terms."""
        mi, me = self.h.shape[0], self.b.shape[0]
        return self.p @ x + self.q + self.g.T @ y[:mi] + self.a.T @ y[mi : mi + me]

    def _prim_res(self, x) -> float:
        return max(
            float(np.max(self.g @ x - self.h, initial=0.0)),
            _norm(self.a @ x - self.b),
            float(np.max(self.lo - x, initial=0.0)),
            float(np.max(x - self.hi, initial=0.0)),
        )

    def _dual_res(self, x, y) -> float:
        return _norm(self._gradient(x, y) + y[self.h.shape[0] + self.b.shape[0] :])


class _LuNewton:
    """The Newton system of a call on the LU path, factored whole by LU: a
    dense workspace's call, or a CSR call with an equality row that has no
    private pivot, whose G and A its presolve made dense.

    The F-ordered buffer holds [[P + G_all' W G_all, A'], [A, -EQ_REG I]];
    ``factor`` writes the leading block as P plus one product over the
    call's dense G_all, and has LAPACK factor the buffer in place."""

    def __init__(self, red: _Reduced, g_all: np.ndarray, a_t: np.ndarray):
        nf, me = red.c.size, red.b.size
        self.red, self.nf, self.me, self.g_all = red, nf, me, g_all
        self.kkt = np.empty((nf + me, nf + me), order="F")
        # the leading block, written whole (it is not bitwise symmetric)
        # straight into the buffer: a ufunc writes any layout
        self.top = self.kkt[:nf, :nf]
        # A' in its own array, made by the call, as the right-hand sides
        # read it: the LU overwrites kkt. A call without equality rows
        # builds no regularization
        self.a_t, self.reg = a_t, -EQ_REG * np.eye(me) if me else None
        # G_all' W, F-ordered as g_all.T * w makes it (a product of another
        # layout sums in another order), and G_all' W G_all
        self.g_all_t, self.gw = g_all.T, np.empty((nf, g_all.shape[0]), order="F")
        self.block = np.empty((nf, nf))

    def factor(self, w: np.ndarray) -> bool:
        """Factor the Newton matrix for the weights ``w``; False if it is singular."""
        kkt, nf = self.kkt, self.nf
        np.multiply(self.g_all_t, w, self.gw).dot(self.g_all, self.block)
        np.add(self.red.p, self.block, self.top)
        if self.me:
            kkt[nf:, :nf] = self.red.a
            kkt[:nf, nf:] = self.a_t
            kkt[nf:, nf:] = self.reg
        self.lu, self.piv, info = _getrf(kkt, 1)  # overwrite_a: factored in place
        return info == 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Overwrite the right-hand side [r_x; r_y] with [dx; dy], and return it."""
        return _getrs(self.lu, self.piv, rhs, 0, 1)[0]  # overwrite_b: solved in place


class _CholeskyNewton:
    """The Newton system of a CSR call whose equality rows all have a
    private pivot: each row eliminated through its pivot, the reduced block
    by Cholesky. ``build`` makes it from the call's slices, or finds a row
    without a pivot, and the call then runs on ``_LuNewton``.

    Row r, eliminated through its pivot column p, fixes dx_p = (r_y,r -
    sum_{j != p} a_rj dx_j) / a_rp, so dx = Z du + x_e over the other nr
    columns, with x_e = r_y,r / a_rp on each pivot. The system works in a
    permuted order, ``order``: the other columns, the pivots, the equality
    rows; ``subst`` holds Z's pivot rows. The reduced block K = Z'HZ, H = P
    + G_all' W G_all, is symmetric positive definite (P is PSD, both bound
    sides put a positive weight on each diagonal entry of H, and Z has full
    column rank). ``factor`` sums it in one flat buffer, K's lower triangle
    F-ordered, then H's pivot rows C-ordered in the permuted order: P's
    entries, then the entry pairs' sums by bin, then the pivot rows carried
    through Z. Each row of ``pairs`` and ``routes`` holds one bin's terms in
    summation order, so ``csr_matvec`` sums each bin as a ``np.bincount`` of
    the terms would. It then factors K in place, K = LL'. A solve takes du
    = L^-T L^-1 Z'(r_x - H x_e), two triangular solves: for one vector, two
    ``trtrs`` calls take about half the time of one ``potrs`` at nf = 170.
    Each row's multiplier then comes from its pivot's row of the first
    block row, dy_r = (r_x - H dx)_p / a_rp. ``a_t`` is A' as a C-ordered
    array, as a dense workspace holds it. Every buffer is allocated once
    per call."""

    @classmethod
    def build(cls, nf: int, p_entries: tuple, a: _Csr, pairs: _Csr, bin_cols: tuple) -> _CholeskyNewton | None:
        """The system of a call of ``nf`` free columns, with P's entries
        ``(row, col, value)``, its CSR A, the Newton block's entry pairs (row
        k of ``pairs`` holds bin k's products by G_all row, in summation
        order) and each bin's columns ``(i, j)``, i <= j; None when an
        equality row has no private pivot."""
        row_of = np.arange(a.shape[0]).repeat(a.indptr[1:] - a.indptr[:-1])
        pivoted, entry = _pivots(a, row_of)
        return cls(nf, p_entries, a, row_of, entry, pairs, bin_cols) if pivoted.size == a.shape[0] else None

    def __init__(self, nf, p_entries, a, row_of, entry, pairs, bin_cols):
        """The system for the pivot entries ``entry`` of A, one per row.

        Bin c < nf is the diagonal (c, c), to which each iteration adds the
        bound rows' weights after the pairs. A bin on no pivot is added to K
        at (j, i), one on a pivot to that pivot's row of H, and one on two
        pivots to both rows. With no pivot, K is H and gets H's bits. Z'HZ
        is H on the other columns plus, for each entry (p, j) of a pivot row
        and its mirror (j, p) when j is not a pivot, Z[p, u] Z[j, v] times
        it at (u, v), u >= v."""
        me = a.shape[0]
        pivots, self.coefs = a.indices[entry], a.data[entry]
        is_pivot = np.zeros(nf, dtype=bool)
        is_pivot[pivots] = True
        others = (~is_pivot).nonzero()[0]
        nr, square = others.size, others.size**2
        perm = np.concatenate([others, pivots])
        place = np.empty(nf, dtype=np.intp)  # each column's position in the permuted order
        place[perm] = np.arange(nf)

        # where the block sums H at permuted (r, c): K at (r, c), or row r - nr of H's pivot rows
        start, stride = np.arange(nf), np.full(nf, nr)
        start[nr:], stride[nr:] = square + nf * np.arange(me), 1
        # Z's pivot rows: x_p = (b_r - sum_{j != p} a_rj x_j) / a_rp. A
        # pivot is private, so the only pivot entry in its row is its own.
        # The members come by row, so by pivot
        member = np.ones(row_of.size, dtype=bool)
        member[entry] = False
        e, u = row_of[member], place[a.indices[member]]
        z_vals = -a.data[member] / self.coefs[e]
        self.subst = np.zeros((me, nr))
        self.subst[e, u] = z_vals
        # Z by permuted rows, as CSR arrays: a 1.0 on each other column, then the pivots' members
        ptr = np.zeros(nf + 1, dtype=np.intp)
        ptr[1 : nr + 1] = 1
        ptr[nr + 1 :] = np.bincount(e, minlength=me)
        ptr.cumsum(out=ptr)
        z = ptr, np.concatenate([np.arange(nr), u]), np.concatenate([np.ones(nr), z_vals])
        # P on the other columns and in the pivot rows (P[j, p] is P[p, j]),
        # then the bins: (j, i) is a lower entry unless a pivot is involved
        p_row, p_col, p_val = p_entries
        p_row, p_col = place[p_row], place[p_col]
        p_in = (p_row >= nr) | (p_col < nr)
        i, j = place[bin_cols[0]], place[bin_cols[1]]
        on_pivots = i >= nr, j >= nr
        r = np.where(on_pivots[0] > on_pivots[1], i, j)
        twice = (on_pivots[0] & on_pivots[1] & (i != j)).nonzero()[0]
        rows = np.concatenate([p_row[p_in], r, i[twice]])
        hp_at = start[rows] + stride[rows] * np.concatenate([p_col[p_in], i + j - r, j[twice]])
        self.p_val = p_val[p_in]
        self.p_at, self.at = hp_at[: self.p_val.size], hp_at[self.p_val.size :]
        # H's pivot rows through Z: each entry a bin or P can make nonzero, and its mirror
        nonzero = np.zeros(me * nf, dtype=bool)
        nonzero[hp_at[hp_at >= square] - square] = True
        src = nonzero.nonzero()[0]
        e, col = np.divmod(src, nf)
        e += nr  # the pivot rows' permuted positions
        mirror = (col < nr).nonzero()[0]
        term, s, t, coef = _through(np.concatenate([e, col[mirror]]), np.concatenate([col, e[mirror]]), *z)
        # the terms by position in K, in term order within each
        route = s + t * nr
        by = route.astype(np.min_scalar_type(square)).argsort(kind="stable")  # radix for 16 bits or fewer
        route = route[by]
        new = np.ones(route.size + 1, dtype=bool)  # where each position's terms start, and the end
        new[1:-1] = route[1:] != route[:-1]
        indptr = new.nonzero()[0]
        self.routes = _Csr(
            (indptr.size - 1, square + me * nf), indptr,
            square + np.concatenate([src, src[mirror]])[term[by]], coef[by],
        )
        self.route_at = route[indptr[:-1]]
        self.order = np.concatenate([perm, np.arange(nf, nf + me)])
        self.pairs, self.which = pairs, np.concatenate([np.arange(i.size), twice])
        self.a_t = np.zeros((nf, me))
        self.a_t[a.indices, row_of] = a.data
        self.nf, self.nr, self.mi = nf, nr, pairs.shape[1] - 2 * nf  # pairs' columns are G_all's rows
        self.block = np.empty(square + me * nf)
        self.k = self.block[:square].reshape((nr, nr), order="F")  # views: factored in place
        self.hp = self.block[square:].reshape((me, nf))
        # the right-hand side and the step in the permuted order
        self.r, self.dp = np.empty(nf + me), np.empty(nf + me)
        self.t, self.x_e = np.empty(nf), np.empty(me)
        self.sums, self.routed = np.empty(pairs.shape[0]), np.empty(self.route_at.size)

    def factor(self, w: np.ndarray) -> bool:
        """Factor the reduced block for the weights ``w``; False if it is not numerically positive definite."""
        block, sums, nf, mi = self.block, self.sums, self.nf, self.mi
        block.fill(0.0)
        block[self.p_at] = self.p_val
        _copy_product(self.pairs, w, sums)
        sums[:nf] += w[mi : mi + nf]  # the bound rows, lower side first, after the pairs
        sums[:nf] += w[mi + nf :]
        block[self.at] += sums[self.which]
        _copy_product(self.routes, block, self.routed)
        block[self.route_at] += self.routed
        return not _potrf(self.k, lower=1, clean=0, overwrite_a=1)[1]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Overwrite the right-hand side [r_x; r_y] with [dx; dy], and return it."""
        k, nr, nf, dp, subst, coefs = self.k, self.nr, self.nf, self.dp, self.subst, self.coefs
        r = rhs.take(self.order, 0, self.r)
        x_e = np.divide(r[nf:], coefs, self.x_e)
        t = np.subtract(r[:nf], x_e.dot(self.hp, self.t), self.t)  # r_x - H x_e: H is symmetric
        # each triangular solve runs in place: every vector is a contiguous float64 view
        du = t[nr:].dot(subst, dp[:nr])
        du += t[:nr]  # Z't
        _trtrs(k, du, lower=1, overwrite_b=1)
        _trtrs(k, du, lower=1, trans=1, overwrite_b=1)
        np.add(subst.dot(du, dp[nr:nf]), x_e, dp[nr:nf])
        dy = np.subtract(r[nr:nf], self.hp.dot(dp[:nf], dp[nf:]), dp[nf:])
        dy /= coefs
        rhs[self.order] = dp
        return rhs


def _interior_point(red: _Reduced, cutoff: float, start: tuple | None = None):
    """Mehrotra predictor-corrector on the reduced problem, from a fixed
    interior point or from the warm ``start`` (``QpSolution._start``).

    The inequality rows and both sides of the variable bounds form one
    stacked system G_all x + s = h_all, that is Gx + s = h, -x + s_l = -lo
    and x + s_u = hi, with slacks s >= 0 and multipliers z >= 0. The
    buffers (the iterate [x; y; s; z], its direction, the products,
    residuals, Newton weights and complementarity targets) are allocated
    once per call, those of the Newton loop at its first step, and written
    in place, so the views into them stay valid. The call ends "infeasible"
    only when the Farkas bound at the iterate's multipliers
    (``certified_infeasible``) is above 0, taken at a stall, where a call
    it does not decide keeps iterating, and when the iterates do not
    converge, where such a call ends "max-iterations". Before either, and
    on each iteration whose objective has reached ``cutoff``, the call ends
    with status "cutoff" if the certified lower bound (``cutoff_bound``)
    has reached it too. A call on the LU path then tries the active-set
    termination step (``polish``) on a guess it has not tried, with the
    repairs it names, and ends with status "polished" if one succeeds.
    Iterates that do not converge end "optimal" at their best iterate,
    before the Farkas bound, when it lies within their accuracy floor (see
    the module docstring).
    Returns ``(x, y, s, z, iterations, status, bound)``, with that bound
    for a cutoff and -inf otherwise.
    """
    p, c, g, a, b = red.p, red.c, red.g, red.a, red.b
    nf, mi, me = c.size, red.h.size, b.size
    n_cone = mi + 2 * nf
    n_xy, n_p = nf + me, n_cone + me
    g_all = _stacked(g, nf)
    # dense products write into their buffer; a CSR product is copied there.
    # times_t(m_t, v, out) writes m'v: from a view of a dense m, from a CSR m's own arrays
    if isinstance(g, np.ndarray):
        times, times_t, g_all_t = np.ndarray.dot, np.ndarray.dot, g_all.T
    else:
        times, times_t, g_all_t = _copy_product, _copy_product_t, g_all
    # [-c; h_all; b], the right-hand side of the KKT system ``polish`` solves:
    # one max-abs reduction gives both loop-invariant norms
    kkt_rhs = np.empty(nf + n_p)
    h_all = kkt_rhs[nf : nf + n_cone]
    np.negative(c, kkt_rhs[:nf])
    h_all[:mi] = red.h
    np.negative(red.lo, h_all[mi : mi + nf])
    h_all[mi + nf :] = red.hi
    kkt_rhs[nf + n_cone :] = b
    norm_c, norm_hb = np.maximum.reduceat(np.abs(kkt_rhs), [0, nf]).tolist()

    def iterate() -> tuple:
        """Buffers for an iterate [x; y; s; z] and its measures, as views:
        the iterate, x, y, s, z; then [G_all x; A x], [Px; G_all'z; A'y]
        (the terms of r_d) and [r_p; r_e] in one buffer, so that one max-abs
        reduction gives the three norms, with its views gx, ax, px, gz, ay,
        r_p and r_e; then r_d."""
        state, sums = np.zeros(n_xy + 2 * n_cone), np.empty(2 * n_p + 3 * nf)
        ay, res = sums[n_p + 2 * nf : n_p + 3 * nf], sums[n_p + 3 * nf :]
        if not me:  # A'y of no rows; a call without them skips all equality-row work
            ay.fill(0.0)
        return (
            state, state[:nf], state[nf:n_xy], state[n_xy : n_xy + n_cone], state[n_xy + n_cone :],
            sums, sums[:n_cone], sums[n_cone:n_p], sums[n_p : n_p + nf], sums[n_p + nf : n_p + 2 * nf], ay,
            res[:n_cone], res[n_cone:], np.empty(nf),
        )

    abs_sums, starts = np.empty(2 * n_p + 3 * nf), np.array([0, n_p, n_p + 3 * nf])

    def measure(point: tuple) -> tuple:
        """Write the products and residuals of the ``iterate()`` buffers
        ``point``; return mu, the objective, the primal residual's norm and
        the primal, dual and complementarity scales."""
        _, x, y, s, z, sums, gx, ax, px, gz, ay, r_p, r_e, r_d = point
        p.dot(x, px)
        times_t(g_all_t, z, gz)
        np.add(px, c, r_d)
        np.add(r_d, gz, r_d)
        if me:  # r_d is never -0.0 (gz sums + z_u, z_u > 0), so adding 0.0 would change no bit
            a_t.dot(y, ay)
            np.add(r_d, ay, r_d)
        times(g_all, x, gx)
        np.add(gx, s, r_p)
        np.subtract(r_p, h_all, r_p)
        if me:
            times(a, x, ax)
            np.subtract(ax, b, r_e)
        mu = float(s.dot(z)) / n_cone
        obj = 0.5 * float(x.dot(px)) + float(c.dot(x))  # scaling by 0.5 is exact
        # residuals relative to the terms that make them up
        norm_gax, norm_terms, prim = np.maximum.reduceat(np.abs(sums, abs_sums), starts).tolist()
        return mu, obj, prim, 1.0 + max(norm_gax, norm_hb), 1.0 + max(norm_terms, norm_c), 1.0 + abs(obj)

    own = iterate()
    state, x, y, s, z, _, gx, _, px, _, ay, r_p, r_e, r_d = own
    sz = state[n_xy:]
    if start is None:  # the cold point: the box's centre, z = 1 and s at least 1
        np.multiply(0.5, red.lo + red.hi, x)
        z.fill(1.0)
        times(g_all, x, gx)
        np.maximum(h_all - gx, 1.0, out=s)
    else:  # np.clip's result, without its Python-level wrapper, and the start's [s; z] at the call's rows
        (start_x, stored), n = start, red.x.size
        np.minimum(np.maximum(start_x[red.cols], red.lo, out=x), red.hi, out=x)
        rows = _stacked_rows(red.g_rows, red.cols, stored.shape[1] - 2 * n, n)
        stored.take(rows, 1, out=sz.reshape(2, n_cone), mode="clip")  # the rows are in range: no checked copy
    # a call on the LU path builds its _LuNewton at its first factorization,
    # so one that ends at its first test builds none; A' is C-ordered
    system = red.newton
    a_t = system.a_t if system is not None else red.a.T.copy() if me else red.a.T

    # the bounds at the iterate read Px and A'y from px and ay
    def cutoff_bound():
        """The certified lower bound on the objective at the current iterate
        if it reaches ``cutoff``, else None."""
        bound = _lagrangian_bound(red, a_t, z[:mi], y, ay, cutoff, x, px)
        return bound if bound >= cutoff else None

    def certified_infeasible() -> bool:
        """Whether the current iterate's multipliers prove the rows infeasible."""
        return _lagrangian_bound(red, a_t, z[:mi], y, ay, 0.0) > 0.0

    def newton(r_c):
        """[dx; dy; ds; dz] into ``direction`` for the complementarity target ``r_c``."""
        np.subtract(z_rp, r_c, t)
        np.divide(t, s, t)
        times_t(g_all_t, t, dx)
        np.subtract(neg_rd, dx, dx)
        if me:
            np.negative(r_e, dy)
        system.solve(dxy)
        times(g_all, dx, ds)  # ds = -r_p - G_all dx
        np.subtract(neg_rp, ds, ds)
        np.multiply(z, ds, dz)  # dz = (r_c + z ds) / (-s): the bits of (-r_c - z ds) / s
        np.add(r_c, dz, dz)
        np.divide(dz, neg_s, dz)

    eps = EPS_ABS
    # the polish's KKT matrix, row mask, iterate and next-guess mask, made at its first try
    kkt = keep = trial = kept = None
    tried = set()  # the bytes of every guess this call has tried

    def polish(first: np.ndarray, key: bytes) -> bool:
        """Whether a chain of active-set guesses, from ``first`` (a mask of
        G_all's rows, whose bytes are ``key``), reaches a point that passes
        the loop's own convergence test; the point is left in ``trial``.

        A guess's point solves the KKT system of its G_all rows, [[P,
        G_act', A'], [G_act, 0, 0], [A, 0, 0]] [x; z_act; y] = [-c; h_act;
        b], the restriction of the call's whole KKT system, whose transpose
        ``kkt`` holds (P' where P belongs), built at the first try. The
        point has s = h_all - G_all x, 0 on the guessed rows, and z = 0 off
        them. The next guess keeps the guessed rows with z >= 0 and adds
        the others with s < 0, a primal-dual active-set step (Hintermueller,
        Ito and Kunisch, SIAM J. Optim. 13, 2002): it is the guess itself
        exactly when z >= 0 and s >= 0, and the chain then ends: the point
        is taken if it passes the convergence test. Otherwise the next
        guess is tried at once, unless this call has tried it: a guess's
        point does not depend on the iterate. A singular system or a NaN
        ends the chain, and so does a guess whose G_all rows and equality
        rows outnumber the ``nf`` free columns, before LAPACK sees it: its
        system is singular by its shape, and rounding often hides the zero
        pivot from LAPACK, which then returns a point with huge entries."""
        nonlocal kkt, keep, trial, kept
        if kkt is None:
            kkt = np.zeros((nf + n_p, nf + n_p))
            kkt[:nf, :nf] = p.T
            kkt[:nf, nf : nf + n_cone] = g_all.T
            kkt[nf : nf + n_cone, :nf] = g_all
            if me:
                kkt[:nf, nf + n_cone :] = a_t
                kkt[nf + n_cone :, :nf] = a
            keep, trial = np.zeros(nf + n_p, dtype=bool), iterate()
            keep[:nf] = keep[nf + n_cone :] = True  # x and the equality rows, with the guess between
            kept = np.empty(n_cone, dtype=bool)
        _, x_t, y_t, s_t, z_t, *_, r_d_t = trial
        active = keep[nf : nf + n_cone]
        active[...] = first
        while True:
            on = active.nonzero()[0]
            if on.size + me > nf:  # more rows than free columns: singular by its shape
                return False
            point = _active_set_point(kkt, kkt_rhs, keep)
            # the squares sum to NaN exactly when an entry is NaN
            if point is None or math.isnan(point.dot(point)):
                return False
            z_on = point[nf : point.size - me]
            times(g_all, point[:nf], s_t)
            np.subtract(h_all, s_t, s_t)
            s_t[on] = 0.0
            # the next guess: the rows with s < 0 (none guessed) and the guessed rows with z >= 0
            np.less(s_t, 0.0, kept)
            kept[on] = z_on >= 0.0
            repaired = kept.tobytes()
            if repaired == key:  # z >= 0 and s >= 0
                x_t[...], y_t[...] = point[:nf], point[point.size - me :]
                z_t.fill(0.0)
                z_t[on] = z_on
                mu, _, prim, scale_p, scale_d, scale_c = measure(trial)
                return prim <= eps * scale_p and _norm(r_d_t) <= eps * scale_d and mu * n_cone <= eps * scale_c
            if repaired in tried:
                return False
            tried.add(key := repaired)
            active[...] = kept

    # the iterate nearest convergence among those whose primal residual and
    # complementarity are within 10 times the tolerance: its worst relative
    # measure and [x; y; s; z]
    best = (math.inf, None)
    floor = 10.0 * eps
    # the active-set guess s < z; the Newton loop's buffers are made at its first step
    polishing, guess, direction = red.newton is None, np.empty(n_cone, dtype=bool), None
    it = 0
    for it in range(1, MAX_ITER + 1):
        mu, obj, prim, scale_p, scale_d, scale_c = measure(own)
        gap = mu * n_cone
        worst = math.inf
        if prim <= floor * scale_p and gap <= floor * scale_c:
            dual = _norm(r_d)
            if prim <= eps * scale_p and dual <= eps * scale_d and gap <= eps * scale_c:
                return x, y, s, z, it - 1, "optimal", -math.inf
            worst = max(prim / scale_p, dual / scale_d, gap / scale_c)
        if obj >= cutoff and (bound := cutoff_bound()) is not None:
            return x, y, s, z, it - 1, "cutoff", bound
        if polishing and (key := np.less(s, z, guess).tobytes()) not in tried:
            tried.add(key)
            if polish(guess, key):
                return *trial[1:5], it - 1, "polished", -math.inf
        if worst < best[0]:
            best = worst, state.copy()
        if gap <= MU_FLOOR * scale_c:
            break
        if direction is None:
            direction = np.empty(state.size)  # [dx; dy; ds; dz]
            dxy, dx, dy = direction[:n_xy], direction[:nf], direction[nf:n_xy]
            dsz, ds, dz = direction[n_xy:], direction[n_xy : n_xy + n_cone], direction[n_xy + n_cone :]
            neg_rp, neg_s, t = np.empty(n_cone), np.empty(n_cone), np.empty(n_cone)
            neg_rd = np.empty(nf)
            # s * z, z * r_p, z / s and the corrector's r_c
            sz_prod, z_rp, weights, r_corr = np.empty(n_cone), np.empty(n_cone), np.empty(n_cone), np.empty(n_cone)
            shifted, ratio = np.empty(2 * n_cone), np.empty(2 * n_cone)  # sz + alpha * dsz, dsz / sz
            shifted_s, shifted_z = shifted[:n_cone], shifted[n_cone:]
            history = []  # relative primal residual and largest multiplier per iteration
        res_p, z_max = prim / scale_p, float(z[z.argmax()])
        history.append((res_p, z_max))
        if len(history) > STALL_ITERS:
            old_res, old_z = history[-1 - STALL_ITERS]
            if res_p > STALL_RATIO * old_res and z_max > STALL_GROWTH * old_z:
                if cutoff < math.inf and (bound := cutoff_bound()) is not None:
                    return x, y, s, z, it - 1, "cutoff", bound
                if certified_infeasible():
                    return x, y, s, z, it - 1, "infeasible", -math.inf
        if system is None:
            system = _LuNewton(red, g_all, a_t)
        if not system.factor(np.divide(z, s, weights)):
            break
        # the parts of the Newton right-hand side both solves share
        np.negative(r_d, neg_rd)
        np.multiply(s, z, sz_prod)
        np.multiply(z, r_p, z_rp)
        np.negative(r_p, neg_rp)
        np.negative(s, neg_s)
        # predictor: the affine-scaling direction sets Mehrotra's centering
        newton(sz_prod)
        alpha = min(1.0, _max_step(sz, dsz, ratio))
        np.add(sz, np.multiply(alpha, dsz, shifted), shifted)
        mu_aff = float(shifted_s.dot(shifted_z)) / n_cone
        sigma = (mu_aff / mu) ** 3
        # corrector: second-order term plus centering
        np.multiply(ds, dz, r_corr)
        np.add(sz_prod, r_corr, r_corr)
        newton(np.subtract(r_corr, sigma * mu, r_corr))
        # a fixed fraction to the boundary can cycle at small mu
        tau = min(max(0.9, 1.0 - 10.0 * mu), TAU_MAX)
        step = _max_step(sz, dsz, ratio)
        alpha = min(1.0, tau * step)
        # a dx that is not finite makes a ratio NaN, or -inf and the step 0
        if not (alpha > 1e-12 and not math.isnan(step)):
            break
        np.add(state, np.multiply(alpha, direction, direction), state)
    # a loop that ran out took Px and A'y before its last step
    p.dot(x, px)
    if me:
        a_t.dot(y, ay)
    if cutoff < math.inf and (bound := cutoff_bound()) is not None:
        return x, y, s, z, it, "cutoff", bound
    # iterates that stop unconverged at their accuracy floor, where further
    # steps only degrade the residuals, return the best one
    if best[0] <= floor:
        xy, sz = best[1][:n_xy], best[1][n_xy:]
        return xy[:nf], xy[nf:], sz[:n_cone], sz[n_cone:], it, "optimal", -math.inf
    return x, y, s, z, it, "infeasible" if certified_infeasible() else "max-iterations", -math.inf


def _lagrangian_bound(red: _Reduced, a_t: np.ndarray, z_g, y, ay, target: float, x=None, px=None) -> float:
    """A certified lower bound at the multipliers ``z_g`` >= 0 of G's rows
    and ``y`` of A's, or NaN if it does not reach ``target`` before its
    allowances are taken. ``ay`` is A'y, and ``a_t`` is A' as a C-ordered
    array.

    For z_G >= 0 and any y, the Lagrangian 0.5 x'Px + c'x + z_G'(Gx - h) +
    y'(Ax - b) bounds the objective from below on the feasible set, and so
    does its minimum over the box. The quadratic lies above its tangent at
    an iterate x, so that minimum is at least -0.5 x'Px - z_G'h - y'b +
    sum_i min(r_i lo_i, r_i hi_i), r = Px + c + G'z_G + A'y: the bound
    multipliers are not used, the box absorbs the dual residual whole
    (Neumaier and Shcherbina, Math. Prog. 99, 2004). Given ``x`` and ``px``
    = Px, this is the bound on the reduced problem's objective, as the
    presolve built that problem. Without them, P and c are dropped: the
    bound is then the least value over the box of z_G'(Gx - h) + y'(Ax -
    b). At a point of the box within the presolve's tolerance d = FEAS_TOL
    (1 + |rhs|) of every row that value is at most z_G'd_h + |y|'d_b, so a
    bound above 0 once that slack is subtracted proves that the rows have
    no such point (a Farkas certificate). An allowance for rounding is
    subtracted from both."""
    p, c, g, b = red.p, red.c, red.g, red.b
    nf, mi, me = c.size, red.h.size, b.size
    objective = x is not None
    r = np.empty(nf)  # G'z_G, then the dual residual
    if isinstance(g, np.ndarray):
        g.T.dot(z_g, r)
    else:
        _copy_product_t(g, z_g, r)
    if objective:
        np.add(np.add(px, c), r, r)
    np.add(r, ay, r)
    # the pairwise sum of np.add.reduce, whose bits the bound keeps
    box = np.add.reduce(np.minimum(r * red.lo, r * red.hi, out=r))
    quad = float(x.dot(px)) * 0.5 if objective else 0.0
    bound = float(box) - quad - float(z_g.dot(red.h)) - float(y.dot(b))
    if not bound >= target:
        return math.nan
    abs_y, abs_h, abs_b = np.abs(y), np.abs(red.h), np.abs(b)
    if isinstance(g, np.ndarray):
        r_abs = abs(g).T.dot(z_g)
    else:  # |G|'z_G from G's arrays, as |g|.T @ z_G of its scipy matrix sums it
        r_abs = np.empty(nf)
        _copy_product_t(g._replace(data=np.abs(g.data)), z_g, r_abs)
    quad_abs = 0.0
    if objective:
        abs_p, abs_x = np.abs(p), np.abs(x)
        r_abs = abs_p.dot(abs_x) + np.abs(c) + r_abs
        quad_abs = abs_x.dot(abs_p.dot(abs_x))
    r_abs = r_abs + np.abs(a_t).dot(abs_y)
    width = np.maximum(np.abs(red.lo), np.abs(red.hi))
    magnitude = quad_abs + z_g.dot(abs_h) + abs_y.dot(abs_b) + 2.0 * r_abs.dot(width)
    bound -= _rounding(nf + mi + me, float(magnitude))
    if not objective:
        bound -= FEAS_TOL * float(z_g.dot(1.0 + abs_h) + abs_y.dot(1.0 + abs_b))
    return bound


def _active_set_point(kkt: np.ndarray, rhs: np.ndarray, keep: np.ndarray) -> np.ndarray | None:
    """The solution of the rows and columns ``keep`` (a mask) of the KKT
    system ``kkt`` v = ``rhs``, or None if LAPACK finds them singular.

    ``kkt`` is C-ordered and holds the transpose of the system: the
    restriction, taken by one ``take`` per axis, is factored and solved in
    place through its F-ordered transpose, which is the restricted system,
    by one ``gesv`` call. The caller hands it no system with more
    constraint rows than columns (``polish``)."""
    rows = keep.nonzero()[0]
    _, _, point, info = _gesv(kkt.take(rows, 0).take(rows, 1).T, rhs.take(rows), 1, 1)  # overwrite a and b
    return None if info else point
