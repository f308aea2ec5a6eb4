"""Translation of a Scenario into a canonical mixed-integer quadratic program.

The assembled problem minimizes  x' Q x + c' x + const  subject to linear
inequalities, linear equalities, variable bounds and integrality of the
binary index set. Constraint rows carry a family tag (geometric,
reachability, region, trig, trim) so violations can be reported per family.

``VariableLayout`` alone knows where each block of variables sits: it keeps
every block (feet, yaws, sines, cosines, region binaries, the two segment
blocks, trims) as an array of positions in the vector, and ``assemble``, the
rounding heuristic and the planner's step extraction index with those arrays.

Footstep bounds are boxes read from each step's own rows: walked in step
order, every reference-box, reach and height-change row pair
|foot - e| <= lim  clips its foot to the range of  e  over the bounds fixed
so far, widened by lim. The reachability model is thus stated once, as rows:
each step's five expressions e (reference x and y, reach x and y, dz) are
one padded table of columns, values and constants, which both the walk and
the row pairs read.

All inequalities are collected first, then one pass over the final
variable bounds applies the big-M box rule. A row's box excess is its
largest  a.x - rhs  over the bounds (interval arithmetic). A row switched by
a region, trig-segment or trim binary b becomes  a.x + M b <= rhs + M,  with
M its box excess, so it binds when b = 1 and holds across the whole box when
b = 0. Every row the bounds already imply is dropped.

Rows are collected as blocks of entry arrays (row, column, value), and each
constraint family is one array pass: the region rows, hull rows and choice
equalities of every (step, region) pair at once, each chord table's rows
for one configuration, which every configuration takes from its own row of
the layout's yaw, sine, cosine and segment columns, every step's trim pins
and monotone row, and the row pairs of the expression
table, each row's columns sorted. The box rule writes the CSR matrix
straight from the entries: one ``np.bincount`` gives every row's excess,
the M of an indicator row is its last entry (binary columns follow every
continuous column), and the kept rows are cut by their row pointers. The
objective's terms are generated as arrays in the order of the term-by-term
sum and summed in that order; the walk sums each expression's range from
its constant in table order, as Python floats. Every problem is
bit-identical to the one built row by row and term by term
(``tools/ab_assemble.py``; the tests keep row-by-row references).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ContractViolation, DomainError, InfeasibleScenarioError
from .model import CONTAINS_TOL, Scenario, coc, derive_leg_goals, nominal_position, wrap_angle
from .pwl import PwlTable, build_table


@dataclass(frozen=True)
class VariableLayout:
    """Index map of the flat decision vector.

    The layout is the one owner of where each block sits: it lays the blocks
    out once, in order, and keeps each as a read-only array of 0-based
    positions in the vector:

    - ``feet`` (n_steps, 3): footstep coordinates x, y, z per step;
    - ``thetas``, ``sines``, ``cosines`` (n_configs,): yaw, sine, cosine per
      configuration;
    - ``regions`` (n_steps, n_regions): region binaries, step-major;
    - ``sin_segments``, ``cos_segments`` (n_configs, n_segments): sine, then
      cosine segment binaries, configuration-major;
    - ``trims`` (n_steps,): trim binaries.

    Callers index the vector with these arrays.
    """

    n_steps: int
    n_legs: int
    n_regions: int
    n_segments: int

    def __post_init__(self):
        if self.n_steps % self.n_legs != 0:
            raise ContractViolation(
                f"step count {self.n_steps} is not a multiple of n_legs {self.n_legs}"
            )
        steps, configs = self.n_steps, self.n_steps // self.n_legs
        size, named = 0, []
        # in layout order, each block with the prefix of its variable names
        for name, prefix, shape in (
            ("feet", "f", (steps, 3)), ("thetas", "th", (configs,)), ("sines", "s", (configs,)),
            ("cosines", "c", (configs,)), ("regions", "H", (steps, self.n_regions)),
            ("sin_segments", "S", (configs, self.n_segments)), ("cos_segments", "C", (configs, self.n_segments)),
            ("trims", "t", (steps,)),
        ):
            block = np.arange(size, size + math.prod(shape)).reshape(shape)
            block.setflags(write=False)
            object.__setattr__(self, name, block)
            named.append((prefix, block))
            size += block.size
        object.__setattr__(self, "n_configs", configs)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_named_blocks", tuple(named))

    @property
    def continuous_count(self) -> int:
        return self.feet.size + self.thetas.size + self.sines.size + self.cosines.size

    def binary_indices(self) -> np.ndarray:
        """All binary variable positions: the blocks from the region binaries on."""
        return np.arange(self.continuous_count, self.size)

    def var_name(self, index: int) -> str:
        """Stable human-readable name of a flat index (used by the MIP export)."""
        for prefix, block in self._named_blocks:
            if block.size and block.flat[0] <= index <= block.flat[-1]:
                at = [int(k) + 1 for k in np.unravel_index(index - block.flat[0], block.shape)]
                if prefix == "f":
                    return f"f{at[0]}{'xyz'[at[1] - 1]}"
                return prefix + "_".join(map(str, at))
        raise ContractViolation(f"index {index} outside layout of size {self.size}")


@dataclass(frozen=True, eq=False)
class MiqpProblem:
    """Canonical MIQP: minimize x'Qx + c'x + const over the constraint system."""

    q_matrix: sp.csr_matrix
    c_vector: np.ndarray
    objective_constant: float
    a_ineq: sp.csr_matrix
    b_ineq: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    binary_indices: np.ndarray
    layout: VariableLayout | None  # None for problems not built by ``assemble``
    ineq_families: tuple[str, ...]
    ineq_labels: tuple[str, ...]
    eq_families: tuple[str, ...]
    eq_labels: tuple[str, ...]

    @property
    def n_vars(self) -> int:
        return self.c_vector.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.b_ineq.shape[0]

    @property
    def n_eq(self) -> int:
        return self.b_eq.shape[0]

    def objective_value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ (self.q_matrix @ x) + self.c_vector @ x + self.objective_constant)

    def var_name(self, index: int) -> str:
        """The layout's name of a flat index, or ``x<index>`` without a layout."""
        return f"x{index}" if self.layout is None else self.layout.var_name(index)


class _RowBag:
    """Accumulates constraint rows in blocks of entry arrays.

    The bag keeps each block's nonzero entries (row, column, value) row by
    row, each row's columns ascending, next to each row's rhs, indicator
    binary (-1 for none), family and label.
    """

    def __init__(self):
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.vals: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []
        self.binaries: list[np.ndarray] = []
        self.families: list[str] = []
        self.labels: list[str] = []
        self.n_rows = 0

    def add(self, cols: np.ndarray, vals: np.ndarray, rhs, family: str, labels: list[str],
            binaries: np.ndarray | None = None) -> None:
        """Append the rows  a.x <= rhs  (or == rhs for equality bags) given as
        equal-width arrays of columns and values, each row's columns
        ascending and zero values padding. A row whose indicator
        ``binaries[r]`` is not -1 is enforced only when that binary is 1."""
        rows, slots = np.nonzero(vals)
        self.rows.append(rows + self.n_rows)
        self.cols.append(cols[rows, slots])
        self.vals.append(vals[rows, slots])
        self.rhs.append(np.asarray(rhs, dtype=float))
        self.binaries.append(np.full(len(labels), -1) if binaries is None else binaries)
        self.families += [family] * len(labels)
        self.labels += labels
        self.n_rows += len(labels)

    def _entries(self):
        return tuple(np.concatenate(part) for part in (self.rows, self.cols, self.vals, self.rhs))

    def matrix(self, n_vars: int) -> tuple[sp.csr_matrix, np.ndarray]:
        rows, cols, vals, rhs = self._entries()
        return _csr(vals, cols, _indptr(np.bincount(rows, minlength=self.n_rows)), n_vars), rhs

    def box_rule(self, lower: np.ndarray, upper: np.ndarray):
        """Matrix, rhs, families and labels of the rows kept by the big-M box rule.

        A row's box excess e is the M of its indicator b: the row becomes
        a.x + e b <= rhs + e.  Rows with e <= 1e-12 (e times the upper bound
        of b, so a binary pinned at 0 drops its rows) are implied and dropped.
        Binary columns follow every continuous column, so M is the last
        entry of its row.
        """
        rows, cols, vals, rhs = self._entries()
        binaries = np.concatenate(self.binaries)
        excess = _box_excess(rows, cols, vals, rhs, lower, upper)
        ind = binaries >= 0
        if ind.any() and cols[ind[rows]].max(initial=-1) >= binaries[ind].min():
            raise AssemblyError("an indicator row holds a column at or past its binary's")
        rhs = np.where(ind, rhs + excess, rhs)
        keep = np.where(ind, excess * upper[binaries], excess) > 1e-12
        indptr = _indptr((np.bincount(rows, minlength=self.n_rows) + ind)[keep])
        last = np.zeros(indptr[-1], dtype=bool)
        last[indptr[1:][ind[keep]] - 1] = True
        entry = keep[rows]
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=int)
        data[last], indices[last] = excess[keep & ind], binaries[keep & ind]
        data[~last], indices[~last] = vals[entry], cols[entry]
        kept = keep.tolist()
        return (
            _csr(data, indices, indptr, lower.shape[0]),
            rhs[keep],
            tuple(compress(self.families, kept)),
            tuple(compress(self.labels, kept)),
        )


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers of rows holding ``counts`` entries each."""
    return np.concatenate([[0], np.cumsum(counts)])


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """CSR matrix with 32-bit index arrays, as scipy builds one this size."""
    return sp.csr_matrix(
        (data, indices.astype(np.int32), indptr.astype(np.int32)), shape=(len(indptr) - 1, n_cols)
    )


def _box_excess(rows, cols, vals, rhs: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Per row of  a.x <= rhs,  the largest  a.x - rhs  across the box [lower, upper],
    for the entries (``rows``, ``cols``, ``vals``) of ``a`` in row order.

    Computed by interval arithmetic, which for a linear functional equals
    the maximum over the box corners.
    """
    lo, hi = lower[cols], upper[cols]
    unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
    if unbounded.any():
        raise AssemblyError(f"variable {cols[unbounded][0]} in a row has unbounded range")
    top = np.maximum(vals * lo, vals * hi)
    return np.bincount(rows, weights=top, minlength=rhs.shape[0]) - rhs


def scenario_tables(scenario: Scenario) -> tuple[PwlTable, PwlTable]:
    """Sine and cosine chord tables for the scenario's yaw range."""
    return (
        build_table("sin", scenario.theta_range, scenario.n_segments),
        build_table("cos", scenario.theta_range, scenario.n_segments),
    )


def _graph_hull_edges(knots: list[tuple[float, float]]) -> list[tuple[float, float, bool]]:
    """Edges (slope, intercept, is_upper) of the convex hull of a chord graph.

    ``knots`` are the table's (theta, value) points. Every chord segment
    connects consecutive knots, so the hull of the knots contains the whole
    piecewise-linear graph; the resulting rows are valid for any
    (theta, value) pair the segment constraints allow.
    """

    def half_hull(points):
        hull = []
        for p in points:
            while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
            ) >= 0:
                hull.pop()
            hull.append(p)
        return hull

    upper = half_hull(knots)
    lower = half_hull(list(reversed(knots)))
    edges = []
    for chain, is_upper in ((upper, True), (lower, False)):
        for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
            if abs(x1 - x0) < 1e-14:
                continue
            m = (y1 - y0) / (x1 - x0)
            edges.append((m, y0 - m * x0, is_upper))
    return edges


def _chord_rows(table: PwlTable, tag: str, th: int, val: int, seg0: int):
    """The trig rows of one configuration for one chord table.

    ``th``, ``val`` and ``seg0`` are the positions of the configuration's
    yaw, the table's value and its first segment binary in a row that lists
    the configuration's columns, the segments' positions following ``seg0``.
    Per segment: the rows  theta <= hi,  -theta <= -lo  and the chord pair,
    enforced by the segment's binary; then the envelope rows over the
    one-hot segment choice, implied for integral selections, and the rows of
    the chord graph's hull, which couple the value to theta for fractional
    choices as well. Returns the rows' positions and values (padded to
    1 + segments entries), rhs and binary positions (-1 for none), then
    their names.
    """
    k = table.n_segments
    t, m, n = table.breakpoints, table.slopes, table.intercepts
    v = table.eval(t)
    hull = np.array(_graph_hull_edges(list(zip(t.tolist(), v.tolist())))).reshape(-1, 3)
    n_rows = 4 * k + 4 + len(hull)
    cols = np.zeros((n_rows, 1 + k), dtype=int)
    vals = np.zeros((n_rows, 1 + k))
    rhs = np.zeros(n_rows)
    binaries = np.zeros(n_rows, dtype=int)
    cols[:, 0], cols[:, 1] = th, val
    # per segment: theta hi, theta lo, chord +, chord -
    seg_vals, seg_rhs = vals[: 4 * k].reshape(k, 4, -1), rhs[: 4 * k].reshape(k, 4)
    seg_vals[:, 0, 0], seg_vals[:, 1, 0], seg_vals[:, 2, 0], seg_vals[:, 3, 0] = 1.0, -1.0, -m, m
    seg_vals[:, 2, 1], seg_vals[:, 3, 1] = 1.0, -1.0
    seg_rhs[:, 0], seg_rhs[:, 1], seg_rhs[:, 2], seg_rhs[:, 3] = t[1:], -t[:-1], n, -n
    binaries[: 4 * k].reshape(k, 4)[:] = (seg0 + np.arange(k))[:, None]
    binaries[4 * k :] = -1
    env = slice(4 * k, 4 * k + 4)  # theta hi, theta lo, value hi, value lo
    cols[env, 0] = th, th, val, val
    vals[env, 0] = 1.0, -1.0, 1.0, -1.0
    cols[env, 1:] = seg0 + np.arange(k)
    vals[env, 1:] = -t[1:], t[:-1], -np.maximum(v[:-1], v[1:]), np.minimum(v[:-1], v[1:])
    is_upper = hull[:, 2] > 0
    sign = 2.0 * is_upper - 1.0
    vals[4 * k + 4 :, 0], vals[4 * k + 4 :, 1] = -sign * hull[:, 0], sign
    rhs[4 * k + 4 :] = sign * hull[:, 1]
    names = [
        f"{tag} seg {s} {part}" for s in range(1, k + 1)
        for part in ("theta hi", "theta lo", "chord +", "chord -")
    ]
    names += [f"{tag} envelope {side}" for side in ("theta hi", "theta lo", "value hi", "value lo")]
    names += [f"{tag} hull {'upper' if up else 'lower'} {e}" for e, up in enumerate(is_upper.tolist())]
    return (cols, vals, rhs, binaries), names


def _quadratic_terms(cols: np.ndarray, vals: np.ndarray, consts: np.ndarray, weight: np.ndarray):
    """The terms of  e' W e  for each item of a batch of stacked expressions
    e = vals . x[cols] + consts.

    ``cols`` and ``vals`` are (items, k, width), zero values padding, and
    ``consts`` is (items, k). The terms come in the order of the loop over
    items, then the nonzero weights w = W[a, b] in row-major order, then the
    coefficients (ca, va) of e_a and (cb, vb) of e_b: Q gets (w va) vb at
    (ca, cb); c gets (w va) const_b at each ca, then (w const_a) vb at each
    cb; the constant gets (w const_a) const_b. Returns the Q terms' rows,
    columns and values, the c terms' columns and values, and the constant's
    terms.
    """
    a, b = np.nonzero(weight)
    w = weight[a, b]
    va, vb, ca, cb = vals[:, a], vals[:, b], cols[:, a], cols[:, b]
    wa, wc = w[:, None] * va, w * consts[:, a]
    q_vals = wa[..., :, None] * vb[..., None, :]
    q_in = (va[..., :, None] != 0.0) & (vb[..., None, :] != 0.0)
    c_in = np.concatenate([va, vb], axis=2) != 0.0
    return (
        np.broadcast_to(ca[..., :, None], q_vals.shape)[q_in],
        np.broadcast_to(cb[..., None, :], q_vals.shape)[q_in],
        q_vals[q_in],
        np.concatenate([ca, cb], axis=2)[c_in],
        np.concatenate([wa * consts[:, b, None], wc[..., None] * vb], axis=2)[c_in],
        (wc * consts[:, b]).ravel(),
    )


def assemble(scenario: Scenario) -> MiqpProblem:
    """Build the complete mixed-integer quadratic program for ``scenario``."""
    robot = scenario.robot
    n = robot.n_legs
    n_steps = scenario.max_steps
    n_regions = len(scenario.regions)
    if n_regions == 0:
        raise AssemblyError("scenario has no safe regions")

    sin_table, cos_table = scenario_tables(scenario)
    layout = VariableLayout(n_steps, n, n_regions, scenario.n_segments)
    n_vars = layout.size
    lo_t, hi_t = scenario.theta_range

    # ---- bounds -----------------------------------------------------------
    # Chord values interpolate the function at the knots, so each trig
    # variable lives between the extreme knot values; footstep coordinates
    # start at the workspace box and are clipped by their own rows below.
    s_knots, c_knots = np.sin(sin_table.breakpoints), np.cos(cos_table.breakpoints)
    s_rng = (float(s_knots.min()), float(s_knots.max()))
    c_rng = (float(c_knots.min()), float(c_knots.max()))
    lower, upper = np.zeros(n_vars), np.ones(n_vars)  # the binaries' bounds
    for block, lo, hi in (
        (layout.feet, *scenario.workspace_box), (layout.thetas, lo_t, hi_t),
        (layout.sines, *s_rng), (layout.cosines, *c_rng),
    ):
        lower[block], upper[block] = lo, hi

    # ---- start configuration constants ------------------------------------
    start = scenario.start_footholds
    start_coc = coc(start)
    start_nominal = np.array(
        [nominal_position(start_coc, scenario.start_yaw, j + 1, robot) for j in range(n)]
    )

    # ---- (a) geometric and (b) reachability rows, and the footstep boxes --
    # Each step has row pairs  |foot(i, c) - e| <= lim:  (a) the reference
    # box around its own nominal foothold (l_bnd), (b) the reach box around
    # its leg's previous nominal foothold or start stance (d_lim) and the
    # height change from its leg's previous z (dz_max). Walked in step order,
    # each e reads only earlier steps, so its range over the bounds fixed so
    # far clips foot(i, c) to [min e - lim, max e + lim]. Every feasible
    # footstep satisfies these rows (trimming keeps them active), so the
    # clipped boxes are valid bounds; they keep every big-M derived from them
    # small, and an empty one proves the step unplaceable.
    steps = np.arange(n_steps)
    feet = layout.feet
    # each step's five e (reference x, y, reach x, y, dz) as one table of
    # columns, values (zero padding) and constants. A linearized nominal
    # foothold holds its CoC window's feet, the n - 1 steps before it, each
    # over the window size, then its leg's cosine and sine terms:
    # cos(theta + phi) = c cos(phi) - s sin(phi)  and  sin(theta + phi) =
    # s cos(phi) + c sin(phi);  the window's start feet are summed into the
    # constant in window order. No e holds its own step's foot.
    size = n - 1
    scale = 1.0 / size
    window = steps[:, None] - n + 1 + np.arange(size)  # steps below 0 are start feet
    real = window >= 0
    e_cols = np.zeros((n_steps, 5, size + 2), dtype=int)
    e_vals = np.zeros(e_cols.shape)
    e_consts = np.zeros((n_steps, 5))
    e_cols[:, :2, :size] = np.where(real[:, None], feet[window, :2].transpose(0, 2, 1), 0)
    e_vals[:, :2, :size] = np.where(real, scale, 0.0)[:, None]
    # (a sum from 0.0 never reaches -0.0, so the real feet's 0.0 terms leave it as is)
    start_terms = np.where(real[:, None], 0.0, scale * start[window % n, :2].transpose(0, 2, 1))
    e_consts[:, :2] = np.cumsum(
        np.concatenate([np.zeros((n_steps, 2, 1)), start_terms], axis=2), axis=2
    )[..., -1]
    legs = steps % n
    l_cos = robot.l_leg * np.array([math.cos(phi) for phi in robot.leg_offsets])[legs]
    l_sin = robot.l_leg * np.array([math.sin(phi) for phi in robot.leg_offsets])[legs]
    # x: the cosine, then the sine column; y: the sine, then the cosine
    trig = np.column_stack([layout.cosines, layout.sines])[steps // n]
    e_cols[:, 0, size:], e_cols[:, 1, size:] = trig, trig[:, ::-1]
    e_vals[:, 0, size:] = np.column_stack([l_cos, -l_sin])
    e_vals[:, 1, size:] = np.column_stack([l_cos, l_sin])
    # the reach box is the reference box of the leg's previous step, or its start stance
    e_cols[n:, 2:4], e_vals[n:, 2:4], e_consts[n:, 2:4] = e_cols[:-n, :2], e_vals[:-n, :2], e_consts[:-n, :2]
    e_consts[:n, 2:4] = start_nominal
    e_cols[n:, 4, 0], e_vals[n:, 4, 0], e_consts[:n, 4] = feet[:-n, 2], 1.0, start[:, 2]
    e_feet = feet[:, [0, 1, 0, 1, 2]]
    lims = np.array([robot.l_bnd, robot.l_bnd, robot.d_lim, robot.d_lim, robot.dz_max], dtype=float)
    # the walk reads and writes the bounds as Python floats, each e's range
    # summed from its constant in table order
    # (``min(a, b)`` is b only when b < a, ``max(a, b)`` b only when b > a:
    # the comparisons below pick the same float, sign of a zero included)
    lo, hi = lower.tolist(), upper.tolist()
    for cols, vals, e_lo, col, lim in zip(
        e_cols.reshape(-1, size + 2).tolist(), e_vals.reshape(-1, size + 2).tolist(),
        *(a.ravel().tolist() for a in (e_consts, e_feet, np.broadcast_to(lims, e_consts.shape))),
    ):
        e_hi = e_lo
        for c, v in zip(cols, vals):
            if v != 0.0:
                a, b = v * lo[c], v * hi[c]
                e_lo += b if b < a else a
                e_hi += b if b > a else a
        if e_lo - lim > lo[col]:
            lo[col] = e_lo - lim
        if e_hi + lim < hi[col]:
            hi[col] = e_hi + lim
    lower, upper = np.array(lo), np.array(hi)
    empty = (lower[feet] > upper[feet]).any(axis=1)
    if empty.any():
        raise InfeasibleScenarioError(
            f"step {np.argmax(empty) + 1} has no reachable position inside the workspace box"
        )
    # every inequality goes into one bag; ``ineq.box_rule`` sets the big-M
    # of each indicator row and drops the implied rows over the final
    # bounds, so the region and trim pins below reach every row
    ineq = _RowBag()
    eq = _RowBag()
    step_names = [f"step {i} " for i in range(1, n_steps + 1)]  # each step's label prefix
    # the rows  foot - e <= lim  and  e - foot <= lim  of each e: the foot's
    # entry and -e, in column order; all reference-box rows first, then each
    # step's reach and dz rows
    cols = np.concatenate([e_cols, e_feet[..., None]], axis=2)
    vals = np.concatenate([-e_vals, np.ones((n_steps, 5, 1))], axis=2)
    order = np.argsort(cols, axis=2)
    cols = np.take_along_axis(cols, order, axis=2).repeat(2, axis=1)
    vals = np.take_along_axis(vals, order, axis=2)
    vals = np.stack([vals, -vals], axis=2).reshape(cols.shape)
    rhs = np.stack([lims + e_consts, lims - e_consts], axis=2).reshape(n_steps, 10)
    for family, part, names in (
        ("geometric", slice(0, 4), ("ref box +x", "ref box -x", "ref box +y", "ref box -y")),
        ("reachability", slice(4, 10), ("reach +x", "reach -x", "reach +y", "reach -y", "dz +", "dz -")),
    ):
        ineq.add(
            cols[:, part].reshape(-1, size + 3), vals[:, part].reshape(-1, size + 3), rhs[:, part].ravel(),
            family, [step + name for step in step_names for name in names],
        )

    # ---- goal footholds (trim targets / goal cost), region membership gate -
    goals = derive_leg_goals(scenario.goal_position, scenario.goal_yaw, robot)
    halfspaces = np.vstack([reg.a_matrix for reg in scenario.regions])
    b_all = np.concatenate([reg.b_vector for reg in scenario.regions])
    first_rows = np.cumsum([0] + [reg.n_rows for reg in scenario.regions[:-1]])
    # each foothold's largest violation of each region (SafeRegion.violation)
    # from one product over every region's rows
    worst = np.maximum.reduceat(goals @ halfspaces.T - b_all, first_rows, axis=1)
    inside = (worst <= CONTAINS_TOL).any(axis=1)
    if not inside.all():
        j = int(np.argmin(inside))  # the first leg outside every region
        raise InfeasibleScenarioError(
            f"goal foothold of leg {j + 1} at {goals[j].tolist()} lies outside every safe region"
        )

    # ---- (c) safe-region assignment with per-row big-M ---------------------
    # a region some halfspace  a.x <= b  of which excludes a step's whole box
    # (its negation  -a.x <= -b  has a negative box excess) can never host
    # that step: its binary is pinned to 0 and its big-M rows are omitted
    n_half = b_all.shape[0]
    region_of = np.repeat(np.arange(n_regions), [reg.n_rows for reg in scenario.regions])
    outside = _box_excess(
        np.arange(n_steps * n_half).repeat(3),
        feet.repeat(n_half, axis=0).ravel(),
        np.concatenate([-halfspaces.ravel()] * n_steps),
        np.concatenate([-b_all] * n_steps), lower, upper,
    ).reshape(n_steps, n_half)
    excluded = np.minimum.reduceat(outside, first_rows, axis=1) < -1e-12
    upper[layout.regions[excluded]] = 0.0
    eq.add(layout.regions, np.ones(layout.regions.shape), np.ones(n_steps), "region",
           [f"step {i} region choice" for i in range(1, n_steps + 1)])
    stuck = np.flatnonzero(excluded.all(axis=1))
    if stuck.size:
        raise InfeasibleScenarioError(
            f"step {stuck[0] + 1} cannot reach any safe region inside its bounds"
        )
    # each step's candidate rows: every region halfspace, live where its
    # region can host the step, then, when every region carries a bounding
    # box, hull rows (+x, -x, +y, -y, +z, -z) confining the footstep to the
    # H-weighted mix of region boxes, which tighten the relaxation without
    # cutting any integral point
    add_hull = all(reg.bbox is not None for reg in scenario.regions)
    n_cand = n_half + 6 * add_hull
    cols = np.zeros((n_steps, n_cand, max(3, 1 + n_regions) if add_hull else 3), dtype=int)
    vals = np.zeros(cols.shape)
    rhs = np.zeros(n_cand)
    binaries = np.full((n_steps, n_cand), -1)
    live = np.ones((n_steps, n_cand), dtype=bool)
    cols[:, :n_half, :3] = feet[:, None]
    vals[:, :n_half, :3] = halfspaces
    rhs[:n_half] = b_all
    binaries[:, :n_half] = layout.regions[:, region_of]
    live[:, :n_half] = ~excluded[:, region_of]
    names = [f"in {reg.name} row {row}" for reg in scenario.regions for row in range(reg.n_rows)]
    if add_hull:
        box_lo, box_hi = (np.array([reg.bbox[side] for reg in scenario.regions]) for side in (0, 1))
        cols[:, n_half:, 0] = feet.repeat(2, axis=1)
        cols[:, n_half:, 1 : 1 + n_regions] = layout.regions[:, None]
        vals[:, n_half:, 0] = 1.0, -1.0, 1.0, -1.0, 1.0, -1.0
        vals[:, n_half:, 1 : 1 + n_regions] = np.concatenate([-box_hi.T, box_lo.T], axis=1).reshape(6, -1)
        names += [f"region hull {sign}{tag}" for tag in "xyz" for sign in "+-"]
    step_of, cand = np.nonzero(live)
    ineq.add(
        cols[live], vals[live], rhs[cand], "region",
        [step_names[i] + names[k] for i, k in zip(step_of.tolist(), cand.tolist())],
        binaries[live],
    )

    # ---- (d) piecewise-linear trig segment selection ------------------------
    # one configuration's rows per table, on positions in a row of
    # ``local``, which lists each configuration's yaw, sine, cosine and
    # segment columns; every configuration takes them from its own row
    n_seg, n_cfg = scenario.n_segments, layout.n_configs
    local = np.column_stack([layout.thetas, layout.sines, layout.cosines, layout.sin_segments, layout.cos_segments])
    (sin_rows, sin_names), (cos_rows, cos_names) = (
        _chord_rows(sin_table, "sin", 0, 1, 3),
        _chord_rows(cos_table, "cos", 0, 2, 3 + n_seg),
    )
    cols, vals, rhs, binaries = map(np.concatenate, zip(sin_rows, cos_rows))
    ineq.add(
        local[:, cols].reshape(-1, 1 + n_seg),
        np.concatenate([vals] * n_cfg), np.concatenate([rhs] * n_cfg), "trig",
        [config + name for config in (f"config {c} " for c in range(1, n_cfg + 1)) for name in sin_names + cos_names],
        np.where(binaries >= 0, local[:, binaries], -1).ravel(),
    )
    choice = np.stack([layout.sin_segments, layout.cos_segments], axis=1).reshape(-1, n_seg)
    eq.add(choice, np.ones(choice.shape), np.ones(len(choice)), "trig",
           [f"config {c} {tag} segment choice" for c in range(1, n_cfg + 1) for tag in ("sin", "cos")])

    # ---- (e) trimming: pin trimmed steps to leg goals, monotone per leg ----
    # a step whose goal foothold lies outside its reachable box (or whose
    # configuration cannot take the goal yaw) can never be trimmed; fixing
    # those binaries up front removes their reward from the relaxation
    yaw_ok = lo_t - 1e-9 <= scenario.goal_yaw <= hi_t + 1e-9
    step_goals = np.concatenate([goals] * n_cfg)
    inside = (lower[feet] - 1e-9 <= step_goals) & (step_goals <= upper[feet] + 1e-9)
    can_trim = yaw_ok & inside.all(axis=1)
    # trims are monotone per leg, so a step can be trimmed only if every
    # later step of its leg can
    later = np.logical_and.accumulate(can_trim.reshape(-1, n)[::-1], axis=0)[::-1]
    trims = layout.trims
    upper[trims[~later.ravel()]] = 0.0
    # each step's rows: pins of its foot to its leg's goal and of its
    # configuration's yaw to the goal yaw, enforced by its trim binary,
    # then the monotone row  t_i <= t_{i+n}  while step i + n exists
    pins = tuple(f"trim pin {pin}" for pin in ("+x", "+y", "+z", "-x", "-y", "-z", "+yaw", "-yaw"))
    cols = np.zeros((n_steps, 9, 2), dtype=int)
    vals = np.zeros((n_steps, 9, 2))
    rhs = np.zeros((n_steps, 9))
    binaries = np.zeros((n_steps, 9), dtype=int)
    cols[:, 0:3, 0] = cols[:, 3:6, 0] = feet
    cols[:, 6:8, 0] = layout.thetas[steps // n, None]
    vals[:, :8, 0] = 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, -1.0
    cols[:, 8, 0], cols[:-n, 8, 1] = trims, trims[n:]
    vals[:, 8] = 1.0, -1.0
    goal_yaw = float(scenario.goal_yaw)
    rhs[:, 0:3], rhs[:, 3:6], rhs[:, 6], rhs[:, 7] = step_goals, -step_goals, goal_yaw, -goal_yaw
    binaries[:, :8], binaries[:, 8] = trims[:, None], -1
    live = np.ones((n_steps, 9), dtype=bool)
    live[n_steps - n :, 8] = False
    labels = []
    for i in range(1, n_steps + 1):
        labels += [step_names[i - 1] + pin for pin in pins]
        if i + n <= n_steps:
            labels.append(f"trim monotone {i} <= {i + n}")
    ineq.add(cols[live], vals[live], rhs[live], "trim", labels, binaries[live])

    # ---- objective ---------------------------------------------------------
    # final-configuration goal cost over (x, y, z, yaw), one item per step:
    # each of its coordinates and the last yaw minus their goals
    last = np.arange(n_steps - n, n_steps)
    goal_cols = np.empty((n, 4, 1), dtype=int)
    goal_cols[:, :3, 0], goal_cols[:, 3, 0] = feet[last], layout.thetas[-1]
    goal_consts = np.empty((n, 4))
    goal_consts[:, :3], goal_consts[:, 3] = -step_goals[last], -goal_yaw
    goal = _quadratic_terms(goal_cols, np.ones((n, 4, 1)), goal_consts, scenario.q_goal)
    # CoC drift between consecutive configurations (xy), one item per
    # configuration: its mean footstep minus the previous one's; the first
    # configuration's previous CoC is the start's, a constant
    cfg_feet = feet[:, :2].reshape(n_cfg, n, 2).transpose(0, 2, 1)
    drift_vals = np.empty((n_cfg, 2, 2 * n))
    drift_vals[:, :, :n], drift_vals[:, :, n:] = 1.0 / n, -(1.0 / n)
    drift_vals[0, :, n:] = 0.0  # padding
    drift_consts = np.zeros((n_cfg, 2))
    drift_consts[0] = 0.0 + -start_coc
    drift = _quadratic_terms(
        np.concatenate([cfg_feet, cfg_feet[np.arange(n_cfg) - 1]], axis=2),
        drift_vals, drift_consts, scenario.q_r,
    )
    # every term summed in the loop's order; the trim reward goes to c too
    c_vector = np.bincount(
        np.concatenate([goal[3], trims, drift[3]]),
        np.concatenate([goal[4], np.full(n_steps, float(scenario.q_t)), drift[4]]),
        minlength=n_vars,
    )
    constant = float(np.cumsum(np.concatenate([[0.0], goal[5], drift[5]]))[-1])
    keys, at = np.unique(np.concatenate([goal[0], drift[0]]) * n_vars + np.concatenate([goal[1], drift[1]]),
                         return_inverse=True)
    q_vals = np.bincount(at, np.concatenate([goal[2], drift[2]]), minlength=keys.size)
    # Q = (q + q') / 2: each key (i, j), and the key (j, i) of its mirror,
    # sums q_ij + q_ji; keys in row-major order are CSR order, and a zero
    # sum is dropped
    rows, cols = np.divmod(keys, n_vars)
    keys, at = np.unique(np.concatenate([keys, cols * n_vars + rows]), return_inverse=True)
    q_sym = np.bincount(at, weights=np.concatenate([q_vals, q_vals]), minlength=keys.size)
    nz = q_sym != 0.0
    q_matrix = _csr(
        0.5 * q_sym[nz], keys[nz] % n_vars, _indptr(np.bincount(keys[nz] // n_vars, minlength=n_vars)), n_vars
    )

    a_ineq, b_ineq, ineq_families, ineq_labels = ineq.box_rule(lower, upper)
    a_eq, b_eq = eq.matrix(n_vars)
    return MiqpProblem(
        q_matrix=q_matrix,
        c_vector=c_vector,
        objective_constant=constant,
        a_ineq=a_ineq,
        b_ineq=b_ineq,
        a_eq=a_eq,
        b_eq=b_eq,
        lower=lower,
        upper=upper,
        binary_indices=layout.binary_indices(),
        layout=layout,
        ineq_families=ineq_families,
        ineq_labels=ineq_labels,
        eq_families=tuple(eq.families),
        eq_labels=tuple(eq.labels),
    )


def make_rounding_heuristic(scenario: Scenario, problem: MiqpProblem):
    """Model-aware integral completion used by the branch-and-bound heuristic.

    Rounds a relaxation solution to a consistent binary assignment: trim
    chains are closed per leg (monotone suffixes), configurations containing
    a trimmed step take the goal yaw, trig segments are chosen from the yaw
    value, and each step's region is the one nearest its relaxed position
    (the indicator value breaks ties, then the lower region number). At the
    root the same completion also finishes two straight walks toward the
    goal. Node fixings are respected; infeasible completions are simply
    rejected by the re-fix solve.

    Each completion is a few array passes over the layout's index blocks:
    one product over every region's rows gives the step-by-region violation
    matrix, and the picks are array reductions with the tie rules above.
    The completions with and without trims of one relaxed point share every
    pick that does not read the trims: the fixings' masks, the region picks
    and the segment picks at the relaxed yaws. The trims change only the
    segments of the configurations they send to the goal yaw. The sine and
    cosine tables share their breakpoints, so one ``segment_of`` serves both.
    """
    layout = problem.layout
    sin_table = build_table("sin", scenario.theta_range, scenario.n_segments)
    n = layout.n_legs
    n_steps, n_configs = layout.n_steps, layout.n_configs
    lo_t, hi_t = scenario.theta_range
    goal_yaw = float(scenario.goal_yaw)
    # each leg's chain of steps from the tail inward, legs in order (0-based)
    chains = np.arange(n_steps).reshape(n_configs, n)[::-1].T.ravel()
    trim_idx, theta_idx, region_idx, foot_idx = layout.trims, layout.thetas, layout.regions, layout.feet
    chain_keys = trim_idx[chains].tolist()
    # [configuration, sin or cos, segment]
    seg_idx = np.stack([layout.sin_segments, layout.cos_segments], axis=1)
    k = np.arange(layout.n_segments)
    a_all = np.vstack([region.a_matrix for region in scenario.regions])
    b_all = np.concatenate([region.b_vector for region in scenario.regions])[:, None]
    first_row = np.cumsum([0] + [region.n_rows for region in scenario.regions])[:-1]
    pinned = problem.lower == problem.upper
    open_up = problem.upper > 0.0
    # without fixings every binary is free, no segment is taken and every open region is allowed
    open_r, no_one = open_up[region_idx], np.zeros(problem.n_vars, dtype=bool)
    all_s, all_r = np.ones(seg_idx.shape, dtype=bool), np.ones(region_idx.shape, dtype=bool)
    none_taken = np.zeros((n_configs, 2), dtype=bool)
    every_key = chain_keys + seg_idx.ravel().tolist() + region_idx.ravel().tolist()

    def goal_segment() -> int | None:
        """The goal yaw's segment, or None when it lies outside the tables."""
        try:
            return sin_table.segment_of(goal_yaw)
        except DomainError:
            return None

    def picks(x: np.ndarray, fixings: dict[int, float]):
        """The picks of ``complete`` that read no trim, for both completions."""
        value = np.where(pinned, problem.lower, x)
        if fixings:
            fixed = np.full(problem.n_vars, np.nan)  # NaN where not fixed
            free = np.ones(problem.n_vars, dtype=bool)
            keys = np.fromiter(fixings.keys(), dtype=int, count=len(fixings))
            value[keys] = fixed[keys] = np.fromiter(fixings.values(), dtype=float, count=len(fixings))
            free[keys] = False
            one, allowed = fixed == 1.0, ~(fixed == 0.0) & open_up
            one_s, allowed_s = one[seg_idx], allowed[seg_idx]
            taken, one_at, any_s = one_s.any(axis=2), one_s.argmax(axis=2), allowed_s.any(axis=2)
            allowed_r, one_r = allowed[region_idx], one[region_idx]
            free_s, free_r = free[seg_idx], free[region_idx]
            keys = chain_keys + seg_idx[free_s].tolist() + region_idx[free_r].tolist()
        else:
            one, taken, allowed_r, free_s, free_r, keys = no_one, none_taken, open_r, all_s, all_r, every_key

        def segments(home: np.ndarray) -> np.ndarray:
            """Each segment pick, from the segment ``home`` holding its yaw: a
            segment fixed to 1 stands; else ``home``, or the nearest open one
            (the lower on a tie) when ``home`` is fixed to 0. Without
            fixings the pick is ``home``."""
            if not fixings:
                return home
            nearest = np.where(allowed_s, np.abs(k - home[..., None]), k.size).argmin(axis=2)
            at = np.take_along_axis(seg_idx, home[..., None], axis=2)[..., 0]
            moved = (fixed[at] == 0.0) & any_s
            return np.where(taken, one_at, np.where(moved, nearest, home))

        # the region geometrically closest to the relaxed position; the
        # indicator value breaks ties, then the lower region number. One
        # product over every region's rows gives each row the dot product
        # ``SafeRegion.violation`` takes (the rounding tests compare the
        # candidates with a per-region reference)
        violation = np.maximum.reduceat(a_all @ x[foot_idx].T - b_all, first_row, axis=0).T
        closest = allowed_r & (violation == np.where(allowed_r, violation, np.inf).min(axis=1, keepdims=True))
        tie_value = np.where(closest, value[region_idx], -np.inf)
        best = closest & (tie_value == tie_value.max(axis=1, keepdims=True))
        region = np.where(allowed_r.any(axis=1), best.argmax(axis=1), -1)
        if fixings:
            region = np.where(one_r.any(axis=1), one_r.argmax(axis=1), region)
        region_on = (np.arange(layout.n_regions) == region[:, None])[free_r]
        theta = np.minimum(np.maximum(x[theta_idx], lo_t), hi_t)
        # a relaxed yaw that is not NaN lies in the tables once clipped
        home = sin_table.segment_of(theta) if not np.isnan(theta).any() else None
        shared = None if home is None else segments(np.repeat(home[:, None], 2, axis=1))

        def complete(with_trims: bool) -> dict[int, float]:
            # trim suffixes per leg, honoring monotonicity from the tail
            # inward; a trim ``assemble`` pinned to 0 (goal yaw or goal
            # foothold out of reach) reads as its bound
            want = value[trim_idx] > 0.5 if with_trims else one[trim_idx]
            trimmed = np.logical_and.accumulate(want.reshape(n_configs, n)[::-1], axis=0)[::-1]
            to_goal = trimmed.any(axis=1)
            if shared is not None and not to_goal.any():
                segment = shared
            elif shared is not None and (goal := goal_segment()) is not None:
                segment = np.where(to_goal[:, None], segments(np.full(shared.shape, goal)), shared)
            else:  # a yaw outside the tables: each table locates (and rejects) it
                yaw = np.where(to_goal, goal_yaw, theta)
                home_t = np.zeros((n_configs, 2), dtype=int)
                for t, table in enumerate((sin_table, build_table("cos", scenario.theta_range, scenario.n_segments))):
                    home_t[~taken[:, t], t] = table.segment_of(yaw[~taken[:, t]])
                segment = segments(home_t)
            on = np.concatenate([trimmed.ravel()[chains], (k == segment[..., None])[free_s], region_on])
            out = dict(fixings)
            out.update(zip(keys, np.where(on, 1.0, 0.0).tolist()))
            return out

        return complete

    robot = scenario.robot
    start_coc = coc(scenario.start_footholds)
    goal_xy = scenario.goal_position[:2]
    # travel per configuration is limited by the window-lagged reference box
    speed_budget = 0.5 * (robot.d_lim + robot.l_bnd - robot.l_leg / max(n - 1, 1))

    def straight_walk(stride_factor: float) -> dict[int, float]:
        """Walk the CoC straight at the goal while ramping the yaw, feet at
        their nominal positions at the goal height, nothing trimmed."""
        direction = goal_xy - start_coc
        dist = float(np.linalg.norm(direction))
        direction = direction / dist if dist > 1e-12 else np.zeros(2)
        want_turn = wrap_angle(goal_yaw - scenario.start_yaw)
        turn_rate = min(
            0.3 * speed_budget / robot.l_leg,
            abs(want_turn) / max(n_configs - 1, 1),
        )
        travels, thetas = [], []
        travel = 0.0
        for cfg in range(1, n_configs + 1):
            stride = max(stride_factor * speed_budget - robot.l_leg * turn_rate, 0.15 * speed_budget)
            travel = min(travel + stride, dist)
            turn = min(max(want_turn, -turn_rate * cfg), turn_rate * cfg)
            travels.append(travel)
            thetas.append(min(max(scenario.start_yaw + turn, lo_t), hi_t))
        # each foot at ``nominal_position``, row by row in the same operations
        angles = [theta + phi for theta in thetas for phi in robot.leg_offsets]
        offset = robot.l_leg * np.array([[math.cos(a), math.sin(a)] for a in angles])
        coc_xy = start_coc + np.array(travels)[:, None] * direction
        x = np.zeros(problem.n_vars)
        x[theta_idx] = thetas
        x[foot_idx[:, :2]] = np.repeat(coc_xy, n, axis=0) + offset
        x[foot_idx[:, 2]] = scenario.goal_position[2]
        return picks(x, {})(with_trims=False)

    def candidates(x: np.ndarray, fixings: dict[int, float]) -> list[dict[int, float]]:
        complete = picks(x, fixings)
        tries = [complete(with_trims=True), complete(with_trims=False)]
        if not fixings:
            tries += [straight_walk(1.0), straight_walk(0.8)]
        outs = []
        for cand in tries:
            if cand not in outs:
                outs.append(cand)
        return outs

    return candidates


@dataclass(frozen=True)
class Violation:
    family: str
    kind: str  # "ineq" | "eq" | "bound" | "integrality"
    index: int
    amount: float
    label: str


@dataclass(frozen=True)
class AssignmentReport:
    """Constraint violations of a candidate assignment, grouped by family."""

    violations: tuple[Violation, ...]
    tol: float
    family_worst: dict[str, float]

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, family: str | None = None) -> int:
        if family is None:
            return len(self.violations)
        return sum(1 for v in self.violations if v.family == family)

    def summary(self) -> str:
        lines = [f"violations beyond tol={self.tol:g}: {len(self.violations)}"]
        for fam in sorted(self.family_worst):
            lines.append(f"  {fam:<12} worst={self.family_worst[fam]:.3e}")
        for v in self.violations[:20]:
            lines.append(f"  [{v.family}] {v.label}: {v.amount:.3e}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def validate_assignment(problem: MiqpProblem, x, tol: float = 1e-6) -> AssignmentReport:
    """Report every constraint row, bound and integrality condition violated beyond tol."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != problem.n_vars:
        raise ContractViolation(f"assignment has {x.shape[0]} entries, expected {problem.n_vars}")
    violations: list[Violation] = []
    worst: dict[str, float] = {}

    def note(family: str, kind: str, index: int, amount: float, label: str) -> None:
        worst[family] = max(worst.get(family, 0.0), amount)
        if amount > tol:
            violations.append(Violation(family, kind, index, amount, label))

    resid = problem.a_ineq @ x - problem.b_ineq
    for i in np.nonzero(resid > 0)[0]:
        note(problem.ineq_families[i], "ineq", int(i), float(resid[i]), problem.ineq_labels[i])
    for fam in set(problem.ineq_families):
        worst.setdefault(fam, 0.0)
    eq_resid = np.abs(problem.a_eq @ x - problem.b_eq)
    for i in np.nonzero(eq_resid > 0)[0]:
        note(problem.eq_families[i], "eq", int(i), float(eq_resid[i]), problem.eq_labels[i])
    # NaN fails every comparison below, so each non-finite entry is
    # reported here, once, as outside its (finite) bounds
    finite = np.isfinite(x)
    name = problem.var_name
    for i in np.flatnonzero(~finite):
        note("bounds", "bound", int(i), math.inf, f"{name(int(i))} not finite")
    low = problem.lower - x
    high = x - problem.upper
    for i in np.flatnonzero((low > 0) & finite):
        note("bounds", "bound", int(i), float(low[i]), f"{name(int(i))} below lower")
    for i in np.flatnonzero((high > 0) & finite):
        note("bounds", "bound", int(i), float(high[i]), f"{name(int(i))} above upper")
    worst.setdefault("bounds", 0.0)
    frac = np.minimum(np.abs(x[problem.binary_indices]), np.abs(x[problem.binary_indices] - 1.0))
    for pos, i in enumerate(problem.binary_indices):
        if frac[pos] > 0 and finite[i]:
            note("integrality", "integrality", int(i), float(frac[pos]), f"{name(int(i))} not 0/1")
    worst.setdefault("integrality", 0.0)
    return AssignmentReport(tuple(violations), tol, worst)
