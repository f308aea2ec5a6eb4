"""Translation of a Scenario into a canonical mixed-integer quadratic program.

The assembled problem minimizes  x' Q x + c' x + const  subject to linear
inequalities, linear equalities, variable bounds and integrality of the
binary index set. Constraint rows carry a family tag (geometric,
reachability, region, trig, trim) so violations can be reported per family.

Footstep bounds are boxes read from each step's own rows: walked in step
order, every reference-box, reach and height-change row pair
|foot - e| <= lim  clips its foot to the range of  e  over the bounds fixed
so far, widened by lim. The reachability model is thus stated once, as rows.

All inequalities are collected first, then one pass over the final
variable bounds applies the big-M box rule. A row's box excess is its
largest  a.x - rhs  over the bounds (interval arithmetic). A row switched by
a region, trig-segment or trim binary b becomes  a.x + M b <= rhs + M,  with
M its box excess, so it binds when b = 1 and holds across the whole box when
b = 0. Every row the bounds already imply is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ContractViolation, InfeasibleScenarioError
from .model import Scenario, coc, derive_leg_goals, leg_of, nominal_position, wrap_angle
from .pwl import PwlTable, build_table

_COMP = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class VariableLayout:
    """Index map of the flat decision vector.

    Order: footstep coordinates (x, y, z per step), yaw / sine / cosine per
    configuration, region binaries (step-major), sine segment binaries
    (configuration-major), cosine segment binaries, trim binaries. Steps,
    configurations, regions, segments and legs are all 1-based here, matching
    the planning domain; returned indices are 0-based positions in the vector.
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

    @cached_property
    def n_configs(self) -> int:
        return self.n_steps // self.n_legs

    # block starts
    @cached_property
    def _theta0(self) -> int:
        return 3 * self.n_steps

    @cached_property
    def _sin0(self) -> int:
        return self._theta0 + self.n_configs

    @cached_property
    def _cos0(self) -> int:
        return self._sin0 + self.n_configs

    @cached_property
    def _region0(self) -> int:
        return self._cos0 + self.n_configs

    @cached_property
    def _sinseg0(self) -> int:
        return self._region0 + self.n_steps * self.n_regions

    @cached_property
    def _cosseg0(self) -> int:
        return self._sinseg0 + self.n_configs * self.n_segments

    @cached_property
    def _trim0(self) -> int:
        return self._cosseg0 + self.n_configs * self.n_segments

    @cached_property
    def size(self) -> int:
        return self._trim0 + self.n_steps

    @property
    def continuous_count(self) -> int:
        return self._region0

    @property
    def binary_count(self) -> int:
        return self.size - self._region0

    def foot(self, step: int, comp) -> int:
        c = _COMP[comp] if isinstance(comp, str) else int(comp)
        self._check(step, self.n_steps, "step")
        return 3 * (step - 1) + c

    def theta(self, config: int) -> int:
        self._check(config, self.n_configs, "config")
        return self._theta0 + config - 1

    def sin(self, config: int) -> int:
        self._check(config, self.n_configs, "config")
        return self._sin0 + config - 1

    def cos(self, config: int) -> int:
        self._check(config, self.n_configs, "config")
        return self._cos0 + config - 1

    def region(self, step: int, region: int) -> int:
        self._check(step, self.n_steps, "step")
        self._check(region, self.n_regions, "region")
        return self._region0 + (step - 1) * self.n_regions + region - 1

    def sin_segment(self, config: int, segment: int) -> int:
        self._check(config, self.n_configs, "config")
        self._check(segment, self.n_segments, "segment")
        return self._sinseg0 + (config - 1) * self.n_segments + segment - 1

    def cos_segment(self, config: int, segment: int) -> int:
        self._check(config, self.n_configs, "config")
        self._check(segment, self.n_segments, "segment")
        return self._cosseg0 + (config - 1) * self.n_segments + segment - 1

    def trim(self, step: int) -> int:
        self._check(step, self.n_steps, "step")
        return self._trim0 + step - 1

    def binary_indices(self) -> np.ndarray:
        """All binary variable positions: the blocks from the region binaries on."""
        return np.arange(self._region0, self.size)

    def var_name(self, index: int) -> str:
        """Stable human-readable name of a flat index (used by the MIP export)."""
        if index < self._theta0:
            step, c = divmod(index, 3)
            return f"f{step + 1}{'xyz'[c]}"
        if index < self._sin0:
            return f"th{index - self._theta0 + 1}"
        if index < self._cos0:
            return f"s{index - self._sin0 + 1}"
        if index < self._region0:
            return f"c{index - self._cos0 + 1}"
        if index < self._sinseg0:
            step, r = divmod(index - self._region0, self.n_regions)
            return f"H{step + 1}_{r + 1}"
        if index < self._cosseg0:
            cfg, k = divmod(index - self._sinseg0, self.n_segments)
            return f"S{cfg + 1}_{k + 1}"
        if index < self._trim0:
            cfg, k = divmod(index - self._cosseg0, self.n_segments)
            return f"C{cfg + 1}_{k + 1}"
        if index < self.size:
            return f"t{index - self._trim0 + 1}"
        raise ContractViolation(f"index {index} outside layout of size {self.size}")

    @staticmethod
    def _check(value: int, limit: int, what: str) -> None:
        if not 1 <= value <= limit:
            raise ContractViolation(f"{what} {value} outside 1..{limit}")


@dataclass(frozen=True)
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
    layout: VariableLayout
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


class _LinExpr:
    """Sparse linear expression  sum(coef * x[col]) + const."""

    __slots__ = ("coefs", "const")

    def __init__(self, coefs: dict[int, float] | None = None, const: float = 0.0):
        self.coefs = dict(coefs) if coefs else {}
        self.const = float(const)

    def add(self, col: int, coef: float) -> "_LinExpr":
        if coef != 0.0:
            self.coefs[col] = self.coefs.get(col, 0.0) + coef
        return self

    def add_expr(self, other: "_LinExpr", scale: float = 1.0) -> "_LinExpr":
        for col, coef in other.coefs.items():
            self.add(col, scale * coef)
        self.const += scale * other.const
        return self

    def scaled(self, scale: float) -> "_LinExpr":
        return _LinExpr({c: v * scale for c, v in self.coefs.items()}, self.const * scale)

    def minus(self, other: "_LinExpr") -> "_LinExpr":
        out = _LinExpr(self.coefs, self.const)
        return out.add_expr(other, -1.0)

    def bounds(self, lower: np.ndarray, upper: np.ndarray) -> tuple[float, float]:
        """Least and largest value across the box [lower, upper], by the
        interval arithmetic of ``_box_excess``."""
        lo = hi = self.const
        for col, coef in self.coefs.items():
            a, b = coef * lower[col], coef * upper[col]
            lo += min(a, b)
            hi += max(a, b)
        return lo, hi


class _RowBag:
    """Accumulates sparse constraint rows with family/label metadata."""

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.rhs: list[float] = []
        self.families: list[str] = []
        self.labels: list[str] = []
        self.binaries: list[int] = []

    def add(self, expr: _LinExpr, rhs: float, family: str, label: str, binary: int = -1) -> None:
        """Append the row  expr <= rhs  (or == rhs for equality bags); an
        inequality with an indicator ``binary`` is enforced only when it is 1."""
        r = len(self.rhs)
        for col, coef in sorted(expr.coefs.items()):
            if coef != 0.0:
                self.rows.append(r)
                self.cols.append(col)
                self.vals.append(coef)
        self.rhs.append(rhs - expr.const)
        self.families.append(family)
        self.labels.append(label)
        self.binaries.append(binary)

    def matrix(self, n_vars: int) -> tuple[sp.csr_matrix, np.ndarray]:
        a = sp.csr_matrix((self.vals, (self.rows, self.cols)), shape=(len(self.rhs), n_vars))
        return a, np.asarray(self.rhs, dtype=float)

    def box_rule(self, lower: np.ndarray, upper: np.ndarray):
        """Matrix, rhs, families and labels of the rows kept by the big-M box rule.

        A row's box excess e is the M of its indicator b: the row becomes
        a.x + e b <= rhs + e.  Rows with e <= 1e-12 (e times the upper bound
        of b, so a binary pinned at 0 drops its rows) are implied and dropped.
        """
        a, rhs = self.matrix(lower.shape[0])
        excess = _box_excess(a, rhs, lower, upper)
        binaries = np.asarray(self.binaries)
        ind = np.flatnonzero(binaries >= 0)
        binary = binaries[ind]
        rhs[ind] += excess[ind]
        a = a + sp.csr_matrix((excess[ind], (ind, binary)), shape=a.shape)
        excess[ind] *= upper[binary]
        keep = np.flatnonzero(excess > 1e-12)
        families = tuple(self.families[k] for k in keep)
        return a[keep], rhs[keep], families, tuple(self.labels[k] for k in keep)


def _box_excess(a: sp.spmatrix, rhs: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Per row of  a.x <= rhs,  the largest  a.x - rhs  across the box [lower, upper].

    Computed by interval arithmetic, which for a linear functional equals
    the maximum over the box corners.
    """
    a = a.tocoo()
    lo, hi = lower[a.col], upper[a.col]
    unbounded = ~(np.isfinite(lo) & np.isfinite(hi))
    if unbounded.any():
        raise AssemblyError(f"variable {a.col[unbounded][0]} in a row has unbounded range")
    top = np.maximum(a.data * lo, a.data * hi)
    return np.bincount(a.row, weights=top, minlength=a.shape[0]) - rhs


def scenario_tables(scenario: Scenario) -> tuple[PwlTable, PwlTable]:
    """Sine and cosine chord tables for the scenario's yaw range."""
    return (
        build_table("sin", scenario.theta_range, scenario.n_segments),
        build_table("cos", scenario.theta_range, scenario.n_segments),
    )


def _coc_window(step: int, n_legs: int, convention: str) -> tuple[range, int]:
    """Step indices (possibly <= 0, meaning start footholds) averaged for the CoC."""
    if convention == "include-current":
        return range(step - n_legs + 1, step + 1), n_legs
    return range(step - n_legs + 1, step), n_legs - 1


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


def assemble(scenario: Scenario) -> MiqpProblem:
    """Build the complete mixed-integer quadratic program for ``scenario``."""
    robot = scenario.robot
    n = robot.n_legs
    n_steps = scenario.max_steps
    if n_steps % n != 0:
        raise ContractViolation("max_steps must be a multiple of n_legs")
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
    s_rng = (float(np.min(np.sin(sin_table.breakpoints))), float(np.max(np.sin(sin_table.breakpoints))))
    c_rng = (float(np.min(np.cos(cos_table.breakpoints))), float(np.max(np.cos(cos_table.breakpoints))))
    box_lo, box_hi = scenario.workspace_box
    # in layout order: feet, then yaw / sine / cosine blocks, then binaries
    lower = np.concatenate([
        np.tile(box_lo, n_steps), np.repeat([lo_t, s_rng[0], c_rng[0]], layout.n_configs),
        np.zeros(layout.binary_count),
    ])
    upper = np.concatenate([
        np.tile(box_hi, n_steps), np.repeat([hi_t, s_rng[1], c_rng[1]], layout.n_configs),
        np.ones(layout.binary_count),
    ])

    # ---- start configuration constants ------------------------------------
    start = scenario.start_footholds
    start_coc = coc(start)
    start_nominal = np.array(
        [nominal_position(start_coc, scenario.start_yaw, j + 1, robot) for j in range(n)]
    )

    def foot_expr(step: int, comp: int) -> _LinExpr:
        """Coordinate of a (possibly virtual, step <= 0) footstep."""
        if step >= 1:
            return _LinExpr({layout.foot(step, comp): 1.0})
        leg = (step - 1) % n + 1
        return _LinExpr(const=start[leg - 1][comp])

    def coc_expr(step: int, comp: int) -> _LinExpr:
        window, divisor = _coc_window(step, n, scenario.coc_convention)
        out = _LinExpr()
        for k in window:
            out.add_expr(foot_expr(k, comp), 1.0 / divisor)
        return out

    def nominal_expr(step: int, comp: int) -> _LinExpr:
        """Linearized nominal foothold using the shared per-configuration trig vars."""
        cfg = (step - 1) // n + 1
        phi = robot.leg_offsets[leg_of(step, n) - 1]
        out = coc_expr(step, comp)
        s_idx, c_idx = layout.sin(cfg), layout.cos(cfg)
        if comp == 0:  # cos(theta + phi) = c*cos(phi) - s*sin(phi)
            out.add(c_idx, robot.l_leg * math.cos(phi))
            out.add(s_idx, -robot.l_leg * math.sin(phi))
        else:  # sin(theta + phi) = s*cos(phi) + c*sin(phi)
            out.add(s_idx, robot.l_leg * math.cos(phi))
            out.add(c_idx, robot.l_leg * math.sin(phi))
        return out

    # ---- (a) geometric and (b) reachability rows, and the footstep boxes --
    # Each step has row pairs  |foot(i, c) - e| <= lim:  (a) the reference
    # box around its own nominal foothold (l_bnd), (b) the reach box around
    # its leg's previous nominal foothold or start stance (d_lim) and the
    # height change from its leg's previous z (dz_max). Walked in step order,
    # each e without foot(i, c) reads only earlier steps, so its range over
    # the bounds fixed so far clips foot(i, c) to [min e - lim, max e + lim].
    # Every feasible footstep satisfies these rows (trimming keeps them
    # active), so the clipped boxes are valid bounds; they keep every big-M
    # derived from them small, and an empty one proves the step unplaceable.
    nominal = {}
    pairs = []  # (family, label, tag, step, comp, e, lim)
    for i in range(1, n_steps + 1):
        prev = i - n
        first = len(pairs)
        for comp, tag in ((0, "x"), (1, "y")):
            nominal[i, comp] = nominal_expr(i, comp)
            pairs.append(("geometric", f"step {i} ref box", tag, i, comp, nominal[i, comp], robot.l_bnd))
        for comp, tag in ((0, "x"), (1, "y")):
            if prev >= 1:
                anchor = nominal[prev, comp]
            else:
                anchor = _LinExpr(const=start_nominal[leg_of(i, n) - 1][comp])
            pairs.append(("reachability", f"step {i} reach", tag, i, comp, anchor, robot.d_lim))
        pairs.append(("reachability", f"step {i} dz", "", i, 2, foot_expr(prev, 2), robot.dz_max))
        for *_, comp, e, lim in pairs[first:]:
            col = layout.foot(i, comp)
            # under include-current the reference box's own nominal holds the foot
            if col not in e.coefs:
                e_lo, e_hi = e.bounds(lower, upper)
                lower[col] = max(lower[col], e_lo - lim)
                upper[col] = min(upper[col], e_hi + lim)
        feet = slice(layout.foot(i, 0), layout.foot(i, 2) + 1)
        if np.any(lower[feet] > upper[feet]):
            raise InfeasibleScenarioError(
                f"step {i} has no reachable position inside the workspace box"
            )

    # ---- goal footholds (trim targets / goal cost), region membership gate -
    goals = derive_leg_goals(scenario.goal_position, scenario.goal_yaw, robot)
    for j in range(n):
        if not any(reg.contains(goals[j]) for reg in scenario.regions):
            raise InfeasibleScenarioError(
                f"goal foothold of leg {j + 1} at {goals[j].tolist()} lies outside every safe region"
            )

    # every inequality goes into one bag; ``ineq.box_rule`` sets the big-M
    # of each indicator row and drops the implied rows from the final
    # bounds, so a bound changed below (region and trim pins) must be set
    # before any row on its column is added
    ineq = _RowBag()
    eq = _RowBag()
    # all reference-box rows first, then each step's reach and dz rows
    for family in ("geometric", "reachability"):
        for fam, label, tag, i, comp, e, lim in pairs:
            if fam == family:
                diff = foot_expr(i, comp).minus(e)
                ineq.add(diff, lim, family, f"{label} +{tag}")
                ineq.add(diff.scaled(-1.0), lim, family, f"{label} -{tag}")

    # ---- (c) safe-region assignment with per-row big-M ---------------------
    # when every region carries a bounding box, hull rows confine each
    # footstep to the H-weighted mix of region boxes, tightening the
    # relaxation without cutting any integral point
    region_boxes = [reg.bbox for reg in scenario.regions]
    add_hull = all(b is not None for b in region_boxes)
    # a region some halfspace  a.x <= b  of which excludes a step's whole box
    # (its negation  -a.x <= -b  has a negative box excess) can never host
    # that step: its binary is pinned to 0 and its big-M rows are omitted
    halfspaces = np.vstack([reg.a_matrix for reg in scenario.regions])
    outside = sp.kron(sp.identity(n_steps), -halfspaces, format="coo")
    outside_rhs = np.tile(-np.concatenate([reg.b_vector for reg in scenario.regions]), n_steps)
    first_rows = np.cumsum([0] + [reg.n_rows for reg in scenario.regions[:-1]])
    excess = _box_excess(outside, outside_rhs, lower, upper).reshape(n_steps, -1)
    excluded = np.minimum.reduceat(excess, first_rows, axis=1) < -1e-12
    upper[layout.region(1, 1) + np.flatnonzero(excluded)] = 0.0
    for i in range(1, n_steps + 1):
        choice = _LinExpr({layout.region(i, r): 1.0 for r in range(1, n_regions + 1)})
        eq.add(choice, 1.0, "region", f"step {i} region choice")
        if excluded[i - 1].all():
            raise InfeasibleScenarioError(
                f"step {i} cannot reach any safe region inside its bounds"
            )
        for r in np.flatnonzero(~excluded[i - 1]):
            reg = scenario.regions[r]
            for row, (a_row, b) in enumerate(zip(reg.a_matrix, reg.b_vector)):
                coefs = {layout.foot(i, comp): a_row[comp] for comp in range(3)}
                label = f"step {i} in {reg.name} row {row}"
                ineq.add(_LinExpr(coefs), b, "region", label, layout.region(i, r + 1))
        if add_hull:
            for comp, tag in ((0, "x"), (1, "y"), (2, "z")):
                hi_expr = _LinExpr({layout.foot(i, comp): 1.0})
                lo_expr = _LinExpr({layout.foot(i, comp): -1.0})
                for r in range(1, n_regions + 1):
                    lo_r, hi_r = region_boxes[r - 1]
                    hi_expr.add(layout.region(i, r), -float(hi_r[comp]))
                    lo_expr.add(layout.region(i, r), float(lo_r[comp]))
                ineq.add(hi_expr, 0.0, "region", f"step {i} region hull +{tag}")
                ineq.add(lo_expr, 0.0, "region", f"step {i} region hull -{tag}")

    # ---- (d) piecewise-linear trig segment selection ------------------------
    # per table: each segment's knots, chord and value range, and the hull
    # edges of the whole chord graph; every configuration shares them
    chords = []
    for table, tag, val_of, seg_of in (
        (sin_table, "sin", layout.sin, layout.sin_segment),
        (cos_table, "cos", layout.cos, layout.cos_segment),
    ):
        knots = [(float(t), table.eval(float(t))) for t in table.breakpoints]
        segments = [
            (t0, t1, float(m_k), float(n_k), min(v0, v1), max(v0, v1))
            for (t0, v0), (t1, v1), m_k, n_k in zip(knots, knots[1:], table.slopes, table.intercepts)
        ]
        chords.append((tag, val_of, seg_of, segments, _graph_hull_edges(knots)))
    for cfg in range(1, layout.n_configs + 1):
        th = layout.theta(cfg)
        for tag, val_of, seg_of, segments, hull in chords:
            val_idx = val_of(cfg)
            choice = _LinExpr({seg_of(cfg, k): 1.0 for k in range(1, len(segments) + 1)})
            eq.add(choice, 1.0, "trig", f"config {cfg} {tag} segment choice")
            # aggregated envelope rows over the one-hot segment choice; they
            # are implied for integral selections and tighten the relaxation
            theta_hi = _LinExpr({th: 1.0})
            theta_lo = _LinExpr({th: -1.0})
            val_hi = _LinExpr({val_idx: 1.0})
            val_lo = _LinExpr({val_idx: -1.0})
            for k, (bp_lo, bp_hi, m_k, n_k, v_lo, v_hi) in enumerate(segments, start=1):
                b_idx = seg_of(cfg, k)
                name = f"config {cfg} {tag} seg {k}"
                ineq.add(_LinExpr({th: 1.0}), bp_hi, "trig", f"{name} theta hi", b_idx)
                ineq.add(_LinExpr({th: -1.0}), -bp_lo, "trig", f"{name} theta lo", b_idx)
                ineq.add(_LinExpr({val_idx: 1.0, th: -m_k}), n_k, "trig", f"{name} chord +", b_idx)
                ineq.add(_LinExpr({val_idx: -1.0, th: m_k}), -n_k, "trig", f"{name} chord -", b_idx)
                theta_hi.add(b_idx, -bp_hi)
                theta_lo.add(b_idx, bp_lo)
                val_hi.add(b_idx, -v_hi)
                val_lo.add(b_idx, v_lo)
            ineq.add(theta_hi, 0.0, "trig", f"config {cfg} {tag} envelope theta hi")
            ineq.add(theta_lo, 0.0, "trig", f"config {cfg} {tag} envelope theta lo")
            ineq.add(val_hi, 0.0, "trig", f"config {cfg} {tag} envelope value hi")
            ineq.add(val_lo, 0.0, "trig", f"config {cfg} {tag} envelope value lo")
            # hull of the chord graph couples the value variable to theta for
            # fractional segment choices as well
            for e, (m_e, b_e, is_up) in enumerate(hull):
                sign = 1.0 if is_up else -1.0
                ineq.add(
                    _LinExpr({val_idx: sign, th: -sign * m_e}), sign * b_e,
                    "trig", f"config {cfg} {tag} hull {'upper' if is_up else 'lower'} {e}",
                )

    # ---- (e) trimming: pin trimmed steps to leg goals, monotone per leg ----
    # a step whose goal foothold lies outside its reachable box (or whose
    # configuration cannot take the goal yaw) can never be trimmed; fixing
    # those binaries up front removes their reward from the relaxation
    yaw_ok = lo_t - 1e-9 <= scenario.goal_yaw <= hi_t + 1e-9
    step_goals = np.tile(goals, (layout.n_configs, 1))
    foot_lo = lower[: 3 * n_steps].reshape(-1, 3)
    foot_hi = upper[: 3 * n_steps].reshape(-1, 3)
    inside = (foot_lo - 1e-9 <= step_goals) & (step_goals <= foot_hi + 1e-9)
    can_trim = yaw_ok & inside.all(axis=1)
    # trims are monotone per leg, so a step can be trimmed only if every
    # later step of its leg can
    later = np.logical_and.accumulate(can_trim.reshape(-1, n)[::-1], axis=0)[::-1]
    upper[layout.trim(1) + np.flatnonzero(~later.ravel())] = 0.0
    for i in range(1, n_steps + 1):
        t_idx = layout.trim(i)
        target = goals[leg_of(i, n) - 1]
        feet = [(layout.foot(i, comp), target[comp], "xyz"[comp]) for comp in range(3)]
        yaw = [(layout.theta((i - 1) // n + 1), scenario.goal_yaw, "yaw")]
        for pins in (feet, yaw):
            for sign, tag in ((1.0, "+"), (-1.0, "-")):
                for col, value, name in pins:
                    label = f"step {i} trim pin {tag}{name}"
                    ineq.add(_LinExpr({col: sign}), sign * value, "trim", label, t_idx)
        if i + n <= n_steps:
            mono = _LinExpr({t_idx: 1.0, layout.trim(i + n): -1.0})
            ineq.add(mono, 0.0, "trim", f"trim monotone {i} <= {i + n}")

    # ---- objective ---------------------------------------------------------
    q_entries: dict[tuple[int, int], float] = {}
    c_vec = np.zeros(n_vars)
    constant = 0.0

    def add_quadratic(exprs: list[_LinExpr], weight: np.ndarray) -> None:
        """Accumulate  e' W e  for the stacked expression vector e."""
        nonlocal constant
        k = len(exprs)
        for a in range(k):
            for b in range(k):
                w = weight[a, b]
                if w == 0.0:
                    continue
                ea, eb = exprs[a], exprs[b]
                for ca, va in ea.coefs.items():
                    for cb, vb in eb.coefs.items():
                        key = (ca, cb)
                        q_entries[key] = q_entries.get(key, 0.0) + w * va * vb
                    c_vec[ca] += w * va * eb.const
                for cb, vb in eb.coefs.items():
                    c_vec[cb] += w * ea.const * vb
                constant += w * ea.const * eb.const

    # final-configuration goal cost over (x, y, z, yaw)
    last_cfg = layout.n_configs
    for i in range(n_steps - n + 1, n_steps + 1):
        g = goals[leg_of(i, n) - 1]
        exprs = [
            _LinExpr({layout.foot(i, 0): 1.0}, -g[0]),
            _LinExpr({layout.foot(i, 1): 1.0}, -g[1]),
            _LinExpr({layout.foot(i, 2): 1.0}, -g[2]),
            _LinExpr({layout.theta(last_cfg): 1.0}, -scenario.goal_yaw),
        ]
        add_quadratic(exprs, scenario.q_goal)

    # trim reward
    for i in range(1, n_steps + 1):
        c_vec[layout.trim(i)] += scenario.q_t

    # CoC drift between consecutive configurations (xy)
    def config_coc_expr(cfg: int, comp: int) -> _LinExpr:
        out = _LinExpr()
        first = (cfg - 1) * n + 1
        for i in range(first, first + n):
            out.add(layout.foot(i, comp), 1.0 / n)
        return out

    prev_coc = [_LinExpr(const=start_coc[0]), _LinExpr(const=start_coc[1])]
    for cfg in range(1, layout.n_configs + 1):
        cur = [config_coc_expr(cfg, 0), config_coc_expr(cfg, 1)]
        add_quadratic([cur[0].minus(prev_coc[0]), cur[1].minus(prev_coc[1])], scenario.q_r)
        prev_coc = cur

    rows, cols = np.array(list(q_entries), dtype=int).reshape(-1, 2).T
    q = sp.coo_matrix((list(q_entries.values()), (rows, cols)), shape=(n_vars, n_vars)).tocsr()
    q_matrix = (0.5 * (q + q.T)).tocsr()

    a_ineq, b_ineq, ineq_families, ineq_labels = ineq.box_rule(lower, upper)
    a_eq, b_eq = eq.matrix(n_vars)
    return MiqpProblem(
        q_matrix=q_matrix,
        c_vector=c_vec,
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

    Each completion is a few array passes over index blocks laid out once:
    one product over every region's rows gives the step-by-region violation
    matrix, and the picks are array reductions with the tie rules above.
    """
    layout = problem.layout
    sin_table, cos_table = scenario_tables(scenario)
    n = layout.n_legs
    n_steps, n_configs = layout.n_steps, layout.n_configs
    lo_t, hi_t = scenario.theta_range
    goal_yaw = float(scenario.goal_yaw)
    steps, configs = range(1, n_steps + 1), range(1, n_configs + 1)
    segments, regions = range(1, layout.n_segments + 1), range(1, layout.n_regions + 1)
    # each leg's chain of steps from the tail inward, legs in order (0-based)
    chains = np.array([i - 1 for leg in range(1, n + 1) for i in range(n_steps - n + leg, 0, -n)])
    trim_idx = np.array([layout.trim(i) for i in steps])
    theta_idx = np.array([layout.theta(cfg) for cfg in configs])
    # [configuration, sin or cos, segment]
    tables = (layout.sin_segment, layout.cos_segment)
    seg_idx = np.array([[[seg_of(cfg, k) for k in segments] for seg_of in tables] for cfg in configs])
    region_idx = np.array([[layout.region(i, r) for r in regions] for i in steps])
    foot_idx = np.array([[layout.foot(i, comp) for comp in range(3)] for i in steps])
    a_all = np.vstack([region.a_matrix for region in scenario.regions])
    b_all = np.concatenate([region.b_vector for region in scenario.regions])
    first_row = np.cumsum([0] + [region.n_rows for region in scenario.regions])[:-1]
    pinned = problem.lower == problem.upper
    open_up = problem.upper > 0.0

    def complete(
        x: np.ndarray, fixings: dict[int, float], with_trims: bool = True
    ) -> dict[int, float]:
        fixed = np.full(problem.n_vars, np.nan)  # NaN where not fixed
        is_fixed = np.zeros(problem.n_vars, dtype=bool)
        if fixings:
            keys = np.fromiter(fixings.keys(), dtype=int, count=len(fixings))
            fixed[keys] = np.fromiter(fixings.values(), dtype=float, count=len(fixings))
            is_fixed[keys] = True
        value = np.where(is_fixed, fixed, np.where(pinned, problem.lower, x))
        one, allowed = fixed == 1.0, ~(fixed == 0.0) & open_up

        # trim suffixes per leg, honoring monotonicity from the tail inward;
        # a trim ``assemble`` pinned to 0 (goal yaw or goal foothold out of
        # reach) reads as its bound
        want = value[trim_idx] > 0.5 if with_trims else one[trim_idx]
        trimmed = np.logical_and.accumulate(want.reshape(n_configs, n)[::-1], axis=0)[::-1]
        theta = np.where(trimmed.any(axis=1), goal_yaw, np.minimum(np.maximum(x[theta_idx], lo_t), hi_t))

        # a segment fixed to 1 stands; else the one holding theta, or the
        # nearest open one (the lower on a tie) when that one is fixed to 0
        one_s, allowed_s = one[seg_idx], allowed[seg_idx]
        taken = one_s.any(axis=2)
        segment = np.zeros(taken.shape, dtype=int)
        for t, table in enumerate((sin_table, cos_table)):
            segment[~taken[:, t], t] = table.segment_of(theta[~taken[:, t]])
        k = np.arange(len(segments))
        nearest = np.where(allowed_s, np.abs(k - segment[..., None]), k.size).argmin(axis=2)
        at = np.take_along_axis(seg_idx, segment[..., None], axis=2)[..., 0]
        moved = (fixed[at] == 0.0) & allowed_s.any(axis=2)
        segment = np.where(taken, one_s.argmax(axis=2), np.where(moved, nearest, segment))

        # the region geometrically closest to the relaxed position; the
        # indicator value breaks ties, then the lower region number. One
        # product over every region's rows gives each row the dot product
        # ``SafeRegion.violation`` takes (the rounding tests compare the
        # candidates with a per-region reference)
        violation = np.maximum.reduceat(a_all @ x[foot_idx].T - b_all[:, None], first_row, axis=0).T
        allowed_r = allowed[region_idx]
        closest = allowed_r & (violation == np.where(allowed_r, violation, np.inf).min(axis=1, keepdims=True))
        tie_value = np.where(closest, value[region_idx], -np.inf)
        best = closest & (tie_value == tie_value.max(axis=1, keepdims=True))
        one_r = one[region_idx]
        region = np.where(allowed_r.any(axis=1), best.argmax(axis=1), -1)
        region = np.where(one_r.any(axis=1), one_r.argmax(axis=1), region)

        out = dict(fixings)
        out.update(zip(trim_idx[chains].tolist(), np.where(trimmed.ravel()[chains], 1.0, 0.0).tolist()))
        seg_on, region_on = k == segment[..., None], np.arange(len(regions)) == region[:, None]
        for idx, on in ((seg_idx, seg_on), (region_idx, region_on)):
            unfixed = ~is_fixed[idx]
            out.update(zip(idx[unfixed].tolist(), np.where(on[unfixed], 1.0, 0.0).tolist()))
        return out

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
            abs(want_turn) / max(layout.n_configs - 1, 1),
        )
        travels, thetas = [], []
        travel = 0.0
        for cfg in configs:
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
        return complete(x, {}, with_trims=False)

    def candidates(x: np.ndarray, fixings: dict[int, float]) -> list[dict[int, float]]:
        tries = [complete(x, fixings, with_trims=True), complete(x, fixings, with_trims=False)]
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
    low = problem.lower - x
    high = x - problem.upper
    for i in np.nonzero(low > 0)[0]:
        note("bounds", "bound", int(i), float(low[i]), f"{problem.layout.var_name(int(i))} below lower")
    for i in np.nonzero(high > 0)[0]:
        note("bounds", "bound", int(i), float(high[i]), f"{problem.layout.var_name(int(i))} above upper")
    worst.setdefault("bounds", 0.0)
    frac = np.minimum(np.abs(x[problem.binary_indices]), np.abs(x[problem.binary_indices] - 1.0))
    for pos, i in enumerate(problem.binary_indices):
        if frac[pos] > 0:
            note(
                "integrality",
                "integrality",
                int(i),
                float(frac[pos]),
                f"{problem.layout.var_name(int(i))} not 0/1",
            )
    worst.setdefault("integrality", 0.0)
    return AssignmentReport(tuple(violations), tol, worst)
