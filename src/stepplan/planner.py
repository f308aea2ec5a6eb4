"""Chunked end-to-end planning and exact-geometry plan validation.

Long horizons are solved as consecutive chunks of ``chunk_multiplier * n_legs``
steps; each chunk starts from the previous chunk's final stance (handed off
bitwise) with the yaw linearization range re-centered on the handoff yaw, so
cumulative rotation can exceed a single chunk's range. Trailing
configurations that are trimmed and do not move any foot are padding and are
dropped from the concatenated plan; the arrival configuration (trimmed but
moving) is kept.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bnb import MiqpLimits, MiqpSolution, solve_miqp
from .errors import ContractViolation, PlanningError
from .formulation import MiqpProblem, assemble, make_rounding_heuristic
from .model import (
    Footstep,
    Scenario,
    coc,
    derive_leg_goals,
    leg_of,
    wrap_angle,
)
from .pwl import chord_error_bound


@dataclass(frozen=True, eq=False)
class ChunkRecord:
    """One solved chunk: enough context to re-assemble and re-validate it."""

    index: int
    start_footholds: np.ndarray
    start_yaw: float
    theta_range: tuple[float, float]
    n_segments: int
    chunk_steps: int
    kept_count: int
    n_variables: int
    n_binaries: int
    scenario: Scenario | None = None
    solution: MiqpSolution | None = None
    nodes: int = 0
    gap: float = 0.0
    objective: float = 0.0
    status: str = ""
    solve_time: float = 0.0


@dataclass(frozen=True, eq=False)
class FootstepPlan:
    """Concatenated footsteps plus per-chunk statistics and convergence record."""

    steps: tuple[Footstep, ...]
    chunks: tuple[ChunkRecord, ...]
    converged: bool
    termination: str  # "goal" | "no-progress" | "max-steps"
    coc_error: float
    yaw_error: float

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def _extract_chunk_steps(problem: MiqpProblem, x: np.ndarray, scenario: Scenario) -> list[Footstep]:
    """Each step of a chunk's solution: its foot, its configuration's yaw,
    its trim, and the first region whose binary is above 0.5 (or None)."""
    layout = problem.layout
    n = layout.n_legs
    on = x[layout.regions] > 0.5
    first = np.where(on.any(axis=1), on.argmax(axis=1), -1).tolist()
    thetas = x[layout.thetas].tolist()
    steps = zip(x[layout.feet].tolist(), (x[layout.trims] > 0.5).tolist(), first)
    return [
        Footstep(x=fx, y=fy, z=fz, theta=thetas[i // n], leg=leg_of(i + 1, n), trimmed=trimmed,
                 region=scenario.regions[r].name if r >= 0 else None)
        for i, ((fx, fy, fz), trimmed, r) in enumerate(steps)
    ]


def _drop_standing_tail(
    steps: list[Footstep], start_holds: np.ndarray, n_legs: int
) -> list[Footstep]:
    """Drop trailing configurations that are trimmed and keep every foot in place."""
    n_cfg = len(steps) // n_legs
    kept = n_cfg
    while kept > 0:
        block = steps[(kept - 1) * n_legs : kept * n_legs]
        if not all(s.trimmed for s in block):
            break
        if kept == 1:
            prev = {j + 1: start_holds[j] for j in range(n_legs)}
        else:
            prev_block = steps[(kept - 2) * n_legs : (kept - 1) * n_legs]
            prev = {s.leg: s.xyz() for s in prev_block}
        if any(np.max(np.abs(s.xyz() - prev[s.leg])) > _STANDING_TOL for s in block):
            break
        kept -= 1
    return steps[: kept * n_legs]


#: Chunks are solved to this relative optimality gap by default, with a node
#: cap as a deterministic stop for the big-M bound tail. Plan feasibility is
#: always exact; these limits only affect step placement quality. The cap of
#: 2 allows one pop: the root and its two children, each rounded to a plan.
#: On the bundled presets a cap of 4 finds one better incumbent in about a
#: third more time, and a cap of 8 plans 278 steps instead of 286 in about
#: 1.8 times the time.
DEFAULT_CHUNK_GAP = 0.01
DEFAULT_CHUNK_NODES = 2
#: the goal is reached when the CoC is within GOAL_TOL of it and the yaw
#: within YAW_TOL; planning stops when a chunk brings the CoC less than
#: PROGRESS_TOL closer
GOAL_TOL = 0.05
YAW_TOL = 0.05
PROGRESS_TOL = 0.01
#: a foot that moves less than this (m, per coordinate) stands in place
_STANDING_TOL = 1e-7


def plan(
    scenario: Scenario,
    chunk_multiplier: int = 4,
    limits: MiqpLimits | None = None,
) -> FootstepPlan:
    """Plan footsteps from the scenario start to its goal by chunked solves.

    Terminates when the CoC and yaw reach the goal within GOAL_TOL and
    YAW_TOL, when a chunk fails to make PROGRESS_TOL of progress, or when the
    scenario's step budget is exhausted. Raises PlanningError if a chunk is
    infeasible or hits solver limits without any feasible incumbent, and
    ContractViolation if ``chunk_multiplier`` is not an integer of at least
    1 or its chunk does not fit ``max_steps``.
    """
    if isinstance(chunk_multiplier, bool) or not isinstance(chunk_multiplier, numbers.Integral) or chunk_multiplier < 1:
        raise ContractViolation(f"chunk_multiplier must be an integer of at least 1, got {chunk_multiplier!r}")
    robot = scenario.robot
    n = robot.n_legs
    chunk_steps = chunk_multiplier * n
    if chunk_steps > scenario.max_steps:
        raise ContractViolation(
            f"chunk of {chunk_steps} steps does not fit max_steps {scenario.max_steps}"
        )
    if limits is None:
        limits = MiqpLimits(gap=DEFAULT_CHUNK_GAP, max_nodes=DEFAULT_CHUNK_NODES)
    width = scenario.theta_range[1] - scenario.theta_range[0]
    goal_xy = scenario.goal_position[:2]

    cur_holds = np.array(scenario.start_footholds, dtype=float)
    cur_yaw = float(scenario.start_yaw)
    cur_range = scenario.theta_range
    steps: list[Footstep] = []
    chunks: list[ChunkRecord] = []

    dist = float(np.linalg.norm(coc(cur_holds) - goal_xy))
    yaw_err = abs(wrap_angle(cur_yaw - scenario.goal_yaw))
    if dist <= GOAL_TOL and yaw_err <= YAW_TOL:
        return FootstepPlan((), (), True, "goal", dist, yaw_err)

    converged = False
    termination = "max-steps"
    used = 0
    index = 0
    while used + chunk_steps <= scenario.max_steps:
        chunk_scn = scenario.with_overrides(
            start_footholds=cur_holds,
            start_yaw=cur_yaw,
            max_steps=chunk_steps,
            theta_range=cur_range,
            name=f"{scenario.name}#chunk{index}",
        )
        problem = assemble(chunk_scn)
        rounding = make_rounding_heuristic(chunk_scn, problem)
        sol = solve_miqp(problem, limits=limits, rounding=rounding)
        if sol.status == "infeasible":
            raise PlanningError(
                f"chunk {index} is infeasible", index, chunk_scn, reason="infeasible"
            )
        if not sol.feasible:
            raise PlanningError(
                f"chunk {index} hit solver limits ({sol.status}) with no feasible plan",
                index,
                chunk_scn,
                reason="limits",
            )
        chunk_all = _extract_chunk_steps(problem, sol.x, chunk_scn)
        kept = _drop_standing_tail(chunk_all, cur_holds, n)
        chunks.append(
            ChunkRecord(
                index=index,
                start_footholds=cur_holds,
                start_yaw=cur_yaw,
                theta_range=cur_range,
                n_segments=scenario.n_segments,
                chunk_steps=chunk_steps,
                kept_count=len(kept),
                n_variables=problem.n_vars,
                n_binaries=len(problem.binary_indices),
                scenario=chunk_scn,
                solution=sol,
                nodes=sol.nodes,
                gap=sol.gap,
                objective=sol.objective,
                status=sol.status,
                solve_time=sol.wall_time,
            )
        )
        steps.extend(kept)
        used += chunk_steps
        index += 1
        if kept:
            tail = kept[-n:]
            new_holds = np.empty((n, 3))
            for s in tail:
                new_holds[s.leg - 1] = s.xyz()
            cur_holds = new_holds
            cur_yaw = tail[-1].theta
        new_dist = float(np.linalg.norm(coc(cur_holds) - goal_xy))
        yaw_err = abs(wrap_angle(cur_yaw - scenario.goal_yaw))
        if new_dist <= GOAL_TOL and yaw_err <= YAW_TOL:
            converged = True
            termination = "goal"
            dist = new_dist
            break
        if dist - new_dist < PROGRESS_TOL:
            termination = "no-progress"
            dist = new_dist
            break
        dist = new_dist
        cur_range = (cur_yaw - 0.5 * width, cur_yaw + 0.5 * width)
    return FootstepPlan(
        tuple(steps), tuple(chunks), converged, termination, dist, yaw_err
    )


# --------------------------------------------------------------------------
# exact-geometry validation


@dataclass(frozen=True)
class PlanIssue:
    family: str
    chunk: int
    step: int  # 1-based within the chunk (0 for chunk-level issues)
    amount: float
    allowed: float
    detail: str


@dataclass(frozen=True)
class PlanValidationReport:
    issues: tuple[PlanIssue, ...]
    family_worst: dict[str, float]

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        lines = [f"plan validation: {len(self.issues)} issue(s)"]
        for fam in sorted(self.family_worst):
            lines.append(f"  {fam:<14} worst={self.family_worst[fam]:.3e}")
        for iss in self.issues[:20]:
            lines.append(
                f"  [{iss.family}] chunk {iss.chunk} step {iss.step}: "
                f"{iss.amount:.3e} > {iss.allowed:.3e} ({iss.detail})"
            )
        return "\n".join(lines)


#: the families of ``validate_plan``, in the order of its ``family_worst``
_FAMILIES = ("geometric", "reachability", "dz", "region", "yaw-sharing", "trim")
#: the family of each per-step check, in the order a step's checks run
_CHECKS = ("yaw-sharing", "yaw-sharing", "yaw-sharing", "geometric", "reachability", "dz", "region", "trim")


def validate_plan(plan_obj: FootstepPlan, scenario: Scenario) -> PlanValidationReport:
    """Re-check a plan against the exact (non-linearized) geometry.

    Geometric and reachability boxes are widened by the worst-case chord
    error of the trig approximation (h^2/8 scaled by leg reach); region
    membership, height changes, yaw sharing and trim pins are checked at
    fixed tolerances.

    The checks run in four passes over the steps of every chunk at once.
    The first gathers each step's foot, yaw, leg, trim and chunk, and each
    chunk's start stance; a chunk whose steps do not form complete
    configurations is one issue and takes no further part. The second
    takes each step's CoC window mean (``np.mean`` over the window) and its
    exact nominal foothold, with ``math.cos`` and ``math.sin`` per step as
    ``nominal_position`` takes them; a step's reachability anchor is the
    nominal foothold of its leg's previous step, or of its chunk's start
    stance. The third computes every check's amount and allowance as one
    row per step, a check that does not apply to a step reading 0.0, and
    calls ``SafeRegion.violation`` per step. The last lists the failed
    checks in step order; a family's worst is the largest of 0.0 and its
    amounts, NaN if one is NaN. Every issue and every worst has the bits of
    a step-by-step check.
    """
    robot = scenario.robot
    n = robot.n_legs
    phis = robot.leg_offsets
    # each leg's chord-error factor, l_leg (|cos phi| + |sin phi|)
    reach = np.array([robot.l_leg * (abs(math.cos(phi)) + abs(math.sin(phi))) for phi in phis])
    goals = derive_leg_goals(scenario.goal_position, scenario.goal_yaw, robot)
    regions = {r.name: r for r in scenario.regions}
    issues: list[tuple[tuple, PlanIssue]] = []  # each with its (chunk position, step, check)
    incomplete: list[float] = []
    steps: list[Footstep] = []
    chunks = []  # (position, index, step count, chord error, theta range) of each checked chunk
    window_feet, start_nominal, start_z = [], [], []
    offset = 0
    for pos, chunk in enumerate(plan_obj.chunks):
        kept = plan_obj.steps[offset : offset + chunk.kept_count]
        offset += chunk.kept_count
        start = np.asarray(chunk.start_footholds, dtype=float)
        table_h = (chunk.theta_range[1] - chunk.theta_range[0]) / chunk.n_segments
        chord_err = chord_error_bound(table_h)
        start_coc = coc(start)
        if chunk.kept_count % n != 0:
            incomplete.append(float(chunk.kept_count % n))
            issues.append(((pos, 0, 0), PlanIssue("yaw-sharing", chunk.index, 0, incomplete[-1], 0.0,
                                                  "steps not grouped in complete configurations")))
            continue
        if not kept:
            continue
        steps += kept
        chunks.append((pos, chunk.index, len(kept), chord_err, *chunk.theta_range))
        # the start feet in step 1's CoC window, the start stance's nominal footholds and heights
        window_feet.append(start[np.arange(1 - n, 0) % n, :2])
        yaw = chunk.start_yaw
        start_nominal.append(
            start_coc + robot.l_leg * np.array([(math.cos(yaw + phi), math.sin(yaw + phi)) for phi in phis])
        )
        start_z.append(start[:, 2])
    worst_of = {f: [] for f in _FAMILIES}
    worst_of["yaw-sharing"] += incomplete
    if steps:
        total = len(steps)
        position, index, count, chord_err, lo_t, hi_t = (np.array(c) for c in zip(*chunks))
        ordinal = np.arange(len(chunks)).repeat(count)
        first = (count.cumsum() - count).repeat(count)
        at = np.arange(total)
        local = at - first  # 0-based step within the chunk
        leg = at % n  # every checked chunk holds complete configurations
        xyz = np.array([(s.x, s.y, s.z) for s in steps], dtype=float)
        thetas = [s.theta for s in steps]
        theta = np.array(thetas, dtype=float)
        # each step's CoC window: the n - 1 feet before it, its chunk's start feet below its step 1
        slot = local[:, None] + np.arange(n - 1)
        feet = np.concatenate(window_feet + [xyz[:, :2]])
        window = feet[np.where(slot < n - 1, ordinal[:, None] * (n - 1) + slot,
                               len(chunks) * (n - 1) + first[:, None] + slot - (n - 1))]
        angles = [t + phis[j] for t, j in zip(thetas, leg.tolist())]
        nominal = np.mean(window, axis=1) + robot.l_leg * np.array(
            [(math.cos(a), math.sin(a)) for a in angles]
        ).reshape(total, 2)
        # the leg's previous step, or its chunk's start stance
        back = np.where(local < n, ordinal * n + local, len(chunks) * n + at - n)
        anchor = np.concatenate(start_nominal + [nominal])[back]
        prev_z = np.concatenate(start_z + [xyz[:, 2]])[back]
        slack = reach[leg] * chord_err[ordinal]
        # max(below, above, 0.0) as Python takes it: a NaN below stays
        below, above = lo_t[ordinal] - theta, theta - hi_t[ordinal]
        out_of_range = np.where(above > below, above, below)
        out_of_range = np.where(0.0 > out_of_range, 0.0, out_of_range)
        region_amount, region_allowed = np.empty(total), np.empty(total)
        for i, step in enumerate(steps):
            reg = None if step.region is None else regions.get(step.region)
            if reg is None:
                region_amount[i], region_allowed[i] = math.inf, 0.0
            else:
                region_amount[i], region_allowed[i] = max(reg.violation(step.xyz()), 0.0), 1e-6
        trimmed = np.array([s.trimmed for s in steps], dtype=bool)
        off_order = np.array([s.leg for s in steps]) != leg + 1
        # one row per step, one column per check in _CHECKS' order
        amounts = np.column_stack([
            np.abs(theta - theta[at - leg]),
            out_of_range,
            np.where(off_order, 1.0, 0.0),
            np.abs(xyz[:, :2] - nominal).max(axis=1),
            np.abs(xyz[:, :2] - anchor).max(axis=1),
            np.abs(xyz[:, 2] - prev_z),
            region_amount,
            np.where(trimmed, np.abs(xyz - goals[leg]).max(axis=1), 0.0),
        ])
        allowed = np.column_stack(np.broadcast_arrays(
            1e-9, 1e-9, 0.0, robot.l_bnd + slack + 1e-9, robot.d_lim + slack + 1e-9,
            robot.dz_max + 1e-9, region_allowed, 1e-6,
        ))
        for family, worst in zip(_CHECKS, amounts.max(axis=0).tolist()):
            worst_of[family].append(worst)
        for i, check in zip(*(~(amounts <= allowed)).nonzero()):
            step, j = steps[i], int(leg[i]) + 1
            detail = (
                "yaw differs within configuration", "yaw outside the chunk range", "leg out of cyclic order",
                f"leg {j} outside reference box", f"leg {j} outside reachability box", f"leg {j} height change",
                "no region assigned" if step.region is None else (
                    f"outside region {step.region!r}" if step.region in regions
                    else f"unknown region {step.region!r}"),
                f"trimmed leg {j} off its goal",
            )[check]
            issue = PlanIssue(_CHECKS[check], int(index[ordinal[i]]), int(local[i]) + 1,
                              float(amounts[i, check]), float(allowed[i, check]), detail)
            issues.append(((int(position[ordinal[i]]), int(local[i]) + 1, int(check)), issue))
    issues.sort(key=lambda item: item[0])
    # 0.0 or the largest amount, NaN if one is NaN; + 0.0 makes a -0.0 worst 0.0
    worst = {f: float(np.max(values, initial=0.0)) + 0.0 if values else 0.0 for f, values in worst_of.items()}
    return PlanValidationReport(tuple(issue for _, issue in issues), worst)
