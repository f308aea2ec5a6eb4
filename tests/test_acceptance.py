"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them).

The bundled scenario plans are computed once per session and shared (the
``preset_plans`` fixture in ``conftest.py``).
"""

import math
import re
import time
from pathlib import Path

import numpy as np

from oracles import random_miqp
from stepplan.bnb import brute_force_solve, solve_miqp
from stepplan.formulation import (
    VariableLayout,
    assemble,
    validate_assignment,
)
from stepplan.model import RobotModel, SafeRegion, Scenario, derive_leg_goals, nominal_position
from stepplan.plan_io import plan_to_json
from stepplan.planner import plan, validate_plan
from stepplan.pwl import build_table
from stepplan.scenario_io import load_scenario
from stepplan.svg import render_plan_svg

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "stepplan"
SCENARIO_DIR = PACKAGE_DIR / "scenarios"
PRESETS = (
    "hexapod_stepping_stones",
    "hexapod_rotation",
    "hexapod_tilted_terrain",
    "quadruped_stepping_stones",
    "quadruped_tilted_terrain",
)

def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    mismatches = []
    for trial in range(100):
        prob = random_miqp(rng)
        tree = solve_miqp(prob)
        brute = brute_force_solve(prob)
        if tree.feasible != brute.feasible:
            mismatches.append((trial, "feasibility"))
        elif brute.feasible and abs(tree.objective - brute.objective) > 1e-5:
            mismatches.append((trial, abs(tree.objective - brute.objective)))
    elapsed = time.perf_counter() - t0
    report(
        1,
        not mismatches and elapsed < 60.0,
        f"branch-and-bound matched brute force on {100 - len(mismatches)}/100 "
        f"random MIQPs within 1e-5 in {elapsed:.1f}s (budget 60s)"
        + (f"; mismatches: {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_2_constraint_feasibility(preset_plans):
    worst_rows = 0
    details = []
    for name in PRESETS:
        scenario, result, _ = preset_plans[name]
        for chunk in result.chunks:
            problem = assemble(chunk.scenario)
            rep = validate_assignment(problem, chunk.solution.x, 1e-6)
            worst_rows += rep.count()
            if not rep.ok:
                details.append(f"{name} chunk {chunk.index}: {rep.count()} violations")
        plan_rep = validate_plan(result, scenario)
        worst_rows += len(plan_rep.issues)
        if not plan_rep.ok:
            details.append(f"{name}: plan issues {len(plan_rep.issues)}")
    report(
        2,
        worst_rows == 0,
        f"all bundled plans pass validate_assignment at 1e-6 and validate_plan "
        f"at the trig slack (violations: {worst_rows})" + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_3_pwl_error_bound():
    worst = []
    ok = True
    for n_segments in (4, 8, 16):
        h = 2.0 * math.pi / n_segments
        bound = h * h / 8.0 + 1e-12
        grid = np.linspace(-math.pi, math.pi, 100_001)
        for kind, fn in (("sin", np.sin), ("cos", np.cos)):
            table = build_table(kind, (-math.pi, math.pi), n_segments)
            err = float(np.max(np.abs(table.eval(grid) - fn(grid))))
            worst.append(f"{kind}/{n_segments}: {err:.5f} <= {bound:.5f}")
            ok = ok and err <= bound
    report(3, ok, "dense-grid chord error within h^2/8 for all tables (" + "; ".join(worst) + ")")


def test_criterion_4_stepping_stones_reproduction(preset_plans):
    scenario, result, _ = preset_plans["hexapod_stepping_stones"]
    chunk_times = [c.solve_time for c in result.chunks]
    chunk_ok = all(t < 60.0 for t in chunk_times)
    converged = result.converged and result.coc_error <= 0.05 and result.yaw_error <= 0.05
    baseline = 0.44  # external baseline solve time for a 24-step problem
    slowest = max(chunk_times) if chunk_times else 0.0
    report(
        4,
        converged and chunk_ok and len(scenario.regions) == 13,
        f"hexapod stepping stones (13 regions, goal 2 m, 45 deg) converged with CoC "
        f"error {result.coc_error:.3f} m, yaw error {result.yaw_error:.3f} rad; "
        f"chunk solve times {[f'{t:.1f}s' for t in chunk_times]} (each < 60s); "
        f"slowest/external-baseline ratio {slowest / baseline:.2f}x (reported, not asserted)",
    )


def test_criterion_5_rotation_scenario(preset_plans):
    scenario, result, _ = preset_plans["hexapod_rotation"]
    final_yaw = result.steps[-1].theta if result.steps else scenario.start_yaw
    ok = result.converged and abs(final_yaw - math.pi / 2) <= 0.05
    single_range = scenario.theta_range[1] - scenario.theta_range[0]
    report(
        5,
        ok,
        f"90 deg rotation converged; final yaw {final_yaw:.3f} rad vs target {math.pi / 2:.3f} "
        f"(within 0.05) across re-centered ranges of width {single_range:.2f} rad",
    )


def test_criterion_6_generality(preset_plans):
    results = []
    for name in ("quadruped_stepping_stones", "quadruped_tilted_terrain"):
        scenario, result, _ = preset_plans[name]
        results.append((name, result.converged and validate_plan(result, scenario).ok))
    # data-only presets: the planner source must not branch on robot identity
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        text = path.read_text()
        if re.search(r"(?i)hexapod|quadruped|littledog|bh3r", text):
            offenders.append(f"{path.name}: robot name")
        if re.search(r"n_legs\s*==\s*\d", text):
            offenders.append(f"{path.name}: leg-count branch")
    ok = all(flag for _, flag in results) and not offenders
    report(
        6,
        ok,
        f"quadruped presets plan through the identical code path: {results}; "
        f"no robot-specific branches in source ({offenders or 'clean'})",
    )


def test_criterion_7_variable_count_formula():
    scenario = load_scenario(SCENARIO_DIR / "hexapod_stepping_stones.json")
    n = scenario.robot.n_legs
    n_regions = len(scenario.regions)
    n_segments = scenario.n_segments
    rows = []
    ok = True
    for horizon in (12, 24, 36):
        scn = scenario.with_overrides(max_steps=horizon)
        problem = assemble(scn)
        configs = horizon // n
        expect_bin = horizon * n_regions + 2 * configs * n_segments + horizon
        expect_cont = 3 * horizon + 3 * configs
        got_bin = len(problem.binary_indices)
        got_cont = problem.n_vars - got_bin
        ok = ok and got_bin == expect_bin and got_cont == expect_cont
        layout = VariableLayout(horizon, n, n_regions, n_segments)
        ok = ok and len(layout.binary_indices()) == expect_bin and layout.size == problem.n_vars
        rows.append(f"{horizon} steps: {got_bin} bin / {got_cont} cont")
    report(
        7,
        ok,
        "assembled counts equal the closed forms for horizons 12/24/36 ("
        + "; ".join(rows)
        + "); external baseline totals 312/552/828 recorded for reference only",
    )


def test_criterion_8_trimming():
    robot = RobotModel(
        n_legs=4,
        leg_offsets=(math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4),
        l_leg=0.2 * math.sqrt(2.0),
        l_bnd=0.13,
        d_lim=0.22,
        dz_max=0.1,
    )
    region = SafeRegion(
        np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
        np.array([1.0, 0.8, 0.8, 0.8, 0.05, 0.05]),
        "ground",
        bbox=(np.array([-0.8, -0.8, -0.05]), np.array([1.0, 0.8, 0.05])),
    )
    start = np.array(
        [list(nominal_position((0, 0), 0.0, j + 1, robot)) + [0.0] for j in range(4)]
    )
    scenario = Scenario(
        robot=robot,
        regions=(region,),
        start_footholds=start,
        start_yaw=0.0,
        goal_position=np.array([0.08, 0.0, 0.0]),  # reachable in one configuration
        goal_yaw=0.0,
        max_steps=12,
        theta_range=(-0.8, 0.8),
        n_segments=4,
        q_goal=np.diag([8.0, 8.0, 8.0, 3.0]),
        q_t=-0.2,
        q_r=0.05 * np.eye(2),
        workspace_box=(np.array([-0.85, -0.85, -0.06]), np.array([1.05, 0.85, 0.06])),
        name="one_hop",
    )
    problem = assemble(scenario)
    sol = solve_miqp(problem)
    layout = problem.layout
    goals = derive_leg_goals(scenario.goal_position, scenario.goal_yaw, robot)
    trims = sol.x[layout.trims]
    later_trimmed = bool(np.all(trims[4:] == 1.0))
    pinned = True
    for i in range(1, 13):
        if trims[i - 1] == 1.0:
            leg = (i - 1) % 4 + 1
            foot = sol.x[layout.feet[i - 1]]
            pinned = pinned and float(np.max(np.abs(foot - goals[leg - 1]))) <= 1e-6
    trim_term = scenario.q_t * float(np.sum(trims))
    identity = trim_term == scenario.q_t * int(np.sum(trims == 1.0))
    dominated = abs(trim_term) > 0.5 * abs(sol.objective)
    report(
        8,
        sol.feasible and later_trimmed and pinned and identity and dominated,
        f"one-configuration scenario trims all later steps ({int(np.sum(trims))}/12 trimmed), "
        f"pins them to the derived leg goals within 1e-6, and the trim term "
        f"{trim_term:.3f} equals q_t x count exactly (objective {sol.objective:.3f})",
    )


def test_criterion_9_determinism(tmp_path):
    name = "quadruped_tilted_terrain"
    scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
    first = plan(scenario)
    second = plan(scenario)
    plan_a = plan_to_json(first, scenario)
    plan_b = plan_to_json(second, scenario)
    svg_a = render_plan_svg(first, scenario)
    svg_b = render_plan_svg(second, scenario)
    report(
        9,
        plan_a == plan_b and svg_a == svg_b,
        f"two single-worker runs of plan on {name} produce byte-identical plan "
        f"files ({len(plan_a)} bytes) and SVGs ({len(svg_a)} bytes)",
    )
