import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stepplan.bnb import MiqpLimits, _Tree
from stepplan.errors import AssemblyError, ContractViolation, InfeasibleScenarioError
from stepplan.formulation import (
    VariableLayout,
    _box_excess,
    _graph_hull_edges,
    assemble,
    make_rounding_heuristic,
    scenario_tables,
    validate_assignment,
)
from stepplan.model import (
    RobotModel,
    SafeRegion,
    Scenario,
    coc,
    derive_leg_goals,
    leg_of,
    nominal_position,
    wrap_angle,
)
from stepplan.planner import plan, validate_plan
from stepplan.qp import BoxQp
from stepplan.scenario_io import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "stepplan" / "scenarios"


def box_region(name, x0, x1, y0, y1, z0=-0.05, z1=0.05, bbox=True):
    a = np.array(
        [[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    )
    b = np.array([x1, -x0, y1, -y0, z1, -z0])
    bb = (np.array([x0, y0, z0]), np.array([x1, y1, z1])) if bbox else None
    return SafeRegion(a, b, name, bbox=bb)


def quadruped():
    return RobotModel(
        n_legs=4,
        leg_offsets=(math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4),
        l_leg=0.2 * math.sqrt(2.0),
        l_bnd=0.13,
        d_lim=0.22,
        dz_max=0.1,
    )


def nominal_stance(robot, coc_xy=(0.0, 0.0), yaw=0.0, z=0.0):
    return np.array(
        [list(nominal_position(coc_xy, yaw, j + 1, robot)) + [z] for j in range(robot.n_legs)]
    )


def small_scenario(**overrides):
    robot = quadruped()
    kw = dict(
        robot=robot,
        regions=(box_region("ground", -0.7, 1.6, -0.7, 0.7),),
        start_footholds=nominal_stance(robot),
        start_yaw=0.0,
        goal_position=np.array([0.5, 0.0, 0.0]),
        goal_yaw=0.0,
        max_steps=8,
        theta_range=(-0.8, 0.8),
        n_segments=4,
        q_goal=np.diag([8.0, 8.0, 8.0, 3.0]),
        q_t=-0.2,
        q_r=0.05 * np.eye(2),
        workspace_box=(np.array([-0.7, -0.7, -0.06]), np.array([1.6, 0.7, 0.06])),
    )
    kw.update(overrides)
    return Scenario(**kw)


class TestVariableLayout:
    def test_counts_match_closed_form(self):
        # 12 steps, 13 regions, 8 segments, 6 legs
        layout = VariableLayout(12, 6, 13, 8)
        assert len(layout.binary_indices()) == 12 * 13 + 2 * 2 * 8 + 12 == 200
        assert layout.continuous_count == 3 * 12 + 3 * 2 == 42
        assert layout.size == 242

    def test_enumerated_indices_cross_check(self):
        # independent counting routine: enumerate every index block
        layout = VariableLayout(12, 6, 13, 8)
        indices = layout.binary_indices()
        assert len(set(indices.tolist())) == len(indices)
        all_idx = set(indices.tolist())
        assert all_idx.isdisjoint(layout.feet.ravel().tolist())
        assert layout.size == len(indices) + layout.continuous_count

    @given(st.integers(2, 8), st.integers(1, 5), st.integers(1, 13), st.integers(2, 9))
    @settings(max_examples=40, deadline=None)
    def test_counts_for_any_shape(self, n_legs, n_cfg, n_regions, n_segments):
        n_steps = n_legs * n_cfg
        layout = VariableLayout(n_steps, n_legs, n_regions, n_segments)
        expected = n_steps * n_regions + 2 * n_cfg * n_segments + n_steps
        assert len(layout.binary_indices()) == expected
        assert layout.size == expected + 3 * n_steps + 3 * n_cfg

    def test_index_ranges_disjoint_and_contiguous(self):
        layout = VariableLayout(8, 4, 3, 4)
        blocks = [
            layout.feet, layout.thetas, layout.sines, layout.cosines, layout.regions,
            layout.sin_segments, layout.cos_segments, layout.trims,
        ]
        # the blocks in layout order, each row-major, count 0..size-1
        assert [b.shape for b in blocks] == [(8, 3), (2,), (2,), (2,), (8, 3), (2, 4), (2, 4), (8,)]
        assert np.concatenate([b.ravel() for b in blocks]).tolist() == list(range(layout.size))
        assert not any(b.flags.writeable for b in blocks)

    def test_var_names_roundtrip_blocks(self):
        layout = VariableLayout(8, 4, 3, 4)
        assert layout.var_name(layout.feet[2, 1]) == "f3y"
        assert layout.var_name(layout.thetas[1]) == "th2"
        assert layout.var_name(layout.regions[7, 2]) == "H8_3"
        assert layout.var_name(layout.trims[0]) == "t1"

    def test_rejects_bad_indices(self):
        layout = VariableLayout(8, 4, 3, 4)
        # a negative index must not wrap to another variable
        for index in (-1, -3 * 8, layout.size, layout.size + 1):
            with pytest.raises(ContractViolation):
                layout.var_name(index)

    def test_steps_must_be_configuration_multiple(self):
        with pytest.raises(ContractViolation):
            VariableLayout(7, 4, 3, 4)

    @pytest.mark.parametrize(
        "n_steps, n_legs, n_regions, n_segments",
        [(4, 4, 1, 2), (8, 4, 3, 4), (12, 6, 13, 8), (24, 6, 2, 16), (6, 2, 5, 3)],
    )
    def test_binary_indices_are_the_binary_blocks(self, n_steps, n_legs, n_regions, n_segments):
        # the binary blocks are contiguous, so binary_indices() can be a range
        layout = VariableLayout(n_steps, n_legs, n_regions, n_segments)
        expected = set()
        for i in range(n_steps):
            expected.add(int(layout.trims[i]))
            expected.update(layout.regions[i].tolist())
        for c in range(layout.n_configs):
            expected.update(layout.sin_segments[c].tolist() + layout.cos_segments[c].tolist())
        assert layout.binary_indices().tolist() == sorted(expected)
        assert layout.continuous_count == layout.size - len(expected)


def box_excess(a, rhs, lower, upper):
    """``_box_excess`` of the dense rows ``a`` (one row may be given as a vector)."""
    a = sp.coo_matrix(np.atleast_2d(np.asarray(a, dtype=float)))
    return _box_excess(
        a.row, a.col, a.data, np.atleast_1d(rhs), np.asarray(lower, float), np.asarray(upper, float)
    )


class TestBigM:
    def test_single_variable(self):
        assert box_excess([1.0], 0.0, [-1.0], [2.0]) == pytest.approx([2.0])

    def test_corner_evaluation(self):
        assert box_excess([1.0, 1.0], 1.0, [0.0, 0.0], [3.0, 4.0]) == pytest.approx([6.0])

    def test_unbounded_variable_rejected(self):
        with pytest.raises(AssemblyError):
            box_excess([1.0], 0.0, [-np.inf], [1.0])

    def test_random_rows_match_corner_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            d = int(rng.integers(1, 11))
            a = rng.normal(size=(5, d))
            a[rng.random(a.shape) < 0.3] = 0.0
            lo = rng.uniform(-3, 0, d)
            hi = lo + rng.uniform(0.1, 3, d)
            b = rng.normal(size=5)
            corners = np.array(list(itertools.product(*zip(lo, hi))))
            brute = np.max(corners @ a.T, axis=0) - b
            assert box_excess(a, b, lo, hi) == pytest.approx(brute, abs=1e-10)


class TestAssemble:
    def test_translated_preset_keeps_its_rows_and_plans_clean(self):
        """The box rule reads each row with its constant (the start stance)
        folded into the rhs, so moving the whole scene keeps every decision."""
        scn = load_scenario(SCENARIO_DIR / "quadruped_tilted_terrain.json")
        shift = np.array([-3.0, -3.0, 0.0])
        moved = scn.with_overrides(
            regions=tuple(
                SafeRegion(r.a_matrix, r.b_vector + r.a_matrix @ shift, r.name,
                           bbox=(r.bbox[0] + shift, r.bbox[1] + shift))
                for r in scn.regions
            ),
            start_footholds=scn.start_footholds + shift,
            goal_position=scn.goal_position + shift,
            workspace_box=(scn.workspace_box[0] + shift, scn.workspace_box[1] + shift),
        )

        def row_counts(scenario):
            prob = assemble(scenario.with_overrides(max_steps=16))
            return {f: prob.ineq_families.count(f) for f in ("geometric", "reachability")}

        assert row_counts(moved) == row_counts(scn)
        report = validate_plan(plan(moved), moved)
        assert report.ok, report.summary()

    def test_pins_match_per_step_rules(self):
        """Region and trim pins equal the per-step, per-leg loop statement."""
        base = load_scenario(SCENARIO_DIR / "quadruped_stepping_stones.json")
        near_goal = base.goal_position.copy()
        near_goal[:2] = base.start_footholds[:, :2].mean(axis=0) + [0.25, 0.0]
        scn = base.with_overrides(max_steps=16, goal_position=near_goal, goal_yaw=base.start_yaw)
        prob = assemble(scn)
        layout, n = prob.layout, scn.robot.n_legs
        goals = derive_leg_goals(scn.goal_position, scn.goal_yaw, scn.robot)
        can_trim = {}
        for i in range(16, 0, -1):
            feet = [layout.feet[i - 1, comp] for comp in range(3)]
            lo, hi = prob.lower[feet], prob.upper[feet]
            g = goals[leg_of(i, n) - 1]
            inside = bool(np.all((lo - 1e-9 <= g) & (g <= hi + 1e-9)))
            can_trim[i] = inside and can_trim.get(i + n, True)
            assert prob.upper[layout.trims[i - 1]] == float(can_trim[i])
            for r, reg in enumerate(scn.regions, start=1):
                # smallest a.x - b over the step box, per halfspace
                least = np.minimum(reg.a_matrix * lo, reg.a_matrix * hi).sum(axis=1) - reg.b_vector
                assert prob.upper[layout.regions[i - 1, r - 1]] == float(least.max() <= 1e-12)
        assert 0 < sum(can_trim.values()) < 16

    def test_variable_counts(self):
        scn = small_scenario()
        prob = assemble(scn)
        layout = prob.layout
        assert prob.n_vars == layout.size
        assert prob.binary_indices.tolist() == layout.binary_indices().tolist()
        assert np.all(prob.lower[prob.binary_indices] >= 0.0)
        assert np.all(prob.upper[prob.binary_indices] <= 1.0)

    def test_q_matrix_is_psd(self):
        prob = assemble(small_scenario())
        w = np.linalg.eigvalsh(prob.q_matrix.toarray())
        assert w.min() >= -1e-9

    def test_zero_weights_give_empty_q(self):
        prob = assemble(small_scenario(q_goal=np.zeros((4, 4)), q_r=np.zeros((2, 2))))
        assert prob.q_matrix.shape == (prob.n_vars, prob.n_vars)
        assert prob.q_matrix.nnz == 0

    def test_goal_outside_regions_rejected(self):
        with pytest.raises(InfeasibleScenarioError):
            assemble(small_scenario(goal_position=np.array([1.55, 0.6, 0.0])))

    @pytest.mark.parametrize("goal", [(0.5, 0.0), (1.3, 0.3), (1.55, 0.6), (0.7, -0.3)])
    def test_goal_gate_names_the_first_leg_outside_every_region(self, goal):
        # the legs of (1.3, 0.3) stand in the second region only; (0.7, -0.3)
        # leaves leg 4 alone outside both
        regions = (box_region("left", -0.7, 0.8, -0.7, 0.7), box_region("right", 0.6, 1.6, -0.2, 0.7))
        scn = small_scenario(regions=regions, goal_position=np.array([*goal, 0.0]))
        goals = derive_leg_goals(scn.goal_position, scn.goal_yaw, scn.robot)
        outside = [j for j in range(4) if not any(reg.contains(goals[j]) for reg in regions)]
        if not outside:
            assemble(scn)
            return
        j = outside[0]
        message = f"goal foothold of leg {j + 1} at {goals[j].tolist()} lies outside every safe region"
        with pytest.raises(InfeasibleScenarioError, match=f"^{re.escape(message)}$"):
            assemble(scn)

    def test_all_trimmed_solution_when_start_equals_goal(self):
        robot = quadruped()
        goal = np.array([0.0, 0.0, 0.0])
        goals = derive_leg_goals(goal, 0.0, robot)
        scn = small_scenario(
            start_footholds=goals,
            goal_position=goal,
        )
        prob = assemble(scn)
        layout = prob.layout
        sin_t, cos_t = scenario_tables(scn)
        x = np.zeros(prob.n_vars)
        for i in range(1, 9):
            leg = leg_of(i, robot.n_legs)
            for comp in range(3):
                x[layout.feet[i - 1, comp]] = goals[leg - 1][comp]
            x[layout.trims[i - 1]] = 1.0
            x[layout.regions[i - 1, 0]] = 1.0
        for c in (1, 2):
            x[layout.thetas[c - 1]] = 0.0
            x[layout.sines[c - 1]] = sin_t.eval(0.0)
            x[layout.cosines[c - 1]] = cos_t.eval(0.0)
            k = sin_t.segment_of(0.0) + 1
            x[layout.sin_segments[c - 1, k - 1]] = 1.0
            x[layout.cos_segments[c - 1, k - 1]] = 1.0
        report = validate_assignment(prob, x, 1e-9)
        assert report.ok, report.summary()
        # objective is exactly the trim reward: q_t * N
        assert prob.objective_value(x) == pytest.approx(scn.q_t * 8, abs=1e-12)

    def test_fixing_binaries_keeps_problem_convex(self):
        prob = assemble(small_scenario())
        w = np.linalg.eigvalsh(prob.q_matrix.toarray())
        assert w.min() >= -1e-9  # Q unchanged by fixing binaries: still PSD

    def test_big_m_rows_vacuous_when_region_unselected(self):
        # random workspace points must satisfy every region row with H = 0
        scn = small_scenario()
        prob = assemble(scn)
        layout = prob.layout
        rng = np.random.default_rng(3)
        lo, hi = scn.workspace_box
        a = prob.a_ineq.tocsr()
        region_rows = [
            r for r, fam in enumerate(prob.ineq_families)
            if fam == "region" and "hull" not in prob.ineq_labels[r] and " in " in prob.ineq_labels[r]
        ]
        for _ in range(20):
            x = np.zeros(prob.n_vars)
            for i in range(1, 9):
                for comp in range(3):
                    # within the per-step bound box, which big-M rows use
                    x[layout.feet[i - 1, comp]] = rng.uniform(
                        prob.lower[layout.feet[i - 1, comp]], prob.upper[layout.feet[i - 1, comp]]
                    )
            resid = a[region_rows] @ x - prob.b_ineq[region_rows]
            assert np.max(resid) <= 1e-9

    def test_counting_example_formula(self):
        # binary count for a 12-step hexapod with 13 regions and 8 segments
        robot = RobotModel(
            n_legs=6,
            leg_offsets=(0.0, math.pi / 3, 2 * math.pi / 3, -math.pi, -2 * math.pi / 3, -math.pi / 3),
            l_leg=0.25,
            l_bnd=0.13,
            d_lim=0.26,
            dz_max=0.1,
        )
        regions = tuple(
            box_region(f"r{k}", -0.8 + 0.25 * k, -0.5 + 0.25 * k, -0.7, 0.7) for k in range(13)
        )
        scn = Scenario(
            robot=robot,
            regions=regions,
            start_footholds=nominal_stance(robot),
            start_yaw=0.0,
            goal_position=np.array([1.9, 0.0, 0.0]),
            goal_yaw=0.0,
            max_steps=12,
            theta_range=(-0.9, 0.9),
            n_segments=8,
            q_goal=np.diag([8.0, 8.0, 8.0, 3.0]),
            q_t=-0.2,
            q_r=0.05 * np.eye(2),
            workspace_box=(np.array([-0.9, -0.8, -0.06]), np.array([2.8, 0.8, 0.06])),
        )
        prob = assemble(scn)
        assert len(prob.binary_indices) == 200
        assert prob.n_vars - len(prob.binary_indices) == 42

    def test_max_steps_not_multiple_rejected(self):
        scn = small_scenario()
        object.__setattr__(scn, "max_steps", 9)
        with pytest.raises(ContractViolation):
            assemble(scn)


class TestRoundingHeuristic:
    def test_root_candidates_are_one_hot(self):
        base = load_scenario(SCENARIO_DIR / "quadruped_stepping_stones.json")
        # the preset itself, then a goal 0.25 m ahead of the start whose yaw
        # lies outside theta_range (0.9): at yaw 0.8 its first candidate
        # trims 14 steps, at 1.0 no configuration can take the goal yaw
        near_goal = base.goal_position.copy()
        near_goal[:2] = base.start_footholds[:, :2].mean(axis=0) + [0.25, 0.0]
        for goal_position, goal_yaw in ((base.goal_position, base.goal_yaw), (near_goal, 1.0)):
            scn = base.with_overrides(
                max_steps=4 * base.robot.n_legs, goal_position=goal_position, goal_yaw=goal_yaw
            )
            prob = assemble(scn)
            layout = prob.layout
            root = BoxQp.from_miqp(prob).solve()
            assert root.status == "optimal"
            cands = make_rounding_heuristic(scn, prob)(root.x, {})
            # complete with and without trims, then the straight walks
            assert len(cands) >= 3
            steps = range(1, layout.n_steps + 1)
            for cand in cands:
                for i in steps:
                    assert sum(cand[k] for k in layout.regions[i - 1].tolist()) == 1.0
                for c in range(layout.n_configs):
                    for segs in (layout.sin_segments, layout.cos_segments):
                        assert sum(cand[k] for k in segs[c].tolist()) == 1.0
            # every candidate after the first is built with trims off, and
            # none trims when the goal yaw is out of range
            untrimmed = cands if goal_yaw > scn.theta_range[1] else cands[1:]
            for cand in untrimmed:
                assert all(cand[layout.trims[i - 1]] == 0.0 for i in steps)

    @pytest.mark.parametrize("preset", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
    def test_candidates_match_the_variable_by_variable_completion(self, preset):
        base = load_scenario(SCENARIO_DIR / f"{preset}.json")
        scn = base.with_overrides(max_steps=4 * base.robot.n_legs)
        prob = assemble(scn)
        root = BoxQp.from_miqp(prob).solve()
        hook = make_rounding_heuristic(scn, prob)
        free = prob.binary_indices[prob.lower[prob.binary_indices] < prob.upper[prob.binary_indices]]
        rng = np.random.default_rng(len(preset))
        cases = [(root.x, {})]
        for _ in range(40):
            # a relaxed point near the root's, some of it on the 0.5 rounding edge
            x = root.x + rng.normal(size=root.x.size) * rng.choice([0.0, 0.02, 0.3])
            x[rng.random(x.size) < 0.1] = 0.5
            pick = rng.choice(free, size=int(rng.integers(1, min(free.size, 30))), replace=False)
            cases.append((x, {int(i): float(rng.integers(0, 2)) for i in pick}))
        for x, fixings in cases:
            got = hook(x, fixings)
            ref = reference_candidates(scn, prob, x, fixings)
            assert [list(c.items()) for c in got] == [list(c.items()) for c in ref]

    @pytest.mark.parametrize("preset", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
    def test_candidates_fix_every_binary(self, preset_plans, preset):
        # the tree relaxes each candidate as the hook returns it
        for chunk in preset_plans[preset].result.chunks:
            prob = assemble(chunk.scenario)
            root = BoxQp.from_miqp(prob).solve()
            tree = _Tree(prob, MiqpLimits())
            hook = make_rounding_heuristic(chunk.scenario, prob)
            binaries = set(prob.binary_indices.tolist())
            fixings = level = [{}]
            for _ in range(3):  # the child fixing sets of three branchings
                level = [{**f, **child} for f in level for child in tree.branch(root.x, f) or ()]
                fixings = fixings + level
            assert len(fixings) == 15
            for f in fixings:
                cands = hook(root.x, f)
                assert cands and all(binaries <= c.keys() for c in cands)


def reference_candidates(scn, prob, x, fixings):
    """The rounding candidates built one variable at a time.

    Trims close as suffixes of each leg's chain, walked from the tail; a
    configuration with a trimmed step takes the goal yaw; each sine and cosine
    segment is the one fixed to 1, else the one holding the yaw, else (when
    that one is fixed to 0) the open one nearest it; each step's region is the
    one fixed to 1, else the open region of least ``SafeRegion.violation`` at
    the step's relaxed position, ties to the larger indicator value, then to
    the lower region. At the root, two straight walks at strides 1.0 and 0.8
    follow the completions with and without trims.
    """
    layout, robot, n = prob.layout, scn.robot, prob.layout.n_legs
    sin_t, cos_t = scenario_tables(scn)
    lo_t, hi_t = scn.theta_range

    def value(x, fixings, idx):
        if idx in fixings:
            return fixings[idx]
        return float(prob.lower[idx]) if prob.lower[idx] == prob.upper[idx] else float(x[idx])

    def is_open(fixings, idx):
        return fixings.get(idx) != 0.0 and prob.upper[idx] > 0.0

    def complete(x, fixings, with_trims):
        out = dict(fixings)
        trimmed = {}
        for leg in range(1, n + 1):
            chain_open = True
            for i in range(layout.n_steps - n + leg, 0, -n):
                idx = int(layout.trims[i - 1])
                want = value(x, fixings, idx) > 0.5 if with_trims else fixings.get(idx) == 1.0
                trimmed[i] = chain_open = want and chain_open
                out[idx] = 1.0 if trimmed[i] else 0.0
        for cfg in range(1, layout.n_configs + 1):
            if any(trimmed[i] for i in range((cfg - 1) * n + 1, cfg * n + 1)):
                theta = float(scn.goal_yaw)
            else:
                theta = min(max(float(x[layout.thetas[cfg - 1]]), lo_t), hi_t)
            for table, blocks in ((sin_t, layout.sin_segments), (cos_t, layout.cos_segments)):
                segs = blocks[cfg - 1].tolist()
                ones = [k for k, idx in enumerate(segs) if fixings.get(idx) == 1.0]
                if ones:
                    chosen = ones[0]
                else:
                    chosen = home = table.segment_of(theta)
                    if fixings.get(segs[home]) == 0.0:
                        others = [k for k, idx in enumerate(segs) if is_open(fixings, idx)]
                        if others:
                            chosen = min(others, key=lambda k: abs(k - home))
                for k, idx in enumerate(segs):
                    if idx not in fixings:
                        out[idx] = 1.0 if k == chosen else 0.0
        for i in range(1, layout.n_steps + 1):
            regs = layout.regions[i - 1].tolist()
            ones = [r for r, idx in enumerate(regs) if fixings.get(idx) == 1.0]
            chosen = ones[0] if ones else None
            if chosen is None:
                point = [x[layout.feet[i - 1, c]] for c in range(3)]
                best = None
                for r, idx in enumerate(regs):
                    if not is_open(fixings, idx):
                        continue
                    key = (scn.regions[r].violation(point), -value(x, fixings, idx))
                    if best is None or key < best[0]:
                        best = (key, r)
                chosen = None if best is None else best[1]
            for r, idx in enumerate(regs):
                if idx not in fixings:
                    out[idx] = 1.0 if r == chosen else 0.0
        return out

    def straight_walk(stride_factor):
        start = coc(scn.start_footholds)
        direction = scn.goal_position[:2] - start
        dist = float(np.linalg.norm(direction))
        direction = direction / dist if dist > 1e-12 else np.zeros(2)
        want_turn = wrap_angle(scn.goal_yaw - scn.start_yaw)
        budget = 0.5 * (robot.d_lim + robot.l_bnd - robot.l_leg / max(n - 1, 1))
        rate = min(0.3 * budget / robot.l_leg, abs(want_turn) / max(layout.n_configs - 1, 1))
        walk = np.zeros(prob.n_vars)
        travel = 0.0
        for cfg in range(1, layout.n_configs + 1):
            travel = min(travel + max(stride_factor * budget - robot.l_leg * rate, 0.15 * budget), dist)
            theta = min(max(scn.start_yaw + min(max(want_turn, -rate * cfg), rate * cfg), lo_t), hi_t)
            walk[layout.thetas[cfg - 1]] = theta
            for leg in range(1, n + 1):
                i = (cfg - 1) * n + leg
                foot = nominal_position(start + travel * direction, theta, leg, robot)
                walk[layout.feet[i - 1, 0]], walk[layout.feet[i - 1, 1]] = foot
                walk[layout.feet[i - 1, 2]] = scn.goal_position[2]
        return complete(walk, {}, False)

    tries = [complete(x, fixings, True), complete(x, fixings, False)]
    if not fixings:
        tries += [straight_walk(1.0), straight_walk(0.8)]
    unique = []
    for cand in tries:
        if cand not in unique:
            unique.append(cand)
    return unique

def family_scenario(preset, n_configs, start):
    """Preset ``preset`` cut to ``n_configs`` configurations.

    Every preset starts level, at yaw 0, in a symmetric stance. With
    ``start="irregular"`` leg j's start foot moves by its own xy and z offset
    and the start yaw turns by 0.1, so that a CoC window constant, a reach
    box's start nominal or a dz row that reads another leg's start foot, or
    drops the start yaw, assembles other rows.
    """
    base = load_scenario(SCENARIO_DIR / f"{preset}.json")
    scn = base.with_overrides(max_steps=n_configs * base.robot.n_legs)
    if start == "irregular":
        j = np.arange(1, base.robot.n_legs + 1, dtype=float)[:, None]
        offsets = np.hstack([0.01 * j * (-1.0) ** j, -0.007 * j, 0.006 * j - 0.02])
        scn = scn.with_overrides(start_footholds=scn.start_footholds + offsets, start_yaw=0.1)
    return scn


def reference_step_boxes(scn):
    """Footstep boxes propagated step by step from the exact nominal-position
    helper, the chord tables' knot ranges and the CoC window (the n_legs - 1
    steps before each step).

    The linearized nominal offset of a leg is its yaw-0 offset turned by the
    (cos, sin) variable pair; it is linear in that pair, so its range over the
    knot-range box is taken at the box's four corners.
    """
    robot = scn.robot
    n = robot.n_legs
    sin_t, cos_t = scenario_tables(scn)
    s_knots, c_knots = np.sin(sin_t.breakpoints), np.cos(cos_t.breakpoints)
    corners = [(c, s) for c in (c_knots.min(), c_knots.max()) for s in (s_knots.min(), s_knots.max())]
    ws_lo, ws_hi = scn.workspace_box
    start = scn.start_footholds
    lo = {k: start[(k - 1) % n] for k in range(1 - n, 1)}
    hi = dict(lo)

    def nominal_box(step):
        leg = (step - 1) % n + 1
        if step < 1:
            p = nominal_position(start[:, :2].mean(axis=0), scn.start_yaw, leg, robot)
            return p, p
        window = range(step - n + 1, step)
        coc_lo = sum(lo[k][:2] for k in window) / len(window)
        coc_hi = sum(hi[k][:2] for k in window) / len(window)
        u = nominal_position((0.0, 0.0), 0.0, leg, robot)
        offsets = np.array([[c * u[0] - s * u[1], s * u[0] + c * u[1]] for c, s in corners])
        return coc_lo + offsets.min(axis=0), coc_hi + offsets.max(axis=0)

    for i in range(1, scn.max_steps + 1):
        prev = i - n
        reach_lo, reach_hi = nominal_box(prev)
        xy_lo = np.maximum(ws_lo[:2], reach_lo - robot.d_lim)
        xy_hi = np.minimum(ws_hi[:2], reach_hi + robot.d_lim)
        ref_lo, ref_hi = nominal_box(i)
        xy_lo = np.maximum(xy_lo, ref_lo - robot.l_bnd)
        xy_hi = np.minimum(xy_hi, ref_hi + robot.l_bnd)
        lo[i] = np.append(xy_lo, max(ws_lo[2], lo[prev][2] - robot.dz_max))
        hi[i] = np.append(xy_hi, min(ws_hi[2], hi[prev][2] + robot.dz_max))
    steps = range(1, scn.max_steps + 1)
    return np.array([lo[i] for i in steps]), np.array([hi[i] for i in steps])


class TestStepBoxes:
    @pytest.mark.parametrize("start", ["preset", "irregular"])
    @pytest.mark.parametrize("n_configs", [1, 2, 4])
    @pytest.mark.parametrize("preset", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
    def test_foot_bounds_match_reference_propagation(self, preset, n_configs, start):
        scn = family_scenario(preset, n_configs, start)
        prob = assemble(scn)
        ref_lo, ref_hi = reference_step_boxes(scn)
        feet = slice(0, 3 * scn.max_steps)
        np.testing.assert_allclose(prob.lower[feet].reshape(-1, 3), ref_lo, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prob.upper[feet].reshape(-1, 3), ref_hi, rtol=0, atol=1e-12)

    def test_empty_step_box_names_the_step(self):
        # all four legs start on the origin, so step 1 (leg 1) must land
        # within d_lim = 0.1 of its nominal foothold (0.2, 0.2): x >= 0.1,
        # beyond the workspace box's x <= 0.05
        scn = small_scenario(
            robot=replace(quadruped(), d_lim=0.1),
            start_footholds=np.zeros((4, 3)),
            goal_position=np.zeros(3),
            workspace_box=(np.array([-0.7, -0.7, -0.06]), np.array([0.05, 0.7, 0.06])),
        )
        message = "step 1 has no reachable position inside the workspace box"
        with pytest.raises(InfeasibleScenarioError, match=f"^{message}$"):
            assemble(scn)


def reference_family_rows(scn, prob):
    """The region, trig and trim rows of ``scn``, written one at a time.

    Returns the inequalities by family, each as (family, label,
    {column: coefficient}, rhs, indicator binary or None), and the
    equalities as (family, label, {column: coefficient}, rhs), in assembly
    order: per step its region
    rows (every region, every halfspace) and hull rows; per configuration,
    sine then cosine, each segment's theta hi / lo and chord +/- rows, the
    four envelope rows and the chord-graph hull rows; per step its trim pins,
    then its monotone row. Region rows of a region pinned out of a step are
    listed too: the box rule drops them.
    """
    layout, n = prob.layout, scn.robot.n_legs
    steps, configs = range(1, layout.n_steps + 1), range(1, layout.n_configs + 1)
    regions = range(1, layout.n_regions + 1)
    ineq = {"region": [], "trig": [], "trim": []}
    eq = []
    for i in steps:
        eq.append(("region", f"step {i} region choice", {layout.regions[i - 1, r - 1]: 1.0 for r in regions}, 1.0))
        for r, reg in zip(regions, scn.regions):
            for row in range(reg.n_rows):
                coefs = {layout.feet[i - 1, c]: float(reg.a_matrix[row, c]) for c in range(3)}
                label = f"step {i} in {reg.name} row {row}"
                ineq["region"].append(("region", label, coefs, float(reg.b_vector[row]), layout.regions[i - 1, r - 1]))
        if all(reg.bbox is not None for reg in scn.regions):
            for c, tag in enumerate("xyz"):
                upper = {layout.feet[i - 1, c]: 1.0}
                lower = {layout.feet[i - 1, c]: -1.0}
                for r, reg in zip(regions, scn.regions):
                    upper[layout.regions[i - 1, r - 1]] = -float(reg.bbox[1][c])
                    lower[layout.regions[i - 1, r - 1]] = float(reg.bbox[0][c])
                ineq["region"].append(("region", f"step {i} region hull +{tag}", upper, 0.0, None))
                ineq["region"].append(("region", f"step {i} region hull -{tag}", lower, 0.0, None))
    sin_t, cos_t = scenario_tables(scn)
    for cfg in configs:
        th = layout.thetas[cfg - 1]
        for table, tag, val, blocks in (
            (sin_t, "sin", layout.sines[cfg - 1], layout.sin_segments),
            (cos_t, "cos", layout.cosines[cfg - 1], layout.cos_segments),
        ):
            segs = range(1, layout.n_segments + 1)
            eq.append(("trig", f"config {cfg} {tag} segment choice", {blocks[cfg - 1, k - 1]: 1.0 for k in segs}, 1.0))
            knots = [(float(t), table.eval(float(t))) for t in table.breakpoints]
            envelope = [{th: 1.0}, {th: -1.0}, {val: 1.0}, {val: -1.0}]
            for k in segs:
                (t0, v0), (t1, v1) = knots[k - 1], knots[k]
                m, c = float(table.slopes[k - 1]), float(table.intercepts[k - 1])
                b, name = blocks[cfg - 1, k - 1], f"config {cfg} {tag} seg {k}"
                ineq["trig"] += [
                    ("trig", f"{name} theta hi", {th: 1.0}, t1, b),
                    ("trig", f"{name} theta lo", {th: -1.0}, -t0, b),
                    ("trig", f"{name} chord +", {th: -m, val: 1.0}, c, b),
                    ("trig", f"{name} chord -", {th: m, val: -1.0}, -c, b),
                ]
                for row, coef in zip(envelope, (-t1, t0, -max(v0, v1), min(v0, v1))):
                    row[b] = coef
            for row, side in zip(envelope, ("theta hi", "theta lo", "value hi", "value lo")):
                ineq["trig"].append(("trig", f"config {cfg} {tag} envelope {side}", row, 0.0, None))
            for e, (m_e, b_e, is_up) in enumerate(_graph_hull_edges(knots)):
                sign = 1.0 if is_up else -1.0
                label = f"config {cfg} {tag} hull {'upper' if is_up else 'lower'} {e}"
                ineq["trig"].append(("trig", label, {th: -sign * m_e, val: sign}, sign * b_e, None))
    goals = derive_leg_goals(scn.goal_position, scn.goal_yaw, scn.robot)
    for i in steps:
        goal = goals[leg_of(i, n) - 1]
        yaw = layout.thetas[(i - 1) // n]
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            for c, name in enumerate("xyz"):
                ineq["trim"].append((
                    "trim", f"step {i} trim pin {tag}{name}", {layout.feet[i - 1, c]: sign},
                    sign * float(goal[c]), layout.trims[i - 1],
                ))
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            ineq["trim"].append((
                "trim", f"step {i} trim pin {tag}yaw", {yaw: sign}, sign * float(scn.goal_yaw), layout.trims[i - 1],
            ))
        if i + n <= layout.n_steps:
            mono = {layout.trims[i - 1]: 1.0, layout.trims[i + n - 1]: -1.0}
            ineq["trim"].append(("trim", f"trim monotone {i} <= {i + n}", mono, 0.0, None))
    return ineq, eq


def reference_pair_rows(scn, prob):
    """The reference-box, reach and dz row pairs of ``scn``, written one at a time.

    Each step's linearized nominal foothold per xy component is the mean of
    its CoC window's feet, the n_legs - 1 steps before it (start feet,
    summed in window order, as a constant), plus the leg offset turned by the configuration's cosine and
    sine variables. A pair  |foot - e| <= lim  is the row  foot - e <= lim
    and its negation. Returns (family, label, {column: coefficient}, rhs,
    None) in assembly order: every step's reference-box pairs (x, then y),
    then every step's reach pairs (x, then y) and its dz pair.
    """
    layout, robot = prob.layout, scn.robot
    n, start = robot.n_legs, scn.start_footholds.tolist()
    start_coc = coc(scn.start_footholds)

    def nominal(i, comp):
        window = range(i - n + 1, i)
        coefs, const = {}, 0.0
        for k in window:
            if k >= 1:
                coefs[layout.feet[k - 1, comp]] = 1.0 / len(window)
            else:
                const += 1.0 / len(window) * start[(k - 1) % n][comp]
        phi, cfg = robot.leg_offsets[(i - 1) % n], (i - 1) // n + 1
        c, s = robot.l_leg * math.cos(phi), robot.l_leg * math.sin(phi)
        if comp == 0:
            coefs[layout.cosines[cfg - 1]], coefs[layout.sines[cfg - 1]] = c, -s
        else:
            coefs[layout.sines[cfg - 1]], coefs[layout.cosines[cfg - 1]] = c, s
        return coefs, const

    def pair(family, label, i, comp, e, lim):
        coefs, const = e
        row = {layout.feet[i - 1, comp]: 1.0}
        for col, v in coefs.items():
            row[col] = row.get(col, 0.0) - v
        tag = ("x", "y", "")[comp]
        return [
            (family, f"{label} +{tag}", row, lim + const, None),
            (family, f"{label} -{tag}", {col: -v for col, v in row.items()}, lim - const, None),
        ]

    geometric, reachability = [], []
    for i in range(1, layout.n_steps + 1):
        leg = (i - 1) % n + 1
        for comp in range(2):
            geometric += pair("geometric", f"step {i} ref box", i, comp, nominal(i, comp), robot.l_bnd)
        for comp in range(2):
            if i > n:
                e = nominal(i - n, comp)
            else:
                e = {}, float(nominal_position(start_coc, scn.start_yaw, leg, robot)[comp])
            reachability += pair("reachability", f"step {i} reach", i, comp, e, robot.d_lim)
        e = ({layout.feet[i - n - 1, 2]: 1.0}, 0.0) if i > n else ({}, start[leg - 1][2])
        reachability += pair("reachability", f"step {i} dz", i, 2, e, robot.dz_max)
    return geometric + reachability


def kept_by_box_rule(rows, lower, upper):
    """(label, columns, coefficients, rhs) of the rows the big-M box rule keeps.

    A row's box excess (its largest a.x - rhs over the bounds, summed in
    column order) is the M of its indicator b, added as the last entry and
    to the rhs; a row is kept when that excess, times the upper bound of b,
    exceeds 1e-12."""
    kept = []
    for _, label, coefs, rhs, binary in rows:
        cols = sorted(col for col, coef in coefs.items() if coef != 0.0)
        vals = [coefs[col] for col in cols]
        excess = 0.0
        for col, coef in zip(cols, vals):
            excess += max(coef * lower[col], coef * upper[col])
        excess -= rhs
        if binary is None:
            if excess > 1e-12:
                kept.append((label, cols, vals, rhs))
        elif excess * upper[binary] > 1e-12:
            kept.append((label, cols + [binary], vals + [excess], rhs + excess))
    return kept


def problem_rows(matrix, rhs, labels, families, family):
    """(label, columns, coefficients, rhs) of the rows of ``family``."""
    return [
        (labels[r], matrix.indices[matrix.indptr[r] : matrix.indptr[r + 1]].tolist(),
         matrix.data[matrix.indptr[r] : matrix.indptr[r + 1]].tolist(), float(rhs[r]))
        for r in range(len(labels)) if families[r] == family
    ]


class TestPairRows:
    @pytest.mark.parametrize("start", ["preset", "irregular"])
    @pytest.mark.parametrize("n_configs", [1, 2, 4])
    @pytest.mark.parametrize("preset", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
    def test_geometric_and_reachability_rows_match_row_by_row_reference(self, preset, n_configs, start):
        scn = family_scenario(preset, n_configs, start)
        prob = assemble(scn)
        rows = reference_pair_rows(scn, prob)
        lower, upper = prob.lower.tolist(), prob.upper.tolist()
        for family in ("geometric", "reachability"):
            got = problem_rows(prob.a_ineq, prob.b_ineq, prob.ineq_labels, prob.ineq_families, family)
            want = kept_by_box_rule([row for row in rows if row[0] == family], lower, upper)
            assert got == want, family
        # every geometric row, then every reachability row, before the others
        families = [fam for fam in prob.ineq_families if fam in ("geometric", "reachability")]
        assert list(prob.ineq_families[: len(families)]) == sorted(families)


class TestFamilyRows:
    @pytest.mark.parametrize("start", ["preset", "irregular"])
    @pytest.mark.parametrize("n_configs", [1, 2, 4])
    @pytest.mark.parametrize("preset", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
    def test_region_trig_and_trim_rows_match_row_by_row_reference(self, preset, n_configs, start):
        scn = family_scenario(preset, n_configs, start)
        prob = assemble(scn)
        ineq, eq = reference_family_rows(scn, prob)
        lower, upper = prob.lower.tolist(), prob.upper.tolist()
        for family, rows in ineq.items():
            got = problem_rows(prob.a_ineq, prob.b_ineq, prob.ineq_labels, prob.ineq_families, family)
            assert got == kept_by_box_rule(rows, lower, upper), family
        want = [
            (label, sorted(coefs), [coefs[col] for col in sorted(coefs)], rhs)
            for family in ("region", "trig") for fam, label, coefs, rhs in eq if fam == family
        ]
        got = [row for family in ("region", "trig")
               for row in problem_rows(prob.a_eq, prob.b_eq, prob.eq_labels, prob.eq_families, family)]
        assert got == want
        assert prob.eq_families == tuple(fam for fam, *_ in eq)


def reference_objective(scn, prob):
    """Q, c and the constant of the goal cost, trim reward and CoC drift,
    summed term by term: each weight w = W[a, b] adds (w va) vb to Q at
    (ca, cb), (w va) const_b to c at ca, then (w const_a) vb at cb, and
    (w const_a) const_b to the constant; Q is then (q + q') / 2."""
    layout, n = prob.layout, scn.robot.n_legs
    q, c, constant = {}, [0.0] * prob.n_vars, 0.0

    def add(exprs, weight):
        nonlocal constant
        for (coefs_a, const_a), row in zip(exprs, weight.tolist()):
            for (coefs_b, const_b), w in zip(exprs, row):
                if w == 0.0:
                    continue
                for ca, va in coefs_a:
                    for cb, vb in coefs_b:
                        q[ca, cb] = q.get((ca, cb), 0.0) + w * va * vb
                    c[ca] += w * va * const_b
                for cb, vb in coefs_b:
                    c[cb] += w * const_a * vb
                constant += w * const_a * const_b

    goals = derive_leg_goals(scn.goal_position, scn.goal_yaw, scn.robot)
    for i in range(layout.n_steps - n + 1, layout.n_steps + 1):
        g = goals[leg_of(i, n) - 1]
        cols = [layout.feet[i - 1, 0], layout.feet[i - 1, 1], layout.feet[i - 1, 2], layout.thetas[layout.n_configs - 1]]
        add([([(col, 1.0)], -float(v)) for col, v in zip(cols, [*g, scn.goal_yaw])], scn.q_goal)
    for i in range(1, layout.n_steps + 1):
        c[layout.trims[i - 1]] += scn.q_t
    start = coc(scn.start_footholds)
    for cfg in range(1, layout.n_configs + 1):
        exprs = []
        for comp in range(2):
            coefs = [(layout.feet[i - 1, comp], 1.0 / n) for i in range((cfg - 1) * n + 1, cfg * n + 1)]
            if cfg == 1:
                exprs.append((coefs, 0.0 + -float(start[comp])))
            else:
                prev = [(layout.feet[i - 1, comp], -(1.0 / n)) for i in range((cfg - 2) * n + 1, (cfg - 1) * n + 1)]
                exprs.append((coefs + prev, 0.0))
        add(exprs, scn.q_r)
    sym = {}
    for (i, j), v in q.items():
        sym[i, j] = sym.get((i, j), 0.0) + v
        sym[j, i] = sym.get((j, i), 0.0) + v
    keys = sorted(key for key, v in sym.items() if v != 0.0)
    return [(i, j, 0.5 * sym[i, j]) for i, j in keys], c, constant


class TestObjective:
    @pytest.mark.parametrize("n_configs", [1, 2, 4])
    @pytest.mark.parametrize("preset", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
    def test_matches_term_by_term_sum(self, preset, n_configs):
        base = load_scenario(SCENARIO_DIR / f"{preset}.json")
        rng = np.random.default_rng(n_configs)
        m_goal, m_r = rng.normal(size=(4, 4)), rng.normal(size=(2, 2))
        for q_goal, q_r in ((base.q_goal, base.q_r), (m_goal @ m_goal.T, m_r @ m_r.T)):
            scn = base.with_overrides(max_steps=n_configs * base.robot.n_legs, q_goal=q_goal, q_r=q_r)
            prob = assemble(scn)
            q, c, constant = reference_objective(scn, prob)
            got = prob.q_matrix.tocoo()
            assert list(zip(got.row.tolist(), got.col.tolist(), got.data.tolist())) == q
            assert prob.c_vector.tolist() == c
            assert prob.objective_constant == constant


class TestValidateAssignment:
    def test_flags_region_choice_row(self):
        scn = small_scenario()
        prob = assemble(scn)
        x = np.zeros(prob.n_vars)
        report = validate_assignment(prob, x, 1e-6)
        assert not report.ok
        assert any(v.family == "region" and v.kind == "eq" for v in report.violations)

    def test_flags_dz_rows_after_perturbation(self):
        scn = small_scenario()
        prob = assemble(scn)
        layout = prob.layout
        goals = derive_leg_goals(scn.goal_position, scn.goal_yaw, scn.robot)
        # build the feasible all-trim assignment of the start=goal variant
        scn2 = small_scenario(start_footholds=goals, goal_position=scn.goal_position)
        prob2 = assemble(scn2)
        from stepplan.formulation import scenario_tables

        sin_t, cos_t = scenario_tables(scn2)
        x = np.zeros(prob2.n_vars)
        for i in range(1, 9):
            leg = leg_of(i, scn2.robot.n_legs)
            for comp in range(3):
                x[layout.feet[i - 1, comp]] = goals[leg - 1][comp]
            x[layout.trims[i - 1]] = 1.0
            x[layout.regions[i - 1, 0]] = 1.0
        for c in (1, 2):
            x[layout.sines[c - 1]] = sin_t.eval(0.0)
            x[layout.cosines[c - 1]] = cos_t.eval(0.0)
            k = sin_t.segment_of(0.0) + 1
            x[layout.sin_segments[c - 1, k - 1]] = 1.0
            x[layout.cos_segments[c - 1, k - 1]] = 1.0
        assert validate_assignment(prob2, x, 1e-6).ok
        x2 = x.copy()
        x2[layout.feet[4, 2]] += 2 * scn2.robot.dz_max
        report = validate_assignment(prob2, x2, 1e-6)
        assert any(v.family == "reachability" and "dz" in v.label for v in report.violations)

    def test_flags_fractional_binaries(self):
        scn = small_scenario()
        prob = assemble(scn)
        x = np.zeros(prob.n_vars)
        x[prob.layout.regions[0, 0]] = 0.4
        report = validate_assignment(prob, x, 1e-6)
        assert any(v.family == "integrality" for v in report.violations)

    def test_non_finite_entries_are_violations(self):
        scn = load_scenario(SCENARIO_DIR / "quadruped_tilted_terrain.json").with_overrides(max_steps=4)
        prob = assemble(scn)
        for value in (np.nan, np.inf, -np.inf):
            report = validate_assignment(prob, np.full(prob.n_vars, value), 1e-6)
            assert not report.ok
            flagged = [v for v in report.violations if v.label.endswith(" not finite")]
            assert [v.index for v in flagged] == list(range(prob.n_vars))
            assert all(v.family == "bounds" and v.kind == "bound" for v in flagged)
        x = 0.5 * (prob.lower + prob.upper)  # within every bound
        x[prob.layout.feet[1, 1]] = np.nan
        report = validate_assignment(prob, x, 1e-6)
        assert [v.label for v in report.violations if v.family == "bounds"] == ["f2y not finite"]

    def test_wrong_length_rejected(self):
        prob = assemble(small_scenario())
        with pytest.raises(ContractViolation):
            validate_assignment(prob, np.zeros(3), 1e-6)
