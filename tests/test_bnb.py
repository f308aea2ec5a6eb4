import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import enumerated_optimum, make_problem, random_instance, slsqp_reference, with_flat_column
from stepplan import bnb, qp
from stepplan.bnb import (
    BRUTE_FORCE_MAX_BINARIES,
    MiqpLimits,
    brute_force_solve,
    solve_miqp,
)
from stepplan.errors import ContractViolation
from stepplan.formulation import assemble, make_rounding_heuristic, validate_assignment
from stepplan.lp_export import problem_to_lp
from stepplan.qp import BoxQp

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "stepplan" / "scenarios"


class TestSolveMiqp:
    def test_all_binaries_prefixed_is_single_qp(self):
        prob = make_problem(
            np.eye(2), [0.0, 0.1], lb=[-1.0, 1.0], ub=[1.0, 1.0], bins=[1]
        )
        sol = solve_miqp(prob)
        assert sol.status == "optimal"
        assert sol.nodes == 1
        assert sol.x[1] == 1.0

    def test_big_m_toggle(self):
        # binary gates the row x <= 0; paying 0.1 for b=1 frees x to reach 0.7
        prob = make_problem(
            [[1.0, 0.0], [0.0, 0.0]],
            [-1.4, 0.1],
            const=0.49,
            lb=[0.0, 0.0],
            ub=[1.0, 1.0],
            bins=[1],
            a_in=[[1.0, -1.0]],
            b_in=[0.0],
        )
        sol = solve_miqp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.1, abs=1e-6)
        assert sol.x[1] == 1.0

    def test_infeasible_problem(self):
        prob = make_problem(
            [[1.0]], [0.0], lb=[0.0], ub=[1.0], a_in=[[1.0], [-1.0]], b_in=[-2.0, -2.0]
        )
        sol = solve_miqp(prob)
        assert sol.status == "infeasible"
        assert not sol.feasible

    @pytest.mark.parametrize("max_nodes", [1, 2, 4])
    def test_node_limit_status(self, max_nodes):
        rng = np.random.default_rng(77)
        prob = random_instance(rng)
        sol = solve_miqp(prob, limits=MiqpLimits(max_nodes=max_nodes))
        assert sol.status in ("node-limit", "optimal", "gap-limit")
        # the cap is checked before each pop, and a pop solves both children
        assert sol.nodes <= max_nodes + 1

    def test_time_limit_status(self, monkeypatch):
        rng = np.random.default_rng(77)
        prob = random_instance(rng)
        assert solve_miqp(prob).nodes > 1  # the unlimited tree pops
        ticks = itertools.count()
        monkeypatch.setattr(bnb.time, "perf_counter", lambda: float(next(ticks)))  # 1 s per call
        sol = solve_miqp(prob, limits=MiqpLimits(time_limit=0.5))
        assert sol.status == "time-limit" and sol.nodes == 1
        if sol.feasible:
            assert sol.best_bound <= sol.objective

    def test_incumbent_binaries_exactly_integral(self):
        rng = np.random.default_rng(123)
        prob = random_instance(rng)
        sol = solve_miqp(prob)
        assert sol.feasible
        vals = sol.x[prob.binary_indices]
        assert np.all((vals == 0.0) | (vals == 1.0))

    def test_determinism(self):
        rng = np.random.default_rng(9)
        prob = random_instance(rng)
        a = solve_miqp(prob)
        b = solve_miqp(prob)
        assert a.nodes == b.nodes
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)


class TestRoundingContract:
    """A rounding candidate must pin every free binary to 0 or 1. Relaxed
    as it is, one that does not gives a point that is not integral, and kept
    as an incumbent it could end the tree "optimal" below brute force's
    optimum, with rows violated."""

    HOOKS = {
        "none pinned": lambda free: lambda x, f: [dict(f)],
        "first unpinned": lambda free: lambda x, f: [{**{i: 1.0 for i in free[1:]}, **f}],
        "pinned at 0.5": lambda free: lambda x, f: [{**{i: 0.5 for i in free}, **f}],
        "pinned at 2": lambda free: lambda x, f: [{**{i: 2.0 for i in free}, **f}],
    }

    @pytest.mark.parametrize("hook", HOOKS)
    def test_a_candidate_off_the_binaries_is_a_contract_violation(self, hook):
        rng = np.random.default_rng(3)
        for _ in range(10):
            prob = random_instance(rng)
            with pytest.raises(ContractViolation, match="rounding candidate"):
                solve_miqp(prob, rounding=self.HOOKS[hook](prob.binary_indices.tolist()))

    def test_a_complete_candidate_is_kept(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            prob = random_instance(rng)
            free = prob.binary_indices.tolist()
            # every binary at 0, as numpy and Python numbers: no candidate the generic hook would give
            sol = solve_miqp(prob, rounding=lambda x, f: [{**{np.int64(i): np.float64(0.0) for i in free}, **f}])
            assert sol.status in ("optimal", "infeasible")
            if sol.feasible:
                assert validate_assignment(prob, sol.x).ok


class TestBranch:
    def test_children_split_the_most_fractional_free_binary(self):
        # 0 is continuous, 1 a binary pinned by its bounds, 2-6 free binaries
        prob = make_problem(np.eye(7), np.zeros(7), lb=[-1.0, 1.0] + [0.0] * 5, ub=[1.0] * 7, bins=range(1, 7))
        tree = bnb._Tree(prob, MiqpLimits())
        x = np.array([0.5, 0.5, 0.3, 0.6, 0.6 - 1e-16, 1.0 - 0.5 * bnb.INT_TOL, 0.5])
        assert tree.branch(x, {}) == ({6: 0.0}, {6: 1.0})
        # 3 and 4 tie within 1e-15: the lower index wins
        assert tree.branch(x, {6: 1.0}) == ({3: 0.0}, {3: 1.0})
        assert tree.branch(x, {6: 1.0, 3: 0.0}) == ({4: 0.0}, {4: 1.0})
        assert tree.branch(x, {6: 1.0, 3: 0.0, 4: 1.0}) == ({2: 0.0}, {2: 1.0})
        # 5 lies within INT_TOL of 1
        assert tree.branch(x, {6: 1.0, 3: 0.0, 4: 1.0, 2: 0.0}) is None
        assert tree.branch(np.array([0.5, 0.5, 0.0, 1.0, 1.0, 0.0, 1.0]), {}) is None


def most_fractional(x, candidates):
    """The candidate farthest from 0 and 1, ties to the lowest index; None if all are integral."""
    frac = [int(i) for i in candidates if min(abs(x[i]), abs(x[i] - 1.0)) > bnb.INT_TOL]
    return min(frac, key=lambda i: (abs(x[i] - 0.5), i)) if frac else None


class TestTrimsFirst:
    @staticmethod
    def chunk(preset_plans, preset, index):
        """A chunk problem and its rounding hook, as ``plan`` builds them."""
        scenario = preset_plans[preset].result.chunks[index].scenario
        prob = assemble(scenario)
        return prob, make_rounding_heuristic(scenario, prob)

    def test_trims_are_branched_while_any_is_fractional(self, preset_plans):
        # dive from the root through the cheaper feasible child: each node
        # branches on its most fractional trim until every trim is
        # integral, and the next on its most fractional binary
        prob, hook = self.chunk(preset_plans, "quadruped_tilted_terrain", 1)
        tree = bnb._Tree(prob, MiqpLimits(), rounding=hook)
        fixings, sol = {}, tree.relax({})
        trim_nodes = 0
        while (trim := most_fractional(sol.x, [i for i in prob.layout.trims if i not in fixings])) is not None:
            children = tree.branch(sol.x, fixings)
            assert children == ({trim: 0.0}, {trim: 1.0})
            trim_nodes += 1
            sols = [(tree.relax({**fixings, **c}), c) for c in children]
            sol, child = min(((s, c) for s, c in sols if s.status == "optimal"), key=lambda sc: sc[0].objective)
            fixings = {**fixings, **child}
        any_bin = most_fractional(sol.x, [i for i in prob.binary_indices if i not in fixings])
        assert trim_nodes == 7 and any_bin is not None
        assert tree.branch(sol.x, fixings) == ({any_bin: 0.0}, {any_bin: 1.0})

    def test_problem_without_layout_branches_on_most_fractional_binary(self, preset_plans):
        prob, _ = self.chunk(preset_plans, "quadruped_tilted_terrain", 2)
        root = BoxQp.from_miqp(prob).solve()
        trim = most_fractional(root.x, prob.layout.trims)
        any_bin = most_fractional(root.x, prob.binary_indices)
        assert trim is not None and any_bin not in prob.layout.trims
        assert bnb._Tree(prob, MiqpLimits()).branch(root.x, {}) == ({trim: 0.0}, {trim: 1.0})
        plain = dataclasses.replace(prob, layout=None)
        assert bnb._Tree(plain, MiqpLimits()).branch(root.x, {}) == ({any_bin: 0.0}, {any_bin: 1.0})


class TestNodeRounding:
    @pytest.mark.parametrize("source", ["chunk", "random"])
    def test_every_opened_node_is_rounded(self, preset_plans, source):
        if source == "chunk":
            prob, hook = TestTrimsFirst.chunk(preset_plans, "quadruped_tilted_terrain", 1)
            limits = MiqpLimits(gap=0.01, max_nodes=6)
        else:  # no layout, the generic hook: the 12th draw of seed 5 pops several times
            rng = np.random.default_rng(5)
            for _ in range(12):
                prob = random_instance(rng)
            hook, limits = None, MiqpLimits()
        tree = bnb._Tree(prob, limits, rounding=hook)
        rounded, pushed = [], []
        real_hook, real_push = tree.rounding, tree.push

        def recording_hook(x, fixings):
            rounded.append(dict(fixings))
            return real_hook(x, fixings)

        def recording_push(bound, fixings, x):
            pushed.append(dict(fixings))
            real_push(bound, fixings, x)

        tree.rounding, tree.push = recording_hook, recording_push
        tree.run()
        children = [f for f in pushed if f]
        assert len(children) >= 2
        assert rounded[0] == {} and rounded[1:] == children


class TestProblemsWithoutLayout:
    @staticmethod
    def problem():
        return make_problem(np.eye(3), [0.0, 0.0, -1.0], lb=[-1.0, -1.0, 0.0], ub=[1.0, 1.0, 1.0], bins=[2],
                            a_in=[[1.0, 1.0, 0.0]], b_in=[1.5])

    def test_violations_name_variables_by_index(self):
        prob = self.problem()
        for x, label in (([-2.0, 0.0, 1.0], "x0 below lower"), ([0.0, np.nan, 0.0], "x1 not finite"),
                         ([0.0, 0.0, 0.25], "x2 not 0/1")):
            report = validate_assignment(prob, np.array(x), 1e-6)
            assert [v.label for v in report.violations] == [label]

    def test_lp_export_names_variables_by_index(self):
        lines = problem_to_lp(self.problem()).splitlines()
        assert lines[lines.index("Subject To") + 1:] == [
            " c1:", "  1 x0 + 1 x1 <= 1.5", "Bounds", " -1 <= x0 <= 1", " -1 <= x1 <= 1", "Binaries", " x2 ",
            "End",
        ]


class TestBruteForce:
    def test_zero_binaries_matches_qp(self):
        prob = make_problem(np.eye(2), [-2.0, -4.0], const=5.0, lb=[-10.0, -10.0], ub=[10.0, 10.0])
        sol = brute_force_solve(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-6)
        assert sol.nodes == 1

    def test_two_case_toggle(self):
        prob = make_problem(
            [[1.0, 0.0], [0.0, 0.0]],
            [-1.4, 0.1],
            const=0.49,
            lb=[0.0, 0.0],
            ub=[1.0, 1.0],
            bins=[1],
            a_in=[[1.0, -1.0]],
            b_in=[0.0],
        )
        sol = brute_force_solve(prob)
        assert sol.objective == pytest.approx(0.1, abs=1e-6)

    def test_guard_refuses_large_sets(self):
        n = BRUTE_FORCE_MAX_BINARIES + 1
        prob = make_problem(
            np.eye(n), np.zeros(n), lb=np.zeros(n), ub=np.ones(n), bins=list(range(n))
        )
        with pytest.raises(ContractViolation):
            brute_force_solve(prob)

    def test_respects_prefixed_binaries(self):
        prob = make_problem(
            np.eye(2), [0.0, -1.0], lb=[-1.0, 1.0], ub=[1.0, 1.0], bins=[1]
        )
        sol = brute_force_solve(prob)
        assert sol.nodes == 1  # no free binaries to enumerate
        assert sol.x[1] == 1.0


class TestOracleAgreement:
    def test_seeded_suite(self):
        # smaller sibling of the acceptance criterion, kept fast for unit runs
        rng = np.random.default_rng(31337)
        for _ in range(12):
            prob = random_instance(rng)
            tree = solve_miqp(prob)
            brute = brute_force_solve(prob)
            assert tree.feasible == brute.feasible
            if brute.feasible:
                assert tree.objective == pytest.approx(brute.objective, abs=1e-5)

    def test_bound_below_incumbent(self):
        rng = np.random.default_rng(4)
        prob = random_instance(rng)
        sol = solve_miqp(prob)
        if sol.feasible:
            assert sol.best_bound <= sol.objective + 1e-9
            assert sol.gap >= 0.0


class TestEngineFreeOracle:
    def test_criterion_1_problems(self, monkeypatch):
        """Branch-and-bound and brute force agree within 1e-7 with
        ``enumerated_optimum`` on 20 of criterion 1's random problems with
        at most 5 binaries."""
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 20:
            prob = random_instance(rng, 10, 8, 8)
            if prob.binary_indices.size > 5:
                continue
            with monkeypatch.context() as m:
                m.setattr(BoxQp, "solve", None)  # the oracle must not reach the engine
                oracle = enumerated_optimum(prob)
            for sol in (solve_miqp(prob), brute_force_solve(prob)):
                assert sol.feasible == (oracle < math.inf)
                if sol.feasible:
                    assert sol.objective == pytest.approx(oracle, rel=0.0, abs=1e-7)
            checked += 1


class TestRelaxationRegressions:
    def test_fraction_to_boundary_does_not_cycle(self):
        # a fixed fraction-to-boundary of 0.99 cycled near mu = 2e-4 on these
        rng = np.random.default_rng(31337)
        for _ in range(12):
            prob = random_instance(rng)
        ws = BoxQp.from_miqp(prob)
        for pattern in ((0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0)):
            fixings = dict(zip(prob.binary_indices.tolist(), map(float, pattern)))
            sol = ws.solve(fixings=fixings)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(slsqp_reference(prob, fixings), abs=1e-6)


class TestRelaxationMemo:
    def test_each_fixing_set_is_solved_once(self, monkeypatch):
        # the 12th draw of seed 5: its tree asks for two fixing sets twice
        rng = np.random.default_rng(5)
        for _ in range(12):
            prob = random_instance(rng)
        calls = []
        real = BoxQp.solve

        def recording(self, fixings=None, **kwargs):
            calls.append(frozenset((fixings or {}).items()))
            return real(self, fixings=fixings, **kwargs)

        monkeypatch.setattr(BoxQp, "solve", recording)
        sol = solve_miqp(prob)
        assert len(calls) == len(set(calls))
        memo_calls = len(calls)
        calls.clear()
        # no memo, the same warm start: every solve after the root's starts from the root's iterate
        monkeypatch.setattr(
            bnb._Tree, "relax", lambda self, fixings: self.ws.solve(fixings=fixings, start=self.root)
        )
        plain = solve_miqp(prob)
        assert len(calls) > memo_calls
        assert (sol.status, sol.nodes, sol.objective) == (plain.status, plain.nodes, plain.objective)
        assert np.array_equal(sol.x, plain.x)
        brute = brute_force_solve(prob)
        assert sol.status == brute.status == "optimal"
        assert sol.objective == pytest.approx(brute.objective, abs=1e-5)
        assert np.allclose(sol.x, brute.x, atol=1e-5)


class TestWarmStartCoverage:
    """Every warm start the tree hands over is the root's, and the root's
    stacked rows (its G rows and both bound sides of its free columns) cover
    those of each call it starts. A stored start holds 1.0 where its own
    call had no row, so a call outside that cover would start there at 1.0,
    not at the root's iterate."""

    @staticmethod
    def coverage(warm) -> tuple[int, int]:
        """Of the warm calls ``warm``, (workspace, fixings, start) each: how
        many reach the interior point, and how many of those keep a stacked
        row that their start's call did not keep."""
        reached = uncovered = 0
        for ws, fixings, start in warm:
            red = ws._presolve(fixings)
            if red is None or not red.cols.size:
                continue  # the call ends before its interior point and reads no start
            mi, n = ws.h.shape[0], ws.n
            rows = qp._stacked_rows(red.g_rows, red.cols, mi, n)
            own = qp._stacked_rows(start._duals[3], start._duals[2], mi, n)
            reached += 1
            uncovered += not np.isin(rows, own).all()
        return reached, uncovered

    @pytest.mark.parametrize("preset", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
    def test_preset_plans(self, preset_plans, preset):
        preset_plans[preset]  # planned, with its warm calls recorded
        reached, uncovered = self.coverage(preset_plans.warm[preset])
        assert reached >= 5 and uncovered == 0

    def test_criterion_1_trees(self, monkeypatch):
        warm, roots, real = [], [], BoxQp.solve

        def recording(ws, fixings=None, cutoff=math.inf, start=None):
            sol = real(ws, fixings, cutoff, start)
            if start is None:
                roots.append(sol)
            else:
                assert start is roots[-1]  # the tree's root
                warm.append((ws, fixings, start))
            return sol

        monkeypatch.setattr(BoxQp, "solve", recording)
        rng = np.random.default_rng(42)
        for _ in range(40):
            solve_miqp(random_instance(rng, 10, 8, 8))
        reached, uncovered = self.coverage(warm)
        assert reached >= 100 and uncovered == 0


class TestWarmStartedRelaxations:
    @pytest.mark.parametrize("preset", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
    def test_warm_matches_cold_on_chunk_problems(self, preset_plans, preset):
        # the children of the root and the rounding candidates at the root
        # and at each child, each relaxed cold and from the root's iterate
        its = np.zeros(2, dtype=int)  # cold, warm
        for chunk in preset_plans[preset].result.chunks:
            prob = assemble(chunk.scenario)
            tree = bnb._Tree(prob, MiqpLimits())
            root = tree.ws.solve()
            hook = make_rounding_heuristic(chunk.scenario, prob)
            children = list(tree.branch(root.x, {}))
            for fixings in children + [c for f in [{}] + children for c in hook(root.x, f)]:
                cold, warm = tree.ws.solve(fixings), tree.ws.solve(fixings, start=root)
                assert warm.status == cold.status
                if cold.status == "infeasible":
                    continue
                its += cold.iterations, warm.iterations
                # x is not unique (Q has rank 19-25), so only the objective
                # and feasibility are compared. Both objectives are inexact:
                # on the worst case, solved again to EPS_ABS = 1e-14, the
                # cold one lay 1.6e-8 and the warm one 7.0e-8 above the optimum
                assert abs(warm.objective - cold.objective) <= 1e-7 * max(1.0, abs(cold.objective))
                assert warm.prim_res <= 1e-9
        assert its[1] < its[0]


class TestCutoffPruning:
    def test_unconverged_trees_prune_on_certified_bounds(self, monkeypatch):
        # 7 iterations leave many relaxations unconverged, warm-started ones
        # included, and still find incumbents, so relaxations end at the
        # cutoff from unconverged iterates. A flat column keeps every call
        # from ending at an active-set solve, which most of them reach
        # within 7 iterations
        rng = np.random.default_rng(2024)
        problems = [with_flat_column(random_instance(rng, 10, 8, 8)) for _ in range(30)]
        with monkeypatch.context() as m:
            m.setattr(qp, "MAX_ITER", 7)
            trees = [bnb._Tree(prob, MiqpLimits()) for prob in problems]
            sols = [tree.run() for tree in trees]
        statuses = [s.status for tree in trees for s in tree.relaxations.values()]
        assert statuses.count("max-iterations") > 50 and statuses.count("cutoff") > 20
        for prob, tree, sol in zip(problems, trees, sols):
            cut = [(key, s) for key, s in tree.relaxations.items() if s.status == "cutoff"]
            assert sol.cutoff_solves == len(cut)
            for key, s in cut:
                # every completion of the fixing set, at full iterations
                fixed = dict(key)
                rest = [int(i) for i in prob.binary_indices if int(i) not in fixed]
                for pattern in itertools.product((0.0, 1.0), repeat=len(rest)):
                    done = tree.ws.solve(fixings={**fixed, **dict(zip(rest, pattern))})
                    assert done.status in ("optimal", "infeasible")
                    assert done.objective >= s.objective - 1e-9 * (1.0 + abs(s.objective))


class TestUnconvergedRoot:
    def test_root_at_max_iterations_is_pushed_without_a_bound(self, monkeypatch):
        # 3 iterations leave every root unconverged, with a flat column that
        # keeps it from ending at an active-set solve. Its objective is that
        # of an inexact iterate, not a bound: pushed on it, the 24th draw's
        # root closed its tree 0.037 above the optimum
        rng = np.random.default_rng(1)
        problems = [with_flat_column(random_instance(rng, 10, 8, 8)) for _ in range(24)]
        optima = [brute_force_solve(prob) for prob in problems]
        real = BoxQp.solve
        first = []

        def capped_first_call(self, *args, **kwargs):
            if first:
                return real(self, *args, **kwargs)
            first.append(1)
            with monkeypatch.context() as m:
                m.setattr(qp, "MAX_ITER", 3)
                return real(self, *args, **kwargs)

        monkeypatch.setattr(BoxQp, "solve", capped_first_call)
        for prob, brute in zip(problems, optima):
            first.clear()
            tree = bnb._Tree(prob, MiqpLimits())
            sol = tree.run()
            assert tree.root.status == "max-iterations"
            assert brute.status == "optimal"
            if sol.status == "optimal":
                assert abs(sol.objective - brute.objective) <= 1e-6 * abs(brute.objective)
            assert sol.best_bound <= brute.objective + 1e-7


class TestMiqpLimits:
    @pytest.mark.parametrize(
        "kwargs",
        [{"gap": -1.0}, {"gap": float("nan")}, {"gap": float("inf")}, {"max_nodes": -3}, {"time_limit": -1.0},
         {"time_limit": 0.0}, {"time_limit": float("nan")}, {"time_limit": float("inf")},
         # a cap of 2.5 would stop at 3 nodes; a bool is no limit; a string is no number
         {"max_nodes": 2.5}, {"max_nodes": True}, {"gap": True}, {"time_limit": True}, {"max_nodes": "3"}],
    )
    def test_meaningless_limit_is_rejected(self, kwargs):
        with pytest.raises(ContractViolation, match=next(iter(kwargs))):
            MiqpLimits(**kwargs)

    def test_boundary_limits_are_accepted(self):
        limits = MiqpLimits(gap=0.0, max_nodes=0, time_limit=1e-3)
        assert (limits.gap, limits.max_nodes, limits.time_limit) == (0.0, 0, 1e-3)
        assert MiqpLimits() == MiqpLimits(gap=1e-4, max_nodes=None, time_limit=None)
        assert MiqpLimits(max_nodes=np.int64(2)).max_nodes == 2
