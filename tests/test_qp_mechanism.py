"""The relaxation engine's mechanisms: tests that pin one path, buffer,
LAPACK call or presolve rule of ``stepplan.qp``. Each class names the code
it pins, and goes when that code goes; what any engine must give is in
``test_qp_contract.py``, which holds for another engine unchanged.
"""

import collections
import dataclasses
import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from oracles import (
    CONTRACT_FAMILIES,
    highs_feasible,
    make_problem,
    random_fixings,
    random_miqp,
    random_sparse,
    relaxation_optimum,
    with_flat_column,
    workspace_feasible,
)
from stepplan import bnb
from stepplan.errors import ContractViolation
from stepplan.formulation import assemble, make_rounding_heuristic
from stepplan.planner import plan
from stepplan import qp as qp_module
from stepplan.qp import BoxQp
from stepplan.scenario_io import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "stepplan" / "scenarios"


def farkas_bounds(monkeypatch) -> list:
    """From now on, record each Farkas bound a call takes (``_lagrangian_bound``
    without an iterate) as (its reduced call, the bound): the certificate
    tests; a bound above 0 decides its call infeasible."""
    taken, real = [], qp_module._lagrangian_bound

    def bound(red, a_t, z_g, y, ay, target, x=None, px=None):
        out = real(red, a_t, z_g, y, ay, target, x, px)
        if x is None:
            taken.append((red, out))
        return out

    monkeypatch.setattr(qp_module, "_lagrangian_bound", bound)
    return taken


class TestLoopEnds:
    """How ``_interior_point``'s loop ends short of convergence: at
    MAX_ITER, before MU_FLOOR lets a slack reach zero when EPS_ABS is 0, and
    at its best iterate when the iterates stall at their accuracy floor."""

    def test_zero_tolerance_ends_without_dividing_by_zero(self, monkeypatch):
        # With no tolerance the iterates cannot converge. They must stop
        # before mu falls below about 1e-17: there a fraction to the boundary
        # of 1 - 10 mu rounds to 1.0, puts a slack on zero and z / s divides
        # by zero.
        monkeypatch.setattr(qp_module, "EPS_ABS", 0.0)
        rng = np.random.default_rng(0)
        for _ in range(40):
            G = rng.normal(size=(3, 3))
            prob = make_problem(G.T @ G + 0.1 * np.eye(3), rng.normal(size=3),
                                a_in=rng.normal(size=(4, 3)), b_in=rng.normal(size=4) + 2.0,
                                lb=np.full(3, -5.0), ub=np.full(3, 5.0))
            with np.errstate(all="raise"):
                sol = BoxQp.from_miqp(prob).solve()
            assert sol.status == "max-iterations"
            assert np.all(np.isfinite(sol.x))

    def test_max_iter_means_what_it_says(self, monkeypatch):
        rng = np.random.default_rng(11)
        G = rng.normal(size=(4, 4))
        prob = make_problem(G.T @ G + 0.1 * np.eye(4), rng.normal(size=4),
                            a_in=rng.normal(size=(3, 4)), b_in=rng.normal(size=3) + 2.0,
                            lb=np.full(4, -5.0), ub=np.full(4, 5.0))
        ws = BoxQp.from_miqp(with_flat_column(prob))  # no call ends at an active-set solve
        assert ws.solve().iterations > 1
        monkeypatch.setattr(qp_module, "MAX_ITER", 1)
        one = ws.solve()
        assert one.status == "max-iterations"
        assert one.iterations == 1

    def test_iterates_stalled_at_their_floor_end_optimal(self, monkeypatch):
        # criterion 1's draw 69 with its free binaries at (1,1,0,1,0,1,0) and
        # a flat column, so that no call ends at an active-set solve,
        # converges at EPS_ABS = 2e-9. At the default 1e-9 its iterates stall
        # at their accuracy floor, and the best iterate is returned
        rng = np.random.default_rng(2024)
        for _ in range(70):
            prob = random_miqp(rng)
        free = [int(i) for i in prob.binary_indices if prob.lower[i] < prob.upper[i]]
        fixings = dict(zip(free, (1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0)))
        ws = BoxQp.from_miqp(with_flat_column(prob))
        with monkeypatch.context() as m:
            m.setattr(qp_module, "EPS_ABS", 2e-9)
            converged = ws.solve(fixings)
        assert converged.status == "optimal"
        floor = ws.solve(fixings)
        assert floor.status == "optimal" and floor.iterations > converged.iterations
        assert abs(floor.objective - converged.objective) <= 1e-9 * abs(converged.objective)
        assert floor.prim_res <= 1e-8 and floor.dual_res <= 1e-7


class TestMultipliers:
    """``QpSolution.y`` (``BoxQp._multipliers``): the reduced multipliers
    mapped back, a bound set by a singleton row or a zero-width pair's
    equality handing its multiplier to its rows, with sign."""

    def test_kkt_residuals_at_active_bound(self):
        # min x^2 with 3 <= x <= 100: the lower bound is active with multiplier 6
        prob = make_problem([[1.0]], [0.0], lb=[3.0], ub=[100.0])
        sol = BoxQp.from_miqp(prob).solve()
        assert sol.status == "optimal"
        x, y_bound = sol.x[0], sol.y[-1]
        assert abs(2.0 * x + y_bound) <= 1e-9  # stationarity: Px + q + y = 0
        assert max(3.0 - x, x - 100.0, 0.0) <= 1e-9  # primal feasibility
        assert y_bound == pytest.approx(-6.0, abs=1e-8)  # on the lower side
        assert abs(y_bound * (x - 3.0)) <= 1e-8  # complementarity
        assert max(sol.prim_res, sol.dual_res) <= 1e-9

    def test_multipliers_satisfy_stationarity(self):
        rng = np.random.default_rng(17)
        G = rng.normal(size=(4, 4))
        Q = G.T @ G + 0.1 * np.eye(4)
        c = rng.normal(size=4) * 3.0
        # the last row has one variable, so the presolve makes it a bound
        A = np.vstack([rng.normal(size=(3, 4)), [0.0, 0.0, -2.0, 0.0]])
        b = np.concatenate([rng.normal(size=3) * 0.2, [-0.5]])
        prob = make_problem(Q, c, a_in=A, b_in=b, a_eq=[[1.0, 1.0, 0.0, 0.0]], b_eq=[0.3],
                            lb=np.full(4, -1.0), ub=np.full(4, 1.0))
        sol = BoxQp.from_miqp(prob).solve()
        assert sol.status == "optimal"
        y_in, y_eq, y_b = sol.y[:4], sol.y[4:5], sol.y[5:]
        grad = 2.0 * Q @ sol.x + c + A.T @ y_in + np.array([[1.0, 1.0, 0.0, 0.0]]).T @ y_eq + y_b
        assert np.max(np.abs(grad)) <= 1e-8
        assert np.all(y_in >= -1e-12)
        assert np.all(A @ sol.x - b <= 1e-9)

    @staticmethod
    def pair():
        # with b = 1 the big-M rows x0 - x1 <= 1 - b and x1 - x0 <= 1 - b leave
        # x0 = x1 = t, a feasible set without interior; the third row is
        # nearly active. Optimum: 15.09 t^2 + 1.95 t is least at t = -1.95 / 30.18
        return make_problem(
            [[8.13, 1.55, 0.0], [1.55, 3.86, 0.0], [0.0, 0.0, 0.0]], [-0.27, 2.22, 0.0],
            lb=[-1.0, -1.0, 0.0], ub=[1.0, 1.0, 1.0], bins=[2],
            a_in=[[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [-0.59, -0.94, 0.0]], b_in=[1.0, 1.0, 0.1],
        )

    def test_zero_width_pair_becomes_equality(self):
        prob = self.pair()
        sol = BoxQp.from_miqp(prob).solve(fixings={2: 1.0})
        t = -1.95 / 30.18
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [t, t, 1.0], atol=1e-8)
        assert sol.objective == pytest.approx(-1.95**2 / (4 * 15.09), abs=1e-8)
        assert max(sol.prim_res, sol.dual_res) <= 1e-9
        # the pair equality's multiplier lands on a row of the pair, with sign
        P = 2.0 * prob.q_matrix.toarray()
        G = prob.a_ineq.toarray()
        y_in, y_b = sol.y[:3], sol.y[3:]
        assert np.all(y_in >= 0.0)
        assert np.max(np.abs(P @ sol.x + prob.c_vector + G.T @ y_in + y_b)) <= 1e-9
        assert np.max(np.abs(y_b[:2])) <= 1e-9  # the free variables sit inside their bounds


class TestFixingContract:
    """``BoxQp._presolve``'s reading of the fixings: one outside its
    bounds beyond FEAS_TOL ends the call infeasible, one within it is kept
    as given, and one that is no finite value of an integer column index is
    a ContractViolation."""

    # min (x0 - 3)^2 + x1^2 with x0 in [0, 1]: the least value is -5, at x0 = 1
    @staticmethod
    def workspace():
        return BoxQp.from_miqp(make_problem(np.eye(2), [-6.0, 0.0], lb=[0.0, -5.0], ub=[1.0, 5.0]))

    def test_fixing_outside_bounds_is_infeasible(self):
        # solved as given, x0 = 2 would report -8, below the true minimum
        sol = self.workspace().solve(fixings={0: 2.0})
        assert sol.status == "infeasible"
        assert math.isinf(sol.objective)

    @pytest.mark.parametrize("value", [1.0, 1.0 + 1e-12])
    def test_fixing_on_a_bound_is_kept(self, value):
        sol = self.workspace().solve(fixings={0: value})
        assert sol.status == "optimal"
        assert sol.x[0] == value
        assert sol.objective == pytest.approx(-5.0, abs=1e-9)

    # an index that is not an integer (1.5, "1", np.float64(1.0)) would be
    # truncated to a pin of x1, one past int64 would overflow, and a boolean
    # would be read as 0 or 1, which integer_columns rejects
    @pytest.mark.parametrize("fixings", [{0: math.nan}, {0: math.inf}, {5: 0.0}, {-1: 0.0}, {1.5: 0.0},
                                         {"1": 0.0}, {np.float64(1.0): 0.0}, {2**70: 0.0}, {True: 0.5},
                                         {False: 0.5}, {np.True_: 0.5}, {1: 0.0, np.False_: 0.5}])
    def test_bad_fixing_is_a_contract_violation(self, fixings):
        with pytest.raises(ContractViolation, match="fixings"):
            self.workspace().solve(fixings=fixings)


class TestIntegerColumnsContract:
    """``BoxQp.__init__``'s checks: finite bounds, and ``integer_columns``
    that index columns, read into ``_pinnable``."""

    def test_unbounded_variables_rejected(self):
        prob = make_problem([[1.0]], [0.0], lb=[-np.inf], ub=[np.inf])
        with pytest.raises(ContractViolation):
            BoxQp.from_miqp(prob).solve()

    @staticmethod
    def workspace(integer_columns):
        no_rows = np.zeros((0, 2))
        return BoxQp(2.0 * np.eye(2), [-6.0, 0.0], no_rows, [], no_rows, [], [0.0, -5.0], [1.0, 5.0],
                     integer_columns=integer_columns)

    # -1 would make the last column pinnable and 0.5 column 0; 2 is past the end
    @pytest.mark.parametrize("columns", [[-1], [0.5], [2], [0, 2], [True]])
    def test_bad_column_is_a_contract_violation(self, columns):
        with pytest.raises(ContractViolation, match="integer_columns"):
            self.workspace(columns)

    @pytest.mark.parametrize("columns", [(), [], [0], np.array([1, 0])])
    def test_column_indices_are_accepted(self, columns):
        assert self.workspace(columns)._pinnable.tolist() == [i in list(columns) for i in range(2)]


class TestLayout:
    """``_dense`` and the dense slices of ``BoxQp._presolve``: every dense
    reduced matrix is C-ordered."""

    def test_dense_reduced_matrices_are_c_ordered(self):
        # a product sums in another order on an F-ordered array, so every
        # relaxation's last bits rest on this layout
        rng = np.random.default_rng(4)
        G = rng.normal(size=(6, 6))
        prob = make_problem(G.T @ G + 0.1 * np.eye(6), rng.normal(size=6),
                            lb=[-2, -2, -2, -2, 0, 0], ub=[2, 2, 2, 2, 1, 1], bins=[4, 5],
                            a_in=rng.normal(size=(5, 6)), b_in=rng.normal(size=5) + 3.0,
                            a_eq=rng.normal(size=(2, 6)), b_eq=rng.normal(size=2))
        red = BoxQp.from_miqp(prob)._presolve({4: 1.0, 1: 0.5})
        assert red.cols.tolist() == [0, 2, 3, 5]
        assert red.g_rows.size == 5 and red.eq_rows.size == 2
        for m in (red.g, red.a, red.p):
            assert isinstance(m, np.ndarray) and m.flags.c_contiguous

    def test_zero_width_pair_keeps_c_order(self):
        prob = make_problem(np.eye(3), [0.0, 0.0, 0.0], lb=[-1.0, -1.0, 0.0], ub=[1.0, 1.0, 1.0],
                            bins=[2], a_in=[[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]], b_in=[1.0, 1.0])
        red = BoxQp.from_miqp(prob)._presolve({2: 1.0})
        assert red.pair_rows.shape == (1, 2)
        for m in (red.g, red.a, red.p):
            assert isinstance(m, np.ndarray) and m.flags.c_contiguous


class TestMaxStep:
    """``_max_step``: one ratio test over [s; z]."""

    @staticmethod
    def separate(s, ds, z, dz):
        """The ratio test on s and z apart, as two minima."""
        worst = min((ds / s).min(), (dz / z).min())
        return -1.0 / worst if worst < 0.0 else math.inf

    def test_matches_separate_ratio_tests(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            n = int(rng.integers(1, 12))
            s, z = rng.uniform(0.01, 5.0, n), rng.uniform(0.01, 5.0, n)
            ds, dz = rng.normal(size=n), rng.normal(size=n)
            if trial % 4 == 0:
                ds, dz = np.abs(ds), np.abs(dz)
            step = qp_module._max_step(np.concatenate([s, z]), np.concatenate([ds, dz]), np.empty(2 * n))
            assert step == self.separate(s, ds, z, dz)

    def test_no_negative_direction_is_unbounded(self):
        sz, dsz = np.array([1.0, 2.0, 0.5, 3.0]), np.array([0.0, 1.0, 2.0, 0.0])
        assert qp_module._max_step(sz, dsz, np.empty(4)) == math.inf

    def test_writes_the_ratios_and_reports_a_nan_one(self):
        sz, dsz = np.array([1.0, 2.0, 0.5, 3.0]), np.array([0.0, -1.0, 2.0, -6.0])
        ratio = np.empty(4)
        assert qp_module._max_step(sz, dsz, ratio) == 0.5
        assert ratio.tobytes() == (dsz / sz).tobytes()
        assert math.isnan(qp_module._max_step(sz, np.array([0.0, -1.0, np.nan, -6.0]), ratio))
        assert qp_module._max_step(sz, np.array([0.0, -np.inf, 1.0, -6.0]), ratio) == 0.0


class TestPresolveCascade:
    """``BoxQp._presolve``'s rounds (``_fix``, ``_tighten``) on either
    holding: a singleton equality row pins a column, which leaves two rows
    singletons that become bounds, and ``_multipliers`` hands the bounds'
    multipliers back to those rows."""

    # with x3 = 1 the equality x1 + x3 = 1 is a singleton that pins x1 = 0;
    # the second round then finds rows 0 and 2 singletons, which become the
    # bounds x2 <= 0.5 and x0 >= -1, and the objective presses on both
    Q = np.array([[1.0, 0.3, 0.2, 0.0], [0.3, 1.0, 0.0, 0.0], [0.2, 0.0, 1.5, 0.0], [0.0, 0.0, 0.0, 0.0]])
    c = np.array([6.0, 0.5, -6.0, 0.0])
    G = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0], [-1.0, 0.5, 0.0, 0.0]])
    h = np.array([0.5, 3.0, 1.0])
    A = np.array([[0.0, 1.0, 0.0, 1.0]])
    lb = np.array([-2.0, -2.0, -2.0, 0.0])
    ub = np.array([2.0, 2.0, 2.0, 1.0])

    @classmethod
    def problem(cls):
        return make_problem(cls.Q, cls.c, lb=cls.lb, ub=cls.ub, bins=[3], a_in=cls.G, b_in=cls.h,
                            a_eq=cls.A, b_eq=[1.0])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_pinned_variable_leaves_rows_singleton(self, monkeypatch, sparse):
        if sparse:
            monkeypatch.setattr(qp_module, "SPARSE_MIN_ENTRIES", 0)
        prob = self.problem()
        ws = BoxQp.from_miqp(prob)
        assert ws.sparse == sparse
        red = ws._presolve({3: 1.0})
        assert red.cols.tolist() == [0, 2] and red.g_rows.tolist() == [1]
        assert red.eq_rows.size == 0 and red.x[1] == 0.0
        assert red.bound_rows[:, 0].tolist() == [2, -1]  # x0's lower bound: row 2
        assert red.bound_rows[:, 1].tolist() == [-1, 0]  # x2's upper bound: row 0
        sol = ws.solve(fixings={3: 1.0})
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(relaxation_optimum(prob, {3: 1.0}), rel=0.0, abs=1e-7)
        assert np.allclose(sol.x[[0, 2]], [-1.0, 0.5], atol=1e-9)
        y_in, y_eq, y_b = sol.y[:3], sol.y[3:4], sol.y[4:]
        grad = 2.0 * self.Q @ sol.x + self.c + self.G.T @ y_in + self.A.T @ y_eq + y_b
        assert np.max(np.abs(grad)) <= 1e-9
        assert y_in[0] > 0.0 and y_in[2] > 0.0  # the rows that set bounds hold their multipliers
        assert abs(y_in[1]) <= 1e-9 and np.max(np.abs(y_b[[0, 2]])) <= 1e-9  # inactive


def same_solution(a, b) -> bool:
    """Whether two solutions agree bit for bit in every field, ``y``, ``prim_res`` and ``dual_res`` included."""
    names = [f.name for f in dataclasses.fields(a) if not f.name.startswith("_")]
    return all(
        np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
        for name in names + ["y", "prim_res", "dual_res"]
    )


def preset_chunk(name, configs=4):
    """The chunk problem of ``configs`` configurations of a bundled preset."""
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    return assemble(dataclasses.replace(scenario, max_steps=configs * scenario.robot.n_legs))


def random_workspace(rng, n, m, n_eq=0, shared=0, flat=False):
    """The workspace of ``oracles.random_sparse``, with its G and P."""
    prob = random_sparse(rng, n, m, n_eq, shared, flat)
    return BoxQp.from_miqp(prob), prob.a_ineq, 2.0 * prob.q_matrix


def as_scipy(m):
    """A reduced G or A as a scipy CSR matrix over its ``_Csr`` arrays; a dense one as it is."""
    if isinstance(m, qp_module._Csr):
        return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    return m


def pivots_and_others(system) -> tuple[np.ndarray, np.ndarray]:
    """A ``_CholeskyNewton``'s pivot columns, row by row, and its other columns, read off its permuted order."""
    return system.order[system.nr : system.nf], system.order[: system.nr]


def null_space(red) -> np.ndarray:
    """Z of a CSR call, built with numpy from its A and the pivots of its
    rows: the identity on the other columns and, on the pivot p of row r,
    -A[r, j] / A[r, p] at each other column j."""
    (pivots, others), a = pivots_and_others(red.newton), as_scipy(red.a).toarray()
    z = np.zeros((red.c.size, others.size))
    z[others, np.arange(others.size)] = 1.0
    for r, p in enumerate(pivots):
        z[p] = -a[r, others] / a[r, p]
    return z


def reduced_block_error(k, block, red) -> float:
    """The largest entry of |tril(K - Z' block Z)| relative to the largest of |Z' block Z|."""
    z = null_space(red)
    ref = z.T @ block @ z
    return float(np.max(np.abs(np.tril(k) - np.tril(ref))) / np.max(np.abs(ref)))


def factored_matrix(monkeypatch, red, w) -> np.ndarray:
    """The matrix the Newton system of ``red`` hands to LAPACK for the
    weights ``w``, copied before it is factored."""
    if red.newton is None:
        name, system = "_getrf", qp_module._LuNewton(red, qp_module._stacked(red.g, red.c.size), red.a.T.copy())
    else:
        name, system = "_potrf", red.newton
    seen = []
    with monkeypatch.context() as m:
        real = getattr(qp_module, name)

        def factor(a, *args, **kwargs):
            seen.append(a.copy(order="K"))
            return real(a, *args, **kwargs)

        m.setattr(qp_module, name, factor)
        system.factor(w)
    return seen[0]


class TestNewtonBlock:
    """The Newton matrix a call hands LAPACK: ``_CholeskyNewton.factor``'s
    Z'HZ on a CSR workspace, ``_LuNewton.factor``'s whole matrix with
    -EQ_REG I on a dense one."""

    @pytest.mark.parametrize("n, m, n_eq, sparse", [(120, 200, 0, True), (120, 200, 3, True),
                                                    (14, 12, 0, False), (14, 12, 3, False)])
    def test_matches_direct_sparse_product(self, monkeypatch, n, m, n_eq, sparse):
        rng = np.random.default_rng(n)
        ws, g, p = random_workspace(rng, n, m, n_eq)
        assert ws.sparse == sparse
        fixed = rng.choice(n, size=n // 3, replace=False)
        red = ws._presolve({int(j): float(rng.uniform(-1, 1)) for j in fixed})
        k, nf, me = red.g_rows.size, red.cols.size, red.b.size
        assert 0 < k < m and nf == n - fixed.size and me == n_eq
        assert (red.newton is not None) == sparse
        w = rng.uniform(0.1, 10.0, size=k + 2 * nf)
        g_red = g[red.g_rows][:, red.cols]
        ref = (
            p[red.cols][:, red.cols]
            + g_red.T @ sp.diags(w[:k]) @ g_red
            + sp.diags(w[k : k + nf] + w[k + nf :])
        ).toarray()
        kkt = factored_matrix(monkeypatch, red, w)
        # a CSR workspace eliminates its equality rows and factors Z'HZ,
        # reading its lower triangle; a dense one factors the whole matrix
        size = nf - me if sparse else nf + me
        assert kkt.shape == (size, size) and kkt.flags.f_contiguous
        if sparse:
            assert pivots_and_others(red.newton)[0].size == me
            assert reduced_block_error(kkt, ref, red) <= 1e-12
        else:
            assert np.max(np.abs(kkt[:nf, :nf] - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(kkt[nf:, :nf], red.a) and np.array_equal(kkt[:nf, nf:], red.a.T)
            assert np.array_equal(kkt[nf:, nf:], -qp_module.EQ_REG * np.eye(me))


class TestPivots:
    """``_pivots``: each equality row's private pivot, at least PIVOT_RATIO of its largest entry."""

    @staticmethod
    def row_by_row(a):
        """Each row's last private entry of largest magnitude, if that is at
        least PIVOT_RATIO of the row's largest: (rows, entries)."""
        rows, entries = [], []
        count = np.bincount(a.indices, minlength=a.shape[1])
        for r in range(a.shape[0]):
            span = range(a.indptr[r], a.indptr[r + 1])
            largest = max((abs(a.data[k]) for k in span), default=0.0)
            best = None
            for k in span:
                size = abs(a.data[k])
                if count[a.indices[k]] == 1 and size >= qp_module.PIVOT_RATIO * largest:
                    if best is None or size >= abs(a.data[best]):
                        best = k
            if best is not None:
                rows.append(r)
                entries.append(best)
        return rows, entries

    def test_matches_the_row_by_row_choice(self):
        # repeated magnitudes test the ties, 0.05 against 2.0 the ratio, and
        # some rows are empty
        rng = np.random.default_rng(28)
        pivoted = without = empty = 0
        for _ in range(300):
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 12))
            dense = rng.choice([1.0, -1.0, 0.05, 2.0], size=(m, n)) * (rng.random((m, n)) < 0.4)
            a = sp.csr_matrix(dense)
            rows, entries = qp_module._pivots(a, np.repeat(np.arange(m), np.diff(a.indptr)))
            assert (rows.tolist(), entries.tolist()) == self.row_by_row(a)
            pivoted += rows.size
            without += m - rows.size
            empty += int((np.diff(a.indptr) == 0).sum())
        assert pivoted > 100 and without > 100 and empty > 20


def ordered_pair_kkt(red, w) -> np.ndarray:
    """The Newton matrix as a C-ordered array, built as a plain formula.

    A CSR workspace sums its block with one np.bincount over every ordered
    pair of G entries that share a row, by row, then by first and second
    entry, followed by each free column's lower and upper bound term; a
    dense one takes one product over G_all = [G; -I; I]. A, A' and -EQ_REG I
    fill the other blocks."""
    nf, me, k = red.c.size, red.b.size, red.h.size
    g, eq = as_scipy(red.g), as_scipy(red.a)
    if red.newton is None:
        g_all = stacked_g(red)[0]
        block = red.p + (g_all.T * w) @ g_all
    else:
        count = np.diff(g.indptr)
        row_of = np.repeat(np.arange(k), count)
        per_entry = count[row_of]
        a = np.repeat(np.arange(g.nnz), per_entry)
        b = g.indptr[row_of[a]] + np.arange(a.size) - np.repeat(np.cumsum(per_entry) - per_entry, per_entry)
        diag = np.arange(nf)
        flat = np.concatenate([g.indices[a] * nf + g.indices[b], diag * (nf + 1), diag * (nf + 1)])
        rows = np.concatenate([row_of[a], k + diag, k + nf + diag])
        prod = np.concatenate([g.data[a] * g.data[b], np.ones(2 * nf)])
        block = red.p + np.bincount(flat, prod * w[rows], nf * nf).reshape(nf, nf)
    kkt = np.zeros((nf + me, nf + me))
    kkt[:nf, :nf] = block
    kkt[nf:, :nf] = eq.toarray() if sp.issparse(eq) else eq
    kkt[:nf, nf:] = kkt[nf:, :nf].T
    kkt[nf:, nf:] = -qp_module.EQ_REG * np.eye(me)
    return kkt


def recorded_weights(monkeypatch, ws, fixings_list, lapack=False):
    """Solve under each fixing set; per solve, the (reduced problem, weights) of
    every Newton matrix, recorded at its class's ``factor`` (the problem is
    the one the interior point that factors it was given), and with
    ``lapack`` the matrix then handed to ``_getrf`` or ``_potrf``, copied
    before it is factored, and the rows of H that a CSR call keeps for its
    pivots (None for a dense call). An active-set solve calls ``_gesv``,
    which is not recorded."""
    seen, per_solve, call = [], [], [None]
    with monkeypatch.context() as m:

        def interior_point(red, *args, real=qp_module._interior_point):
            call[0] = red
            return real(red, *args)

        m.setattr(qp_module, "_interior_point", interior_point)
        for cls in (qp_module._LuNewton, qp_module._CholeskyNewton):

            def record(system, w, real=cls.factor):
                red = call[0]
                assert red.newton is None or system is red.newton  # a CSR call factors the system it sliced
                seen.append([red, w.copy()])
                ok = real(system, w)
                if lapack:
                    seen[-1].append(None if red.newton is None else system.hp.copy())
                return ok

            m.setattr(cls, "factor", record)
        if lapack:
            for name in ("_getrf", "_potrf"):

                def factor(a, *args, real=getattr(qp_module, name), **kwargs):
                    if seen and len(seen[-1]) == 2:
                        seen[-1].append(a.copy(order="K"))
                    return real(a, *args, **kwargs)

                m.setattr(qp_module, name, factor)
        for fixings in fixings_list:
            seen.clear()
            sol = ws.solve(fixings)
            per_solve.append((sol, list(seen)))
    return per_solve


def preset_fixings(prob, ws, name, count=20):
    """Fixing sets of binaries pinned near the root relaxation, as branch-and-bound pins them."""
    rng = np.random.default_rng(len(name))
    bins, root = prob.binary_indices, np.round(ws.solve().x)
    fixings = []
    for _ in range(count):
        pick = rng.choice(bins, size=int(rng.integers(1, bins.size // 8)), replace=False)
        flip = rng.random(pick.size) < 0.05
        fixings.append({int(i): float(abs(root[i] - f)) for i, f in zip(pick, flip)})
    return fixings


class TestKktBuffer:
    """The buffer each iteration factors in place is the plain Newton matrix
    where LAPACK reads it. A dense workspace's whole matrix at ``_getrf`` is
    that matrix byte for byte. A CSR workspace hands ``_potrf`` the reduced
    block Z'HZ (H = P + G_all' W G_all, the top-left block), whose lower
    triangle, the only one the Cholesky factorization and the triangular
    solves read, is within 1e-12 of Z'HZ built with numpy; with no
    eliminated row it is H's lower triangle byte for byte. The rows of H it
    keeps for its pivots are H's byte for byte."""

    @staticmethod
    def mismatches(per_solve) -> int:
        """How many recorded LAPACK matrices differ from ``ordered_pair_kkt`` where LAPACK reads them,
        or, for a CSR call, whose kept pivot rows of H differ from it."""
        differ = 0
        for _, seen in per_solve:
            for red, w, kkt, rows in seen:
                ref = ordered_pair_kkt(red, w)
                assert kkt.flags.f_contiguous
                if red.newton is None:
                    assert kkt.shape == ref.shape
                    differ += kkt.tobytes(order="C") != ref.tobytes(order="C")
                    continue
                nf, (pivots, others) = red.c.size, pivots_and_others(red.newton)
                block = ref[:nf, :nf]
                assert kkt.shape == (others.size,) * 2
                differ += rows.tobytes() != block[pivots][:, red.newton.order[:nf]].tobytes()
                if pivots.size:
                    differ += reduced_block_error(kkt, block, red) > 1e-12
                else:
                    differ += np.tril(kkt).tobytes(order="C") != np.tril(block).tobytes(order="C")
        return differ

    @classmethod
    def check_solves(cls, monkeypatch, ws, fixings_list) -> tuple[int, int]:
        """Solve under each fixing set, checking every matrix handed to LAPACK.

        Returns how many matrices and how many optimal solves were checked."""
        per_solve = recorded_weights(monkeypatch, ws, fixings_list, lapack=True)
        assert cls.mismatches(per_solve) == 0
        optimal = 0
        for sol, _ in per_solve:
            if sol.status == "optimal":
                # the right-hand sides read A' from its own array, not the factors
                assert sol.prim_res <= 1e-6 and sol.dual_res <= 1e-6 * (1.0 + np.abs(sol.y).max())
                optimal += 1
        return sum(len(seen) for _, seen in per_solve), optimal

    @pytest.mark.parametrize("name", [p.stem for p in sorted(SCENARIOS.glob("*.json"))])
    def test_preset_chunk_workspaces(self, monkeypatch, name):
        prob = preset_chunk(name)
        ws = BoxQp.from_miqp(prob)
        assert ws.sparse and ws.b.size
        checked, optimal = self.check_solves(monkeypatch, ws, preset_fixings(prob, ws, name))
        assert checked > 100 and optimal >= 10

    @pytest.mark.parametrize("n, m, n_eq", [(14, 12, 0), (14, 12, 3), (120, 200, 0), (120, 200, 4)])
    def test_random_workspaces(self, monkeypatch, n, m, n_eq):
        rng = np.random.default_rng(n + n_eq)
        ws, _, _ = random_workspace(rng, n, m, n_eq)
        assert ws.sparse == (n > 100)
        checked, optimal = self.check_solves(monkeypatch, ws, random_fixings(rng, n, 5 if ws.sparse else 20))
        if not ws.sparse:
            # most dense calls end at an active-set solve, many at their first
            # test, before any factorization. With a flat column every such
            # solve is singular, so the calls of that workspace iterate
            flat, _, _ = random_workspace(rng, n, m, n_eq, flat=True)
            more = self.check_solves(monkeypatch, flat, random_fixings(rng, n, 5))
            checked, optimal = checked + more[0], optimal + more[1]
        assert checked > 20 and optimal >= 3

    def test_upper_triangle_scatter_fails_the_check(self, monkeypatch):
        """Bins written at (u, v), u <= v, of the reduced block instead of
        (v, u) leave its lower triangle at P, and the check sees it on every
        matrix with an off-diagonal bin."""
        name = "quadruped_tilted_terrain"
        prob = preset_chunk(name)
        ws = BoxQp.from_miqp(prob)
        real = BoxQp._slice_csr

        def upper(self, g_rows, a_rows, cols):
            p, g, a, newton = real(self, g_rows, a_rows, cols)
            nr = newton.nr
            flip = lambda at: np.where(at < nr * nr, at // nr + at % nr * nr, at)  # noqa: E731
            newton.at, newton.route_at = flip(newton.at), flip(newton.route_at)
            return p, g, a, newton

        monkeypatch.setattr(BoxQp, "_slice_csr", upper)
        per_solve = recorded_weights(monkeypatch, ws, preset_fixings(prob, ws, name, count=3), lapack=True)
        assert self.mismatches(per_solve) == sum(len(seen) for _, seen in per_solve) > 0


class TestCholeskyNewton:
    """``_CholeskyNewton``: a CSR workspace's elimination of its equality
    rows gives the direction of the full Newton system, and a Cholesky
    breakdown ends the solve."""

    @staticmethod
    def check_directions(monkeypatch, ws, fixings_list) -> tuple[int, int]:
        """Re-solve every Newton system of the solves, each on the
        elimination path, for a random right-hand side r; the direction d's
        residual against the full matrix K, built with numpy, is within
        1e-10 of |K| |d| + |r| in the max norm. Returns how many systems
        were checked, and how many of them eliminated rows."""
        rng = np.random.default_rng(0)
        checked = eliminating = 0
        for _, seen in recorded_weights(monkeypatch, ws, fixings_list):
            for red, w in seen:
                assert red.newton is not None  # not the dense LU path
                system = red.newton
                assert system.factor(w)
                rhs = rng.normal(size=red.c.size + red.b.size)
                d = system.solve(rhs.copy())  # solved in place
                kkt = ordered_pair_kkt(red, w)
                scale = np.abs(kkt).sum(axis=1).max() * np.abs(d).max() + np.abs(rhs).max()
                assert np.abs(kkt @ d - rhs).max() <= 1e-10 * scale
                checked += 1
                eliminating += pivots_and_others(system)[0].size > 0
        return checked, eliminating

    @pytest.mark.parametrize("n_eq", [0, 4])
    def test_random_workspaces(self, monkeypatch, n_eq):
        rng = np.random.default_rng(120 + n_eq)
        ws, _, _ = random_workspace(rng, 120, 200, n_eq)
        assert ws.sparse and ws.b.size == n_eq
        checked, eliminating = self.check_directions(monkeypatch, ws, random_fixings(rng, 120))
        assert checked > 20 and (eliminating == checked if n_eq else eliminating == 0)

    @pytest.mark.parametrize("name", [p.stem for p in sorted(SCENARIOS.glob("*.json"))])
    def test_preset_relaxations(self, monkeypatch, name):
        """The root, its children and the rounding candidates at each: every
        equality row of every one has a pivot, so no call takes the dense
        LU path."""
        scenario = load_scenario(SCENARIOS / f"{name}.json")
        scenario = dataclasses.replace(scenario, max_steps=4 * scenario.robot.n_legs)
        prob = assemble(scenario)
        tree = bnb._Tree(prob, bnb.MiqpLimits())
        root = tree.ws.solve()
        hook = make_rounding_heuristic(scenario, prob)
        children = list(tree.branch(root.x, {}))
        fixings = [{}] + children + [c for f in [{}] + children for c in hook(root.x, f)]
        checked, eliminating = self.check_directions(monkeypatch, tree.ws, fixings)
        assert checked > 40 and eliminating == checked

    def test_breakdown_ends_the_solve(self, monkeypatch):
        # the relaxed binaries sit at 0.5, so the root branches
        monkeypatch.setattr(qp_module, "SPARSE_MIN_ENTRIES", 0)
        prob = make_problem(np.eye(4), [0.0, 0.0, -1.0, -1.0], lb=[-5.0, -5.0, 0.0, 0.0],
                            ub=[5.0, 5.0, 1.0, 1.0], bins=[2, 3], a_in=[[1.0, 1.0, 0.0, 0.0]], b_in=[3.0])
        ws = BoxQp.from_miqp(prob)
        assert ws.sparse
        root = ws.solve()
        assert root.status == "optimal" and np.allclose(root.x[2:], 0.5)
        # every Newton matrix smaller than the root's breaks down: each solve
        # that fixes a binary
        real = qp_module._potrf
        monkeypatch.setattr(
            qp_module, "_potrf", lambda a, **kw: (a, 1) if a.shape[0] < 4 else real(a, **kw)
        )
        sol = ws.solve({2: 1.0})
        assert sol.status == "max-iterations" and sol.iterations == 1
        tree = bnb._Tree(prob, bnb.MiqpLimits(max_nodes=3))
        result = tree.run()
        assert result.status == "node-limit" and result.nodes == 3 and not result.feasible
        children = [s for key, s in tree.relaxations.items() if len(key) == 1]
        assert len(children) == 2 and all(s.status == "max-iterations" for s in children)
        # each child keeps its parent's bound, the root relaxation's objective
        assert [entry[0] for entry in tree.heap] == [root.objective] * 2
        assert result.best_bound == root.objective


class TestCopyProduct:
    """``_copy_product`` and ``_copy_product_t``: scipy's CSR kernels on zeros, without a scipy product."""

    @staticmethod
    def matrices(rng):
        """CSR matrices with empty rows, one with no entry and one with no row."""
        yield sp.csr_matrix((0, 5))
        yield sp.csr_matrix((4, 3))
        for trial in range(40):
            m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            g = sp.random(m, n, density=rng.uniform(0.05, 0.5), random_state=np.random.RandomState(trial),
                          format="csr")
            g.data = rng.normal(size=g.nnz) * 10.0 ** rng.integers(-8, 8, size=g.nnz)
            yield sp.csr_matrix(g.multiply((rng.random(m) < 0.7)[:, None]))  # empty a few rows

    def test_matches_scipy_product_bit_for_bit(self):
        rng = np.random.default_rng(9)
        empty_rows = 0
        for g in self.matrices(rng):
            empty_rows += g.shape[0] - np.count_nonzero(np.diff(g.indptr))
            v = rng.normal(size=g.shape[1])
            for index in (np.int32, np.int64):
                m = g.copy()
                m.indices, m.indptr = m.indices.astype(index), m.indptr.astype(index)
                assert m.indices.dtype == m.indptr.dtype == index
                buf = np.full(m.shape[0] + 7, np.nan)  # out is a slice of a larger buffer
                out = buf[3 : 3 + m.shape[0]]
                qp_module._copy_product(m, v, out)
                ref = m @ v
                assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
                assert np.isnan(buf[:3]).all() and np.isnan(buf[3 + m.shape[0] :]).all()
        assert empty_rows > 40

    def test_transpose_product_matches_scipy_bit_for_bit(self):
        """``_copy_product_t`` reads G' from G's own CSR arrays and gives the
        bits of ``g.T @ v`` and of the product with G' built in CSR form, on
        random matrices and on reduced preset G's."""
        rng = np.random.default_rng(10)
        reduced = []
        for name in ("quadruped_tilted_terrain", "hexapod_rotation"):
            prob = preset_chunk(name)
            ws = BoxQp.from_miqp(prob)
            reduced += [as_scipy(ws._presolve(f).g) for f in preset_fixings(prob, ws, name, count=3)]
        assert all(sp.issparse(g) and g.nnz > 100 for g in reduced)
        for g in [*self.matrices(rng), *reduced]:
            v = rng.normal(size=g.shape[0]) * 10.0 ** rng.integers(-4, 4, size=g.shape[0])
            for index in (np.int32, np.int64):
                m = g.copy()
                m.indices, m.indptr = m.indices.astype(index), m.indptr.astype(index)
                buf = np.full(m.shape[1] + 7, np.nan)  # out is a slice of a larger buffer
                out = buf[3 : 3 + m.shape[1]]
                qp_module._copy_product_t(m, v, out)
                for ref in (m.T @ v, m.T.tocsr() @ v):
                    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
                assert np.isnan(buf[:3]).all() and np.isnan(buf[3 + m.shape[1] :]).all()


def stacked_calls():
    """(reduced problem, whether it is CSR) of a random dense workspace's
    calls, a random CSR one's and a preset chunk's."""
    rng = np.random.default_rng(31)
    for n, m, n_eq in ((14, 12, 3), (120, 200, 4)):
        ws, _, _ = random_workspace(rng, n, m, n_eq)
        for fixings in random_fixings(rng, n, count=3):
            yield ws._presolve(fixings), ws.sparse
    name = "quadruped_tilted_terrain"
    prob = preset_chunk(name)
    ws = BoxQp.from_miqp(prob)
    for fixings in [{}, *preset_fixings(prob, ws, name, count=3)]:
        yield ws._presolve(fixings), ws.sparse


class TestStackedOperator:
    """One product with G_all = [G; -I; I] (``_stacked``) gives what G's
    product and the bound blocks give taken apart: bit for bit on a CSR
    call, but for the sign of a zero (a unit row writes 0 + (-1) v_i), and
    within 1e-12 relative on a dense one, whose products sum the stacked
    rows in BLAS's order."""

    @pytest.fixture(scope="class")
    def calls(self):
        calls = list(stacked_calls())
        assert [sparse for _, sparse in calls] == [False] * 4 + [True] * 8
        return calls

    def test_products_match_the_blocks(self, calls):
        rng = np.random.default_rng(32)
        for red, sparse in calls:
            g, nf, mi = red.g, red.c.size, red.h.size
            g_all = qp_module._stacked(g, nf)
            v, w = rng.normal(size=nf), rng.uniform(0.1, 10.0, size=mi + 2 * nf)
            v[::3] = 0.0  # zeros whose sign a unit row may flip
            w_g, w_l, w_u = w[:mi], w[mi : mi + nf], w[mi + nf :]
            gv, gw = np.empty(mi + 2 * nf), np.empty(nf)
            if sparse:
                assert isinstance(g_all, qp_module._Csr) and g_all.shape == (mi + 2 * nf, nf)
                qp_module._copy_product(g_all, v, gv)
                qp_module._copy_product_t(g_all, w, gw)
                ref_w = np.empty(nf)
                qp_module._copy_product_t(g, w_g, ref_w)
                ref_v, ref_w = np.concatenate([qp_module._times(g, v), -v, v]), ref_w - w_l + w_u
                assert (gv + 0.0).tobytes() == (ref_v + 0.0).tobytes()
                assert (gw + 0.0).tobytes() == (ref_w + 0.0).tobytes()
            else:
                assert g_all.flags.c_contiguous and g_all.shape == (mi + 2 * nf, nf)
                np.dot(g_all, v, out=gv)
                np.dot(g_all.T, w, out=gw)
                ref_v, ref_w = np.concatenate([g @ v, -v, v]), g.T @ w_g - w_l + w_u
                assert np.abs(gv - ref_v).max() <= 1e-12 * np.abs(ref_v).max()
                assert np.abs(gw - ref_w).max() <= 1e-12 * np.abs(ref_w).max()

    def test_fused_norms_match_each_norm(self, calls):
        """The loop's one reduction over [G_all x; A x], [Px; G_all'z; A'y]
        and [r_p; r_e] gives each block's ``_norm`` bit for bit, with the
        largest entry in any block, signed zeros and A'y zero without rows."""
        rng = np.random.default_rng(33)
        for red, _ in calls:
            nf, me = red.c.size, red.b.size
            n_p = red.h.size + 2 * nf + me
            starts = np.array([0, n_p, n_p + 3 * nf])
            for trial in range(6):
                sums = rng.normal(size=2 * n_p + 3 * nf) * 10.0 ** rng.integers(-8, 8, size=2 * n_p + 3 * nf)
                sums[rng.integers(sums.size)] *= -1e20
                sums[rng.random(sums.size) < 0.2] = -0.0
                if trial % 2:
                    sums[n_p + 2 * nf : n_p + 3 * nf] = 0.0
                fused = np.maximum.reduceat(np.abs(sums, out=np.empty(sums.size)), starts).tolist()
                parts = np.split(sums, starts[1:])
                assert [np.float64(f).tobytes() for f in fused] == [
                    np.float64(qp_module._norm(part)).tobytes() for part in parts
                ]


class TestNonFiniteDirection:
    """In ``_interior_point``, a corrector direction whose dx is not finite ends the loop in the
    iteration it appears, before the step: a NaN entry makes a ratio of the
    step test NaN, an infinite one a ratio -inf and the step 0. The status
    and iteration count are those the loop gave when it tested dx with
    ``np.isfinite``: the iterations before it, then the Farkas bound's
    verdict."""

    @staticmethod
    def spoiled(monkeypatch, cls, call, value):
        """Make the ``call``-th Newton solve (the corrector of iteration
        call / 2) write ``value`` into dx's first entry."""
        count, real = [0], cls.solve

        def solve(system, rhs):
            count[0] += 1
            d = real(system, rhs)  # rhs itself, solved in place
            if count[0] == call:
                d[0] = value
            return d

        monkeypatch.setattr(cls, "solve", solve)

    @pytest.mark.parametrize("n, m, cls", [(14, 12, qp_module._LuNewton), (120, 200, qp_module._CholeskyNewton)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("iteration", [1, 2])
    def test_ends_where_the_isfinite_test_ended(self, monkeypatch, n, m, cls, value, iteration):
        # a dense call that runs its interior point to its own end (see ``with_flat_column``)
        ws, _, _ = random_workspace(np.random.default_rng(5), n, m, n_eq=3, flat=cls is qp_module._LuNewton)
        assert ws.sparse == (cls is qp_module._CholeskyNewton)
        assert ws.solve().iterations > 2
        with monkeypatch.context() as patch, np.errstate(invalid="ignore"):
            self.spoiled(patch, cls, 2 * iteration, value)
            sol = ws.solve()
        assert (sol.status, sol.iterations) == ("max-iterations", iteration)
        assert np.isfinite(sol.x).all()


class TestContractPaths:
    """The path ``BoxQp.solve`` takes: ``_held_sparse`` (SPARSE_MIN_ENTRIES)
    picks the holding, and ``_CholeskyNewton.build`` a CSR call's Newton
    system or, when an equality row has no private pivot, the dense LU path.
    Each family of ``oracles.CONTRACT_FAMILIES`` keeps to its own path, so
    the contract reaches every path with no constant patched."""

    #: (held in CSR form, a Cholesky Newton system, equality rows) of every call of each family
    PATHS = {"box": (False, False, False), "criterion-1": (False, False, False), "dense-eq": (False, False, True),
             "csr": (True, True, False), "csr-eq": (True, True, True), "lu-fallback": (True, False, True)}

    @pytest.mark.parametrize("family", list(CONTRACT_FAMILIES))
    def test_each_family_keeps_to_its_path(self, family):
        paths = collections.Counter()
        for prob, fixings in CONTRACT_FAMILIES[family]():
            ws = BoxQp.from_miqp(prob)
            # a call that the presolve proves infeasible takes no path
            paths.update((ws.sparse, red.newton is not None, red.b.size > 0)
                         for red in map(ws._presolve, fixings) if red is not None)
        assert list(paths) == [self.PATHS[family]] and paths.total() >= 3


class TestCsrWorkspace:
    """Calls of a CSR workspace (``BoxQp._slice_csr``, ``_take``): a solve
    leaves the workspace as it found it and builds no scipy matrix, and a
    call on the LU fallback takes scipy's slices, made dense, and solves as
    the same workspace held dense does."""

    @staticmethod
    def solve_each(ws, root, pairs) -> set:
        """The statuses of cold, warm and cutoff calls with each fixing of ``pairs``."""
        statuses = set()
        for fixings in [f for kids in pairs for f in kids]:
            statuses.add(ws.solve(fixings).status)
            statuses.add(ws.solve(fixings, start=root).status)
            statuses.add(ws.solve(fixings, cutoff=root.objective + 1e-9).status)
        return statuses

    @classmethod
    def state(cls, value):
        """``value`` as nested tuples of scalars, object identities and array bytes."""
        if value is None or isinstance(value, (bool, int, float)):
            return value
        if isinstance(value, np.ndarray):
            return id(value), value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, dict):
            return tuple((key, cls.state(item)) for key, item in value.items())
        if isinstance(value, tuple):
            return id(value), tuple(map(cls.state, value))
        return id(value), type(value).__name__, cls.state(vars(value))

    @pytest.fixture(scope="class")
    def children(self):
        """The quadruped chunk problem, and child fixing pairs of its most
        fractional binaries: those whose two children share a presolve key
        (free columns, G rows, A rows), and those whose children do not."""
        prob = preset_chunk("quadruped_tilted_terrain")
        ws = BoxQp.from_miqp(prob)
        root = ws.solve()
        bins = prob.binary_indices[np.argsort(np.abs(root.x[prob.binary_indices] - 0.5), kind="stable")]
        same, other = [], []
        for j in bins[:40].tolist():
            kids = {j: 0.0}, {j: 1.0}
            # a call's key, read off its reduced problem: the A rows are the
            # equality rows and the first row of each zero-width pair
            keys = [(red.cols, red.g_rows, red.eq_rows, red.pair_rows) for red in map(ws._presolve, kids)]
            (same if all(map(np.array_equal, *keys)) else other).append(kids)
        assert same and other
        return prob, same, other

    def test_second_child_matches_a_fresh_workspace(self, children):
        prob, same, _ = children
        for kids in same[:3]:
            for first, second in (kids, kids[::-1]):
                ws = BoxQp.from_miqp(prob)
                ws.solve(first)
                assert same_solution(ws.solve(second), BoxQp.from_miqp(prob).solve(second))

    @staticmethod
    def scipy_counts(monkeypatch) -> dict:
        """From now on, count the scipy sparse matrices constructed and the
        scipy products dispatched."""
        from scipy.sparse import _base

        counts = {"constructed": 0, "products": 0}
        init, dispatch = _base._spbase.__init__, _base._spbase._matmul_dispatch

        def counted_init(self, *args, **kwargs):
            counts["constructed"] += 1
            init(self, *args, **kwargs)

        def counted_dispatch(self, other):
            counts["products"] += 1
            return dispatch(self, other)

        monkeypatch.setattr(_base._spbase, "__init__", counted_init)
        monkeypatch.setattr(_base._spbase, "_matmul_dispatch", counted_dispatch)
        return counts

    def test_solves_leave_the_workspace_unchanged(self, monkeypatch, children):
        """Cold, warm and cutoff calls of a CSR workspace leave it as they
        found it, construct no scipy sparse matrix and dispatch no scipy
        product."""
        prob, same, other = children
        ws = BoxQp.from_miqp(prob)
        before = self.state(vars(ws))
        root = ws.solve()
        counts = self.scipy_counts(monkeypatch)
        assert {"optimal", "cutoff"} <= self.solve_each(ws, root, same[:2] + other[:2])
        assert counts == {"constructed": 0, "products": 0}
        assert self.state(vars(ws)) == before
        sp.csr_matrix((2, 2)) @ np.ones(2)  # the counters see a construction and a product
        assert counts == {"constructed": 1, "products": 1}

    @pytest.mark.parametrize("shared", [2, 4])
    def test_lu_fallback(self, monkeypatch, shared):
        """Calls of CSR workspaces whose equality rows share their columns,
        each on the dense LU path. A call's dense G and A are scipy's slices
        of the workspace's G and [A; G], byte for byte, float64 and
        C-ordered; cold, warm and cutoff calls construct no scipy sparse
        matrix and dispatch no scipy product; and a call ends as the same
        workspace held dense does, its objective within 1e-12."""
        rng = np.random.default_rng(7 + shared)
        ws, _, _ = random_workspace(rng, 120, 200, 4, shared=shared)
        fixings = random_fixings(rng, 120)
        for red in map(ws._presolve, fixings):
            assert red.newton is None
            # the A rows: the equality rows, then the first row of each zero-width pair
            a_rows = np.concatenate([red.eq_rows[red.eq_rows >= 0], ws.b.size + red.pair_rows[:, 0]])
            for got, m, rows in ((red.g, ws.g, red.g_rows), (red.a, ws._ag, a_rows)):
                ref = sp.csr_matrix(m)[rows][:, red.cols].toarray()
                assert got.dtype == ref.dtype == np.float64 and got.shape == ref.shape
                assert got.flags.c_contiguous and got.tobytes() == ref.tobytes()
        root = ws.solve()
        with monkeypatch.context() as patch:
            counts = self.scipy_counts(patch)
            assert "optimal" in self.solve_each(ws, root, [fixings])
            assert counts == {"constructed": 0, "products": 0}
            sp.csr_matrix((2, 2)) @ np.ones(2)  # the counters see a construction and a product
            assert counts == {"constructed": 1, "products": 1}
        monkeypatch.setattr(qp_module, "SPARSE_MIN_ENTRIES", 120 * 200)
        held_dense, _, _ = random_workspace(np.random.default_rng(7 + shared), 120, 200, 4, shared=shared)
        assert ws.sparse and not held_dense.sparse
        optimal = 0
        for sol, ref in zip(map(ws.solve, fixings), map(held_dense.solve, fixings)):
            assert sol.status == ref.status
            if sol.status == "optimal":
                assert abs(sol.objective - ref.objective) <= 1e-12 * abs(ref.objective)
                optimal += 1
        assert optimal >= 3


class TestPresolveInfeasibility:
    """A call whose presolve (``_crossed``, ``BoxQp._zero_width_pairs``) proves it infeasible ends "infeasible" after 0
    iterations, and HiGHS finds its rows and bounds infeasible as well."""

    @pytest.mark.parametrize("sparse", [False, True])
    def test_crossed_workspace_bounds(self, monkeypatch, sparse):
        if sparse:
            monkeypatch.setattr(qp_module, "SPARSE_MIN_ENTRIES", 0)
        for gap, infeasible in ((1e-6, True), (1e-12, False)):
            # x1 in [0, -gap]: crossed beyond FEAS_TOL, or within it
            prob = make_problem(np.eye(3), [1.0, 0.0, 0.0], lb=[-1.0, 0.0, 0.0], ub=[1.0, -gap, 1.0],
                                bins=[2], a_in=[[1.0, 1.0, 1.0]], b_in=[5.0])
            ws = BoxQp.from_miqp(prob)
            assert ws.sparse == sparse
            for fixings in ({}, {2: 1.0}):
                sol = ws.solve(fixings)
                assert workspace_feasible(ws, fixings) != infeasible
                if infeasible:
                    assert (sol.status, sol.iterations) == ("infeasible", 0)
                else:
                    assert sol.status == "optimal"

    @pytest.mark.parametrize("sparse", [False, True])
    def test_zero_width_pair_of_negative_width(self, monkeypatch, sparse):
        if sparse:
            monkeypatch.setattr(qp_module, "SPARSE_MIN_ENTRIES", 0)
        # x0 + x1 <= 0.5 - b and x0 + x1 >= 1 - 2b: rows opposite on x0 and
        # x1, whose pair, once b is fixed, has width b - 0.5: -0.5 at b = 0
        prob = make_problem(np.diag([1.0, 1.0, 0.0]), [0.0, 0.0, 0.0], lb=[-5.0, -5.0, 0.0],
                            ub=[5.0, 5.0, 1.0], bins=[2], a_in=[[1.0, 1.0, 1.0], [-1.0, -1.0, -2.0]],
                            b_in=[0.5, -1.0])
        ws = BoxQp.from_miqp(prob)
        assert ws.sparse == sparse
        assert ws._pairs.tolist() == [[0, 1]]  # mechanism: the presolve pairs the rows
        for fixings, infeasible in (({2: 0.0}, True), ({2: 1.0}, False), ({}, False)):
            sol = ws.solve(fixings)
            assert workspace_feasible(ws, fixings) != infeasible
            if infeasible:
                assert (sol.status, sol.iterations) == ("infeasible", 0)
            else:
                assert sol.status == "optimal"


class TestInfeasibleHandOff:
    """The Farkas certificate in ``_interior_point``: ``_lagrangian_bound``
    without an iterate, less ``_rounding``'s allowance, taken when the
    iterates stall (STALL_ITERS, STALL_RATIO, STALL_GROWTH) or end
    unconverged; it alone decides a call infeasible past the presolve."""

    @staticmethod
    def node_problem():
        # the binary b relaxes x + y <= -1 + 2b and -x + y <= -1 + 2b; with b
        # fixed to 0 they force y <= -1 against y >= 0, which the presolve does not see
        return make_problem(np.diag([1.0, 1.0, 0.0]), [0.0, 0.0, 1.0],
                            a_in=[[1.0, 1.0, -2.0], [-1.0, 1.0, -2.0]], b_in=[-1.0, -1.0],
                            lb=[-5.0, 0.0, 0.0], ub=[5.0, 5.0, 1.0], bins=[2])

    def test_stalled_infeasible_node_is_decided_early(self, monkeypatch):
        ws = BoxQp.from_miqp(self.node_problem())
        assert not highs_feasible(ws._presolve({2: 0.0}))
        taken = farkas_bounds(monkeypatch)
        sol = ws.solve(fixings={2: 0.0})
        assert sol.status == "infeasible"
        assert len(taken) == 1 and taken[0][1] > 0.0  # the certificate decides at the first stall
        # waiting for the step to collapse took 16 iterations on this node
        assert sol.iterations < 16
        # the certificate alone decides: when it refuses, the call iterates
        # past the stall, takes it at each later one and ends undecided
        monkeypatch.setattr(qp_module, "_rounding", lambda terms, magnitude: math.inf)
        taken.clear()
        undecided = ws.solve(fixings={2: 0.0})
        assert undecided.status == "max-iterations"
        assert undecided.iterations > sol.iterations and len(taken) > 2

    def test_stall_on_feasible_problem_keeps_iterating(self, monkeypatch):
        ws = BoxQp.from_miqp(with_flat_column(self.node_problem()))  # no call ends at an active-set solve
        plain = ws.solve(fixings={2: 1.0})
        assert plain.status == "optimal" and plain.iterations > qp_module.STALL_ITERS + 1
        # make every iteration with a primal residual, after the first
        # STALL_ITERS, a stall: the certificate refuses at each, the stall
        # test fires again on later iterations, and they go on bit for bit
        monkeypatch.setattr(qp_module, "STALL_RATIO", 0.0)
        monkeypatch.setattr(qp_module, "STALL_GROWTH", 0.0)
        taken = farkas_bounds(monkeypatch)
        sol = ws.solve(fixings={2: 1.0})
        assert sol.status == "optimal"
        assert len(taken) > 1 and not any(bound > 0.0 for _, bound in taken)
        assert sol.iterations == plain.iterations
        assert sol.x.tobytes() == plain.x.tobytes() and sol.objective == plain.objective
        # an unconverged end takes the certificate once more, and ends undecided when it refuses
        taken.clear()
        monkeypatch.setattr(qp_module, "MAX_ITER", qp_module.STALL_ITERS + 2)
        short = ws.solve(fixings={2: 1.0})
        assert short.status == "max-iterations"
        assert len(taken) == 3


def tree_workload(seed: int):
    """The ``tree_random_miqp`` benchmark workload on the batch of ``seed``,
    its module loaded from its file, which imports only ``stepplan``."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name].TreeRandomMiqp(ROOT, seed, False)


class TestInfeasibilityCertificate:
    """The Farkas bound (``_lagrangian_bound`` without an iterate) exceeds 0
    only on calls whose rows are infeasible: at random multipliers it never
    does on a call that HiGHS finds feasible, and every call of the tree
    batches that it ends "infeasible" HiGHS finds infeasible too."""

    @staticmethod
    def certifies(red, z_g, y) -> bool:
        a_t = red.newton.a_t if red.newton is not None else red.a.T.copy()
        return qp_module._lagrangian_bound(red, a_t, z_g, y, a_t.dot(y), 0.0) > 0.0

    def test_random_multipliers_never_certify_a_feasible_call(self):
        rng = np.random.default_rng(47)
        calls = []
        for _ in range(30):
            prob = criterion_1_problem(rng)
            ws = BoxQp.from_miqp(prob)
            bins = prob.binary_indices.tolist()
            calls += [(ws, {})] + [(ws, dict(zip(bins, rng.integers(0, 2, len(bins)).astype(float))))
                                   for _ in range(4)]
        for n, m, n_eq in ((14, 12, 0), (14, 12, 3), (120, 200, 0), (120, 200, 4)):
            ws, _, _ = random_workspace(rng, n, m, n_eq)
            calls += [(ws, fixings) for fixings in random_fixings(rng, n, 10)]
        feasible = infeasible = certified = 0
        for ws, fixings in calls:
            red = ws._presolve(fixings)
            if red is None or not red.cols.size:
                continue
            lp_feasible = highs_feasible(red)
            feasible += lp_feasible
            infeasible += not lp_feasible
            for scale in 10.0 ** rng.uniform(-3, 6, size=20):
                z_g = scale * rng.exponential(size=red.h.size)
                y = scale * rng.normal(size=red.b.size)
                if self.certifies(red, z_g, y):
                    assert not lp_feasible
                    certified += 1
        assert feasible >= 150 and infeasible >= 15 and certified >= 40

    @pytest.mark.parametrize("h, infeasible", [(0.0, False), (-1e-12, False), (-1e-10, False), (-1e-6, True)])
    def test_rows_within_the_presolve_tolerance_are_not_certified(self, h, infeasible):
        """x + y <= h and -x + y <= h meet y >= 0 only at x = 0, y = h, and
        z_G = (1, 1) gives a bound of -2h at any scale. Rows violated there by
        less than the presolve's tolerance, as HiGHS accepts them, are not
        certified; rows violated by far more are."""
        prob = make_problem(np.eye(2), [0.0, 0.0], a_in=[[1.0, 1.0], [-1.0, 1.0]], b_in=[h, h],
                            lb=[-5.0, 0.0], ub=[5.0, 5.0])
        red = BoxQp.from_miqp(prob)._presolve(None)
        assert highs_feasible(red) != infeasible
        for scale in 10.0 ** np.arange(-3.0, 7.0):
            assert self.certifies(red, np.full(2, scale), np.zeros(0)) == infeasible

    def test_calls_it_decides_on_the_tree_batches_are_infeasible(self, monkeypatch):
        taken = farkas_bounds(monkeypatch)
        for seed in (1, 2, 3):
            workload = tree_workload(seed)
            workload.run(bnb, workload.setup(bnb))
        decided = [red for red, bound in taken if bound > 0.0]
        assert len(decided) >= 100
        assert not any(highs_feasible(red) for red in decided)

    def test_no_relaxation_calls_highs(self, monkeypatch):
        """Planning the five presets and running the tree batch of seed 1
        enter HiGHS nowhere, and every call whose interior point ends
        "infeasible" there is infeasible by the oracle. The presets are
        loaded first: their region boxes are HiGHS LPs run at load time."""
        scenarios = [load_scenario(path) for path in sorted(SCENARIOS.glob("*.json"))]
        assert len(scenarios) == 5
        workload = tree_workload(1)
        problems = workload.setup(bnb)
        calls, decided, highs, real = collections.Counter(), [], [], qp_module._interior_point

        def interior_point(red, cutoff, start=None):
            out = real(red, cutoff, start)
            calls[out[5]] += 1
            if out[5] == "infeasible":
                decided.append(red)
            return out

        def refuse(*args, **kwargs):
            highs.append(args)
            raise AssertionError("a relaxation called HiGHS")

        with monkeypatch.context() as patch:
            patch.setattr(qp_module, "_interior_point", interior_point)
            stepplan_modules = [m for name, m in sys.modules.items() if name.startswith("stepplan")]
            for module in [scipy.optimize, *stepplan_modules]:
                for name in ("milp", "linprog"):
                    if hasattr(module, name):
                        patch.setattr(module, name, refuse)
            for scenario in scenarios:
                plan(scenario)
            preset_decided = len(decided)
            workload.run(bnb, problems)
        assert highs == [] and sum(calls.values()) > 1000
        assert preset_decided >= 5 and len(decided) >= preset_decided + 20
        assert not any(highs_feasible(red) for red in decided)


class TestInputsUntouched:
    """``BoxQp.__init__`` drops stored zeros (``_stored``) from its own copies, not from the caller's."""

    def test_from_miqp_leaves_the_problem_matrices_alone(self):
        # each matrix stores an explicit zero, which the workspace drops from its own copy
        def with_zero(data, indices, indptr, shape):
            return sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), shape=shape)

        prob = dataclasses.replace(
            make_problem(np.eye(3), [0.0, 0.0, 0.0], a_in=[[1.0, 0.0, 1.0]], b_in=[1.0],
                         a_eq=[[0.0, 1.0, 1.0]], b_eq=[0.5]),
            a_ineq=with_zero([1.0, 0.0, 1.0], [0, 1, 2], [0, 3], (1, 3)),
            a_eq=with_zero([0.0, 1.0, 1.0], [0, 1, 2], [0, 3], (1, 3)),
            q_matrix=with_zero([1.0, 0.0, 1.0, 1.0], [0, 2, 1, 2], [0, 2, 3, 4], (3, 3)),
        )
        matrices = (prob.a_ineq, prob.a_eq, prob.q_matrix)
        before = [(m.nnz, m.data.copy(), m.indices.copy()) for m in matrices]
        ws = BoxQp.from_miqp(prob)
        for m, (nnz, data, indices) in zip(matrices, before):
            assert m.nnz == nnz
            assert np.array_equal(m.data, data) and np.array_equal(m.indices, indices)


class TestLazyDuals:
    """``QpSolution``'s ``y``, ``prim_res`` and ``dual_res``, mapped back by
    ``BoxQp._multipliers`` when first read, and set at once by ``BoxQp._unsolved``."""

    # between them, bounds set by singleton rows, a pinned variable and a
    # zero-width pair run every branch of the map back to full multipliers
    @pytest.mark.parametrize("build, fixings", [
        (lambda: TestPresolveCascade.problem(), [{3: 1.0}, {3: 0.0}, {}]),
        (lambda: TestMultipliers.pair(), [{2: 1.0}, {2: 0.0}, {}]),
    ], ids=["cascade", "pair"])
    def test_read_late_equals_read_at_once(self, build, fixings):
        prob = build()
        ws = BoxQp.from_miqp(prob)
        # solve every fixing set first, so later solves run before any read
        late = [ws.solve(fixings=f) for f in fixings]
        for f, sol in zip(fixings, late):
            fresh = BoxQp.from_miqp(prob).solve(fixings=f)
            y, prim_res, dual_res = fresh.y.copy(), fresh.prim_res, fresh.dual_res
            assert sol.status == fresh.status == "optimal"
            assert sol.y.tobytes() == y.tobytes()
            assert (sol.prim_res, sol.dual_res) == (prim_res, dual_res)
            assert max(sol.prim_res, sol.dual_res) <= 1e-9

    def test_unsolved_fields_are_set_at_once(self):
        infeasible = TestFixingContract.workspace().solve(fixings={0: 2.0})
        prob = with_flat_column(criterion_1_problem(np.random.default_rng(3)))
        ws = BoxQp.from_miqp(prob)  # the call runs its interior point to the cutoff
        cut = ws.solve(cutoff=ws.solve().objective - 0.1)
        assert infeasible.status == "infeasible" and cut.status == "cutoff" and math.isfinite(cut.objective)
        for sol, size in ((infeasible, 2), (cut, prob.n_ineq + prob.n_eq + prob.n_vars)):
            assert np.array_equal(sol.y, np.zeros(size)) and sol.prim_res == sol.dual_res == math.inf


class TestCsrTake:
    """``_take`` and ``_Csr.dense``: scipy's row and column slices of a CSR matrix."""

    @staticmethod
    def unsorted(m, rng):
        """``m`` with each row's entries in a random order."""
        order = np.concatenate([
            m.indptr[i] + rng.permutation(m.indptr[i + 1] - m.indptr[i]) for i in range(m.shape[0])
        ]).astype(int)
        return sp.csr_matrix((m.data[order], m.indices[order], m.indptr), shape=m.shape)

    def test_matches_scipy_fancy_indexing(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            n_rows, n = int(rng.integers(1, 25)), int(rng.integers(1, 25))
            m = sp.random(n_rows, n, density=0.35, format="csr",
                          random_state=np.random.RandomState(trial))
            if trial % 2:
                m = self.unsorted(m, rng)
            # rows in any order, repeats allowed; columns ascending
            rows = rng.integers(0, n_rows, size=int(rng.integers(0, n_rows + 2)))
            cols = np.flatnonzero(rng.random(n) < 0.6)
            col_map = np.full(n, -1)
            col_map[cols] = np.arange(cols.size)
            got = qp_module._take(m, rows, cols, col_map)
            ref = m[rows][:, cols]
            assert got.shape == ref.shape
            for name in ("data", "indices", "indptr"):
                u, v = getattr(got, name), getattr(ref, name)
                assert u.dtype == v.dtype and np.array_equal(u, v)

    def test_dense_matches_scipy_toarray(self):
        """A canonical matrix's slice, written into zeros by ``_Csr.dense``,
        is scipy's ``toarray`` of the same slice byte for byte, C-ordered,
        with rows in any order and repeated, empty rows and no rows."""
        rng = np.random.default_rng(12)
        empty = 0
        for trial in range(200):
            n_rows, n = int(rng.integers(1, 25)), int(rng.integers(1, 25))
            m = sp.random(n_rows, n, density=rng.uniform(0.05, 0.6), format="csr",
                          random_state=np.random.RandomState(trial))
            m.data = rng.normal(size=m.nnz) * 10.0 ** rng.integers(-8, 8, size=m.nnz)
            rows = rng.integers(0, n_rows, size=int(rng.integers(0, n_rows + 2)))
            cols = np.flatnonzero(rng.random(n) < 0.6)
            col_map = np.full(n, -1)
            col_map[cols] = np.arange(cols.size)
            got = qp_module._take(m, rows, cols, col_map).dense()
            ref = m[rows][:, cols].toarray()
            assert got.dtype == ref.dtype and got.shape == ref.shape and got.flags.c_contiguous
            assert got.tobytes() == ref.tobytes()
            empty += rows.size == 0
        assert empty > 5


class TestShrinkableRows:
    """``BoxQp._tests_rows``, the workspace flag that makes the presolve test every row or none."""

    @staticmethod
    def random_fixings(rng, bins, count=20):
        out = []
        for _ in range(count):
            pick = rng.choice(bins, size=int(rng.integers(1, bins.size + 1)), replace=False)
            out.append({int(i): float(rng.integers(0, 2)) for i in pick})
        return out

    @pytest.mark.parametrize("name", [p.stem for p in sorted(SCENARIOS.glob("*.json"))])
    @pytest.mark.parametrize("chunks", [1, 4])
    def test_every_preset_workspace_tests_rows(self, name, chunks):
        assert BoxQp.from_miqp(preset_chunk(name, chunks))._tests_rows is True

    def test_random_miqps_test_no_row_and_keep_two_free_entries(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            prob = random_miqp(rng)
            ws = BoxQp.from_miqp(prob)
            assert ws._tests_rows is False
            for fixing in self.random_fixings(rng, prob.binary_indices, count=5):
                red = ws._presolve(fixing)
                free = np.zeros(ws.n)
                free[red.cols] = 1.0
                assert np.all(ws._nz_ag @ free >= 2.0)  # the rows of [A; G]
                assert red.g_rows.size == ws.h.size

    def test_a_collapsed_column_sets_the_flag(self):
        # x1 is collapsed at 0.25, so row 0 has one free entry, x0, and sets
        # its upper bound to 0.75; row 1 keeps x0 and x2
        prob = make_problem(np.eye(4), np.full(4, -1.0), lb=[0.0, 0.25, 0.0, 0.0], ub=[1.0, 0.25, 1.0, 1.0],
                            bins=[3], a_in=[[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0]], b_in=[1.0, 2.0])
        ws = BoxQp.from_miqp(prob)
        assert ws._tests_rows is True
        red = ws._presolve(None)
        assert red.cols.tolist() == [0, 2, 3] and red.g_rows.tolist() == [1]
        assert red.hi[0] == 0.75 and red.bound_rows[:, 0].tolist() == [-1, 0]

    def test_rows_shrink_through_a_row_a_singleton_pins(self):
        # row 0 pins x0 once b0 = 1 (x0 <= 0 = lo); with b1 fixed too, row 1
        # then has one free entry, x1, although two of its entries are
        # continuous; row 2 keeps x2 and x3
        prob = make_problem(np.eye(6), np.full(6, -0.1), lb=np.zeros(6), ub=np.ones(6), bins=[4, 5],
                            a_in=[[1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                                  [1.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                                  [0.0, 0.0, 1.0, 1.0, 0.0, 1.0]],
                            b_in=[1.0, 3.0, 3.0])
        ws = BoxQp.from_miqp(prob)
        assert ws._tests_rows is True
        red = ws._presolve({4: 1.0, 5: 0.0})
        assert red.cols.tolist() == [1, 2, 3] and red.g_rows.tolist() == [2]

    def test_fixing_a_continuous_column_tests_rows(self):
        # no binaries, so no row can shrink under pinnable fixings; pinning
        # x0 makes row 0 a singleton that sets x1's upper bound
        prob = make_problem(np.eye(2), [-4.0, -4.0], lb=[-1.0, -1.0], ub=[3.0, 3.0],
                            a_in=[[1.0, 1.0]], b_in=[2.5])
        ws = BoxQp.from_miqp(prob)
        assert ws._tests_rows is False
        red = ws._presolve({0: 1.0})
        assert red.cols.tolist() == [1] and red.g_rows.size == 0
        assert red.bound_rows[:, 0].tolist() == [-1, 0] and red.hi[0] == 1.5

    def test_a_call_that_tests_no_row_matches_one_that_tests_every_row(self):
        """Cold, warm and cutoff calls on criterion-1 problems, which test no
        row, return what the same calls return on a twin workspace made to
        test every row before any solve, bit for bit, ``y`` included."""
        rng = np.random.default_rng(37)
        statuses = set()
        for _ in range(30):
            prob = criterion_1_problem(rng)
            ws, twin = BoxQp.from_miqp(prob), BoxQp.from_miqp(prob)
            assert ws._tests_rows is False
            twin._tests_rows = True
            roots = ws.solve(), twin.solve()
            assert same_solution(*roots)
            for fixings in self.random_fixings(rng, prob.binary_indices, count=4):
                assert ws._presolve(fixings).bound_rows is None
                assert twin._presolve(fixings).bound_rows is not None
                cold = ws.solve(fixings), twin.solve(fixings)
                warm = ws.solve(fixings, start=roots[0]), twin.solve(fixings, start=roots[1])
                cutoff = roots[0].objective + 0.5 * abs(roots[0].objective) * rng.random()
                cut = ws.solve(fixings, cutoff=cutoff), twin.solve(fixings, cutoff=cutoff)
                for pair in (cold, warm, cut):
                    assert same_solution(*pair)
                    statuses.add(pair[0].status)
        assert {"optimal", "infeasible", "cutoff"} <= statuses


def reference_pairs(g, kept):
    """Opposite row pairs by comparing every two rows of ``g``.

    A row takes part with two or more entries on the ``kept`` columns, one
    of them nonzero after rounding to 12 digits; a key is the row's sorted
    (column, rounded value) entries. Group ids number the keys by the first
    row that has them, and a pair's group is the smaller id of its two keys.
    """
    g = sp.csr_matrix(g)
    keys = {}
    for i in range(g.shape[0]):
        lo, hi = g.indptr[i], g.indptr[i + 1]
        entries = sorted(
            (int(c), float(np.round(v, 12)) + 0.0)
            for c, v in zip(g.indices[lo:hi], g.data[lo:hi])
            if kept[c] and v != 0.0
        )
        if len(entries) >= 2 and any(v != 0.0 for _, v in entries):
            keys[i] = tuple(entries)
    ids = {}
    for key in keys.values():
        ids.setdefault(key, len(ids))
    pairs, groups = [], []
    for i, key in keys.items():
        negated = tuple((c, -v + 0.0) for c, v in key)
        for j, other in keys.items():
            if i < j and other == negated:
                pairs.append((i, j))
                groups.append(min(ids[key], ids[other]))
    return np.array(pairs, dtype=int).reshape(-1, 2), np.array(groups, dtype=int)


def fuzz_matrix(rng, trial):
    """A small matrix with planted negated and repeated rows, all-zero rows,
    entries that round to 0.0 or -0.0, a stored -0.0 entry and, on odd
    trials, unsorted column indices."""
    m, n = int(rng.integers(0, 30)), int(rng.integers(1, 12))
    dense = rng.choice([0.0, 1.0, -1.0, 0.5, -2.0, 1e-13, -1e-13, 3.0, 0.1 + 1e-14],
                       size=(m, n), p=[0.5, 0.1, 0.1, 0.05, 0.05, 0.025, 0.025, 0.1, 0.05])
    for _ in range(m):
        i, j = rng.integers(0, m, 2)
        dense[j] = -dense[i] if rng.random() < 0.7 else dense[i]
    if m:
        dense[rng.integers(0, m)] = 0.0
    g = sp.csr_matrix(dense)
    if g.nnz:
        data = g.data.copy()
        data[rng.integers(0, g.nnz)] = -0.0  # a stored negative zero
        g = sp.csr_matrix((data, g.indices, g.indptr), shape=g.shape)
    if trial % 2 and m:
        g = TestCsrTake.unsorted(g, rng)
    return g, rng.random(n) < 0.8


class TestOppositePairs:
    """``_opposite_pairs``: the candidate opposite row pairs, found by one sort."""

    @staticmethod
    def check(g, kept):
        # the workspace searches its matrix without stored zeros
        got = qp_module._opposite_pairs(qp_module._stored(g) if sp.issparse(g) else g, kept)
        ref = reference_pairs(g, kept)
        for u, v in zip(got, ref):
            assert u.dtype == v.dtype and u.shape == v.shape and np.array_equal(u, v)
        return len(ref[0])

    @pytest.mark.parametrize("name", [p.stem for p in sorted(SCENARIOS.glob("*.json"))])
    @pytest.mark.parametrize("chunks", [1, 4])
    def test_presets_match_the_row_by_row_search(self, name, chunks):
        ws = BoxQp.from_miqp(preset_chunk(name, chunks))
        assert ws.sparse == (chunks == 4)
        kept = ~ws._pinnable & (ws.lo < ws.hi)
        assert self.check(ws.g, kept) > 0
        for u, v in zip((ws._pairs, ws._pair_groups), reference_pairs(ws.g, kept)):
            assert np.array_equal(u, v)

    def test_fuzz_matrices_match_the_row_by_row_search(self):
        rng = np.random.default_rng(12)
        found = 0
        for trial in range(300):
            g, kept = fuzz_matrix(rng, trial)
            found += self.check(g, kept)
            found += self.check(g.toarray(), kept)  # as a dense workspace holds it
        assert found > 100


def sequential_singletons(rows, cols, coefs, rhs, lo, hi, bound_rows, bound_coefs):
    """Inequality singleton rows applied one at a time, in row order."""
    for k, col, coef in zip(rows, cols, coefs):
        bound = rhs[k] / coef
        if coef > 0.0 and bound < hi[col]:
            hi[col], bound_rows[1, col], bound_coefs[1, col] = bound, k, coef
        elif coef < 0.0 and bound > lo[col]:
            lo[col], bound_rows[0, col], bound_coefs[0, col] = bound, k, coef


def sequential_fixes(rows, cols, coefs, rhs, lo, hi):
    """Equality singleton rows applied one at a time; False at a conflict."""
    for k, col, coef in zip(rows, cols, coefs):
        val = rhs[k] / coef
        slack = qp_module.FEAS_TOL * (1.0 + abs(val))
        if not lo[col] - slack <= val <= hi[col] + slack:
            return False
        lo[col] = hi[col] = val
    return True


class TestSingletonRows:
    """``_tighten`` and ``_fix``: a round's singleton rows in a few array passes, as if applied one by one."""

    def test_tighten_matches_sequential_application(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 25))
            rows = np.sort(rng.choice(60, size=k, replace=False))
            cols = rng.integers(0, n, size=k)
            coefs = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=k)
            # few distinct right-hand sides, so bounds tie each other and the workspace bounds
            rhs = rng.choice([-1.0, 0.0, 1.0, 2.0], size=60)
            lo, hi = -rng.choice([1.0, 2.0], size=n), rng.choice([1.0, 2.0], size=n)
            got = [lo.copy(), hi.copy(), np.full((2, n), -1), np.zeros((2, n))]
            ref = [a.copy() for a in got]
            qp_module._tighten(rows, cols, coefs, rhs, *got)
            sequential_singletons(rows, cols, coefs, rhs, *ref)
            for u, v in zip(got, ref):
                assert u.tobytes() == v.tobytes()

    def test_fix_matches_sequential_application(self):
        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(200):
            n, k = int(rng.integers(1, 5)), int(rng.integers(1, 10))
            rows = np.sort(rng.choice(40, size=k, replace=False))
            cols = rng.integers(0, n, size=k)
            coefs = rng.choice([-1.0, 1.0, 2.0], size=k)
            rhs = rng.choice([0.5, 1.0, 1.0 + 1e-10, 1.0 + 1e-8], size=40)
            lo, hi = np.zeros(n), rng.choice([0.75, 1.5, 3.0], size=n)
            got, ref = [lo.copy(), hi.copy()], [lo.copy(), hi.copy()]
            ok = qp_module._fix(rows, cols, coefs, rhs, *got)
            assert ok == sequential_fixes(rows, cols, coefs, rhs, *ref)
            outcomes.add(ok)
            if ok:
                assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
        assert outcomes == {True, False}

    @staticmethod
    def workspace(a_in, b_in, a_eq=None, b_eq=None):
        n = len(a_in[0])
        return BoxQp.from_miqp(make_problem(np.eye(n), np.zeros(n), lb=np.full(n, -5.0), ub=np.full(n, 5.0),
                                            a_in=a_in, b_in=b_in, a_eq=a_eq, b_eq=b_eq))

    def test_several_rows_on_one_column(self):
        # x0 <= 3, x0 <= 1.5 (row 1), 2 x0 <= 3 (row 2 ties row 1), -x0 <= 1
        red = self.workspace([[1.0], [1.0], [2.0], [-1.0]], [3.0, 1.5, 3.0, 1.0])._presolve(None)
        assert red.lo.tolist() == [-1.0] and red.hi.tolist() == [1.5]
        assert red.bound_rows[:, 0].tolist() == [3, 1]  # the first row to reach the bound
        assert red.bound_coefs[:, 0].tolist() == [-1.0, 1.0]

    def test_a_tie_with_the_bound_keeps_it(self):
        # x0 <= 5 and -x0 <= 5 restate the bounds; x1 <= 1 tightens
        red = self.workspace([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [5.0, 5.0, 1.0])._presolve(None)
        assert red.bound_rows.tolist() == [[-1, -1], [-1, 2]]
        assert red.hi.tolist() == [5.0, 1.0]

    def test_equality_rows_on_one_column(self):
        # two rows that agree within the tolerance: the later one fixes x0
        ws = self.workspace([[1.0, 1.0]], [10.0], a_eq=[[1.0, 0.0], [2.0, 0.0]], b_eq=[0.5, 1.0 + 1e-10])
        red = ws._presolve(None)
        assert red.cols.tolist() == [1] and red.x[0] == (1.0 + 1e-10) / 2.0
        # two rows that disagree: infeasible
        ws = self.workspace([[1.0, 1.0]], [10.0], a_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[0.5, 0.6])
        assert ws._presolve(None) is None
        assert ws.solve().status == "infeasible"


def criterion_1_problem(rng):
    """A random MIQP of the form of criterion 1's: 2-10 continuous
    variables, 1-8 binaries and 2-8 rows with slack around a random
    integral point. It draws the linear term after the rows, so a seed
    gives other problems than ``oracles.random_miqp``."""
    n_c, n_b = int(rng.integers(2, 11)), int(rng.integers(1, 9))
    n = n_c + n_b
    g = rng.normal(size=(n, n)) * 0.6
    lb = np.concatenate([rng.uniform(-3, -0.5, n_c), np.zeros(n_b)])
    ub = np.concatenate([rng.uniform(0.5, 3, n_c), np.ones(n_b)])
    x0 = np.concatenate([rng.uniform(lb[:n_c], ub[:n_c]), rng.integers(0, 2, n_b).astype(float)])
    a = rng.normal(size=(int(rng.integers(2, 9)), n))
    return make_problem(g.T @ g / n + 0.02 * np.eye(n), rng.normal(size=n), 0.3, lb, ub,
                        range(n_c, n), a_in=a, b_in=a @ x0 + rng.uniform(0.05, 1.0, a.shape[0]))


class TestCutoff:
    """The cutoff test of ``_interior_point`` on ``_lagrangian_bound``, on
    calls that run their interior point to its end: a solve given a cutoff returns what it returns without one, bit for
    bit, or ends with status "cutoff" and a certified lower bound at or above
    the cutoff as its objective."""

    def test_bound_is_certified_or_solve_is_unchanged(self):
        rng = np.random.default_rng(21)
        ended, ended_infeasible, unchanged = 0, 0, 0
        for _ in range(60):
            prob = criterion_1_problem(rng)
            # no call ends at an active-set solve, which most would before their cutoff
            ws = BoxQp.from_miqp(with_flat_column(prob))
            root = ws.solve().objective
            bins = prob.binary_indices
            for _ in range(4):
                pick = rng.choice(bins, size=int(rng.integers(1, bins.size + 1)), replace=False)
                fixings = {int(i): float(rng.integers(0, 2)) for i in pick}
                full = ws.solve(fixings)
                ref = full.objective if full.status != "infeasible" else root
                for spread in 10.0 ** rng.uniform(-8, 0, size=6):
                    cutoff = ref + (1.0 + abs(ref)) * spread * rng.normal()
                    sol = ws.solve(fixings, cutoff=cutoff)
                    if sol.status != "cutoff":
                        assert same_solution(sol, full)
                        unchanged += 1
                        continue
                    assert cutoff <= sol.objective and np.isnan(sol.x).all()
                    assert sol.iterations <= full.iterations
                    if full.status == "infeasible":
                        ended_infeasible += 1
                    else:
                        assert sol.objective <= full.objective + 1e-9 * (1.0 + abs(full.objective))
                        ended += 1
        assert ended > 100 and ended_infeasible > 10 and unchanged > 100

class TestWarmStart:
    """The warm start: ``QpSolution._start``, its restriction to a call's
    rows in ``_interior_point``, and ``BoxQp.solve``'s cold retry of a warm
    call that ends "max-iterations"."""

    def test_warm_saves_iterations_on_criterion_1_problems(self):
        """The children and rounding candidates of criterion 1's roots take
        under 85% of their cold iterations when started from the root."""
        rng = np.random.default_rng(26)
        its = np.zeros(2, dtype=int)  # cold, warm
        for _ in range(60):
            prob = criterion_1_problem(rng)
            ws = BoxQp.from_miqp(prob)
            root = ws.solve()
            bins = prob.binary_indices.tolist()
            rounded = {i: float(root.x[i] > 0.5) for i in bins}
            children = [{i: v} for i in bins for v in (0.0, 1.0)]
            candidates = [rounded] + [{**rounded, i: 1.0 - rounded[i]} for i in bins]
            for fixings in children + candidates:
                cold, warm = ws.solve(fixings), ws.solve(fixings, start=root)
                if cold.status != "infeasible":
                    its += cold.iterations, warm.iterations
        assert its[1] < 0.85 * its[0]

    def test_warm_breakdown_on_the_24_step_chunk_is_solved_again_cold(self, monkeypatch):
        """A child of the paper's 24-step chunk that the tree proving it
        optimal asks for: started from the root, it ends "max-iterations",
        and the cold solve that follows is the solution."""
        ws = BoxQp.from_miqp(preset_chunk("hexapod_stepping_stones"))
        root = ws.solve()
        assert root.status == "optimal"
        fixings = {i: 1.0 for i in (175, 214, 266, 279)}
        fixings.update((i, 0.0) for i in (427, 430, 431, 437, 438, 439, 440, 441, 442, 459))
        cold = ws.solve(fixings)
        assert cold.status == "optimal"
        ends, factored, real, real_factor = [], [], qp_module._interior_point, qp_module._CholeskyNewton.factor

        def interior_point(red, cutoff, start=None):
            out = real(red, cutoff, start)
            ends.append((start is not None, out[4], out[5], factored[-1]))
            return out

        def factor(system, w):
            factored.append(real_factor(system, w))
            return factored[-1]

        monkeypatch.setattr(qp_module, "_interior_point", interior_point)
        monkeypatch.setattr(qp_module._CholeskyNewton, "factor", factor)
        retried = ws.solve(fixings, start=root)
        (warm, warm_its, warm_status, warm_factored), cold_end = ends
        # mechanism: the warm interior point stops at a failed Cholesky
        # factorization, long before MAX_ITER
        assert warm and warm_status == "max-iterations" and not warm_factored
        assert warm_its < qp_module.MAX_ITER and factored.count(False) == 1
        assert cold_end[:3] == (False, cold.iterations, "optimal")
        # contract: the cold solution, with the iterations of both solves
        assert retried.iterations == warm_its + cold.iterations
        assert same_solution(dataclasses.replace(retried, iterations=cold.iterations), cold)

    @staticmethod
    def stored_by_row(sol) -> np.ndarray:
        """[s; z] of a solution's final iterate by workspace G row, lower and
        upper bound side, NaN where its call had none, as the start of a
        call kept them before they were stacked."""
        _, z, cols, g_rows = sol._duals[:4]
        k, nf = g_rows.size, cols.size
        sz = np.stack([sol._slacks, z])
        rows = np.full((2, sol._ws.h.shape[0]), np.nan)
        lower, upper = np.full((2, 2, sol.x.size), np.nan)
        rows[:, g_rows] = sz[:, :k]
        lower[:, cols], upper[:, cols] = sz[:, k : k + nf], sz[:, k + nf :]
        return rows, lower, upper

    @classmethod
    def restricted_by_rule(cls, sol, red) -> tuple[np.ndarray, np.ndarray]:
        """A call's initial [s; z] by the rule of the stored rows: restrict
        the start to the call's G rows and free columns, raise it to
        WARM_FLOOR, and take 1.0, the cold multiplier, where the start has
        NaN. Also returns where it has NaN."""
        rows, lower, upper = cls.stored_by_row(sol)
        warm = np.concatenate([rows[:, red.g_rows], lower[:, red.cols], upper[:, red.cols]], axis=1)
        lacked = np.isnan(warm)
        return np.where(lacked, 1.0, np.maximum(warm, qp_module.WARM_FLOOR)), lacked

    def test_stacked_restriction_matches_the_row_rule(self, monkeypatch):
        """The stacked warm start, restricted with one take, gives every
        call the initial [s; z] that restricting the start's rows and bound
        sides one by one gives: from complete starts, from a preset root
        whose presolve dropped rows, and from starts of calls with fixings,
        which lack entries that the calls restricted here keep and start at
        1.0. The interior point is run for no iteration, so it returns the
        point it starts from."""
        rng = np.random.default_rng(41)
        cases = []
        prob = preset_chunk("quadruped_tilted_terrain")
        ws = BoxQp.from_miqp(prob)
        root = ws.solve()
        assert root._duals[3].size < ws.h.shape[0]  # the root's presolve dropped rows
        bins = prob.binary_indices[np.argsort(np.abs(root.x[prob.binary_indices] - 0.5), kind="stable")][:3]
        child = ws.solve({int(bins[0]): 1.0})
        cases += [(ws, root, {int(j): v}) for j in bins for v in (0.0, 1.0)]
        cases += [(ws, child, fixings) for fixings in (None, {int(bins[1]): 0.0}, {int(bins[2]): 1.0})]
        for _ in range(10):
            prob = criterion_1_problem(rng)
            ws = BoxQp.from_miqp(prob)
            bins = prob.binary_indices.tolist()
            root, fixed = ws.solve(), ws.solve({bins[0]: 1.0})
            cases += [(ws, root, {j: 0.0}) for j in bins]
            if fixed.status == "optimal":
                cases += [(ws, fixed, None)] + [(ws, fixed, {j: 1.0}) for j in bins[1:]]
        lacking = 0
        monkeypatch.setattr(qp_module, "MAX_ITER", 0)
        for ws, start, fixings in cases:
            assert start.status in ("optimal", "max-iterations")
            red = ws._presolve(fixings)
            if red is None or not red.cols.size:
                continue
            _, _, s, z, iterations, status, _ = qp_module._interior_point(red, math.inf, start._start)
            assert (iterations, status) == (0, "max-iterations")
            expected, lacked = self.restricted_by_rule(start, red)
            assert np.stack([s, z]).tobytes() == expected.tobytes()
            lacking += lacked.any()
        assert lacking >= 10

    def test_start_must_be_an_iterate_of_this_workspace(self):
        prob = with_flat_column(criterion_1_problem(np.random.default_rng(7)))  # a cutoff ends the call below
        ws, other = BoxQp.from_miqp(prob), BoxQp.from_miqp(prob)
        root = ws.solve()
        with pytest.raises(ContractViolation, match="warm start"):
            other.solve(start=root)
        no_iterate = ws.solve(cutoff=root.objective - 0.1)
        assert no_iterate.status == "cutoff"
        with pytest.raises(ContractViolation, match="warm start"):
            ws.solve(start=no_iterate)


def active_set_tries(monkeypatch, fail=False, repairs=True) -> list:
    """Record each try of the active-set termination step as (the reduced
    problem, the kept rows of its KKT system, the point or None if the
    system is singular, its chain): the tries made at one convergence test,
    a guess and its repairs, share their chain number. With ``fail``, every
    try finds its system singular; without ``repairs``, every try but the
    first of its chain does, so each test tries its own guess alone."""
    tries, call, real = [], [None, 0], qp_module._active_set_point
    real_factor = qp_module._LuNewton.factor

    def interior_point(red, *args, real_ip=qp_module._interior_point):
        call[0], call[1] = red, call[1] + 1
        return real_ip(red, *args)

    def factor(system, w):
        call[1] += 1  # an iteration: the next test's tries are a new chain
        return real_factor(system, w)

    def point(kkt, rhs, keep):
        repair = bool(tries) and tries[-1][3] == call[1]
        out = None if fail or (repair and not repairs) else real(kkt, rhs, keep)
        tries.append((call[0], keep.copy(), None if out is None else out.copy(), call[1]))
        return out

    monkeypatch.setattr(qp_module, "_interior_point", interior_point)
    monkeypatch.setattr(qp_module._LuNewton, "factor", factor)
    monkeypatch.setattr(qp_module, "_active_set_point", point)
    return tries


def chains(tries) -> list:
    """The recorded tries (``active_set_tries``) grouped by chain, in order."""
    return [list(group) for _, group in itertools.groupby(tries, key=lambda t: t[3])]


def repaired(red, keep, point) -> np.ndarray:
    """The kept rows of the try that repairs a try's point, built with
    numpy: its guessed rows whose multiplier is at least 0 and the other
    G_all rows whose slack is below 0. They are the try's own when the
    point has z >= 0 and s >= 0."""
    nf, me = red.c.size, red.b.size
    g_all, h_all = stacked_g(red)
    active = keep[nf : keep.size - me]
    z = np.zeros(active.size)
    z[active] = point[nf : point.size - me]
    s = h_all - g_all @ point[:nf]
    s[active] = 0.0
    out = keep.copy()
    out[nf : keep.size - me] = (active & (z >= 0.0)) | (s < 0.0)
    return out


def overfull(red, keep) -> bool:
    """Whether the kept rows of a KKT system, its guessed G_all rows and
    its equality rows, outnumber the call's free columns: a guess the
    step does not solve, since its system is singular by its shape."""
    nf = red.c.size
    return int(keep[nf:].sum()) > nf


def stacked_g(red) -> tuple[np.ndarray, np.ndarray]:
    """A dense call's G_all = [G; -I; I] and h_all = [h; -lo; hi], built with numpy."""
    nf = red.c.size
    return np.vstack([red.g, -np.eye(nf), np.eye(nf)]), np.concatenate([red.h, -red.lo, red.hi])


class TestActiveSetTermination:
    """The active-set termination step (``_interior_point``'s ``polish``,
    ``_active_set_point``). A call on the LU path tries it whenever
    its guess s < z is one the call has not tried, repairs a rejected guess
    at once (``TestActiveSetRepair``), and ends "optimal" and polished at
    the point that solves a guess's KKT system if that point passes the
    loop's own convergence test; a rejected chain of tries leaves the
    iterations as they were."""

    @staticmethod
    def cases(rng, count):
        """(workspace, fixings, start, cutoff) of criterion 1's problems: the
        root and each child of each binary, cold and warm-started from the
        root, without a cutoff and with one a little above the root's
        objective, which ends many children at the cutoff."""
        out = []
        for _ in range(count):
            prob = criterion_1_problem(rng)
            ws = BoxQp.from_miqp(prob)
            root = ws.solve()
            children = [{int(i): v} for i in prob.binary_indices for v in (0.0, 1.0)]
            near = root.objective + 0.01 * (1.0 + abs(root.objective))
            out += [(ws, {}, None, math.inf)] + [
                (ws, fx, start, cutoff) for fx in children for start in (None, root) for cutoff in (math.inf, near)
            ]
        return out

    @staticmethod
    def fault(red, keep, point) -> str | None:
        """Why a try's point fails the step's sign tests: "singular" (no
        point), "negative multiplier" or "missed row" (a slack off the guess
        below 0); None if it passes them."""
        if point is None:
            return "singular"
        nf, me = red.c.size, red.b.size
        g_all, h_all = stacked_g(red)
        if point[nf : point.size - me].min(initial=0.0) < 0.0:
            return "negative multiplier"
        off = ~keep[nf : keep.size - me]
        return "missed row" if (h_all - g_all @ point[:nf])[off].min(initial=0.0) < 0.0 else None

    def test_a_rejected_try_leaves_the_iterations_as_they_were(self, monkeypatch):
        """A try whose point misses an active row (a slack off the guess
        below 0) or has a negative multiplier is rejected, and the next try
        of its chain is its repair. Each call's chains start at the tries
        that the same call whose every try is singular makes, less the
        guesses an earlier chain of the call tried, up to the one it ends
        at, and one that ends unpolished returns what that call returns,
        bit for bit."""
        cases = self.cases(np.random.default_rng(44), 15)
        runs = []
        for fail in (False, True):
            with monkeypatch.context() as m:
                tries = active_set_tries(m, fail)
                runs.append([])
                for ws, fixings, start, cutoff in cases:
                    tries.clear()
                    runs[-1].append((ws.solve(fixings, cutoff, start), list(tries)))
        reasons, unpolished = collections.Counter(), 0
        for (sol, seen), (ref, failed) in zip(*runs):
            tried, made = set(), chains(seen)
            for key in (keep.tobytes() for _, keep, _, _ in failed):
                if key in tried:
                    continue
                assert made, "a test tried a guess beyond the call's end"
                chain = made.pop(0)
                assert chain[0][1].tobytes() == key
                for (red, keep, point, _), (_, next_keep, _, _) in itertools.pairwise(chain):
                    assert repaired(red, keep, point).tobytes() == next_keep.tobytes()
                tried.update(keep.tobytes() for _, keep, _, _ in chain)
                if sol.polished and not made:  # it ended at the chain's last try
                    assert self.fault(*chain[-1][:3]) is None
                    seen = seen[:-1]
                    break
            assert not made
            if not sol.polished:
                assert same_solution(sol, ref)
                unpolished += any(point is not None for _, _, point, _ in seen)
            reasons.update(self.fault(*t[:3]) for t in seen)
        assert reasons["negative multiplier"] >= 15 and reasons["missed row"] >= 40
        assert unpolished >= 10

    def test_a_singular_system_falls_back_to_the_iterations(self, monkeypatch):
        """With a flat column, every try's KKT system is singular, so no
        chain goes past its first try and no call polishes, cold, warm or
        with a cutoff: a call ends at its interior point's own test, at the
        optimum of the problem without that column."""
        rng = np.random.default_rng(45)
        tries, seen = active_set_tries(monkeypatch), []
        calls = optimal = 0
        for _ in range(10):
            prob = criterion_1_problem(rng)
            ws, flat = BoxQp.from_miqp(prob), BoxQp.from_miqp(with_flat_column(prob))
            root = flat.solve()
            near = root.objective + 0.01 * (1.0 + abs(root.objective))
            for fixings in [{}] + [{int(i): v} for i in prob.binary_indices for v in (0.0, 1.0)]:
                ref = ws.solve(fixings)
                tries.clear()
                for start, cutoff in itertools.product((None, root), (math.inf, near)):
                    sol = flat.solve(fixings, cutoff, start)
                    calls += 1
                    assert not sol.polished
                    if cutoff == math.inf:
                        assert sol.status == ref.status
                        if sol.status == "optimal":
                            assert sol.x[-1] == 0.0
                            assert abs(sol.objective - ref.objective) <= 1e-8 * (1.0 + abs(ref.objective))
                            optimal += 1
                seen += tries
        assert len(seen) >= calls >= 100 and all(point is None for _, _, point, _ in seen)
        assert all(len(chain) == 1 for chain in chains(seen)) and optimal >= 100

    def test_csr_calls_polish_only_on_the_lu_path(self, monkeypatch):
        """Calls on ``_CholeskyNewton``, as every preset call, never try the
        step; CSR calls with an equality row without a private pivot run on
        the LU path, and do."""
        tries = active_set_tries(monkeypatch)
        prob = preset_chunk("quadruped_tilted_terrain")
        ws = BoxQp.from_miqp(prob)
        root = ws.solve()
        bins = prob.binary_indices[:6].tolist()
        sols = [root] + [ws.solve({i: v}, start=root) for i in bins for v in (0.0, 1.0)]
        assert ws.sparse and tries == [] and not any(sol.polished for sol in sols)
        rng = np.random.default_rng(11)
        ws, _, _ = random_workspace(rng, 120, 200, 4, shared=4)
        sols = [ws.solve(fixings) for fixings in random_fixings(rng, 120)]
        assert ws.sparse and all(red.newton is None for red, *_ in tries)
        assert len(tries) >= 6 and sum(sol.polished for sol in sols) >= 3

    def test_lapack_reads_the_plain_active_set_system(self, monkeypatch):
        """The matrix each try hands ``_gesv`` is [[P, G_act', A'], [G_act,
        0, 0], [A, 0, 0]], built with numpy, byte for byte, with and without
        equality rows."""
        matrices, inside = [], [False]
        tries = active_set_tries(monkeypatch)
        real_point, real_gesv = qp_module._active_set_point, qp_module._gesv

        def point(*args):
            inside[0] = True
            try:
                return real_point(*args)
            finally:
                inside[0] = False

        def gesv(a, *args):
            if inside[0]:
                matrices.append(a.copy())
            return real_gesv(a, *args)

        monkeypatch.setattr(qp_module, "_active_set_point", point)
        monkeypatch.setattr(qp_module, "_gesv", gesv)
        for ws, fixings, start, cutoff in self.cases(np.random.default_rng(46), 3):
            ws.solve(fixings, cutoff, start)
        rng = np.random.default_rng(14)
        ws, _, _ = random_workspace(rng, 14, 12, 3)
        for fixings in random_fixings(rng, 14, 10):
            ws.solve(fixings)
        assert len(matrices) == len(tries) and sum(red.b.size > 0 for red, *_ in tries) >= 5
        for a, (red, keep, *_) in zip(matrices, tries):
            nf, me = red.c.size, red.b.size
            g_act = stacked_g(red)[0][keep[nf : keep.size - me]]
            zero = lambda rows, cols: np.zeros((rows, cols))  # noqa: E731
            na = g_act.shape[0]
            ref = np.block([[red.p, g_act.T, red.a.T], [g_act, zero(na, na), zero(na, me)],
                            [red.a, zero(me, na), zero(me, me)]])
            assert a.tobytes() == ref.tobytes()


def numpy_wrapper_entries(run) -> collections.Counter:
    """What ``run()`` does through numpy's slow entry points, by name: its
    ``ufunc.reduce`` calls (a min, max, any or all reduction) and its calls
    of every Python function under ``numpy/``, such as the dispatchers of
    ``np.dot`` and ``np.concatenate``, ``np.count_nonzero`` and
    fromnumeric's wrappers."""
    seen = collections.Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            if arg.__name__ == "reduce" and isinstance(getattr(arg, "__self__", None), np.ufunc):
                seen["ufunc.reduce"] += 1
        elif event == "call" and "numpy" in Path(frame.f_code.co_filename).parts:
            seen[f"{Path(frame.f_code.co_filename).name}:{frame.f_code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


class TestNumpyEntryPoints:
    """A warm dense solve without a cutoff (``BoxQp._presolve``,
    ``_interior_point`` and the active-set step with its repairs) takes
    every numpy operation through a C entry point (see ``qp``'s docstring): it
    makes no ``ufunc.reduce`` call and calls no Python function of numpy."""

    def test_warm_dense_solves_avoid_the_slow_entry_points(self, monkeypatch):
        rng = np.random.default_rng(43)
        cases = []
        for _ in range(24):
            prob = criterion_1_problem(rng)
            # most calls end at an active-set solve, many after a repair; with
            # a flat column, every call runs its interior point to its own end
            for flat in (False, True):
                ws = BoxQp.from_miqp(with_flat_column(prob) if flat else prob)
                assert not ws.sparse
                bins = prob.binary_indices.tolist()
                root, fixed = ws.solve(), ws.solve({bins[0]: 1.0})
                cases += [(ws, root, {j: v}, flat) for j in bins for v in (0.0, 1.0)]
                if fixed.status == "optimal":  # a start that lacks the entries of its fixed column
                    cases += [(ws, fixed, {j: 1.0}, flat) for j in bins[1:]]
        tries, sols = active_set_tries(monkeypatch), []
        seen = numpy_wrapper_entries(lambda: sols.extend(ws.solve(fx, start=start) for ws, start, fx, _ in cases))
        assert seen == collections.Counter()
        assert sum(sol.iterations for sol, case in zip(sols, cases) if case[3]) > 500
        assert sum(sol.polished for sol in sols) > 100
        assert sum(len(chain) - 1 for chain in chains(tries)) > 100  # repairs
        assert sum(start._duals[2].size < start.x.size for _, start, _, _ in cases) > 0  # starts with 1.0 entries


class TestActiveSetRepair:
    """The repair chain of ``_interior_point``'s ``polish``. A rejected
    guess names the next: the guessed rows whose multiplier is at least 0
    and the other rows whose slack is below 0 (Hintermueller, Ito and
    Kunisch), tried at once. A chain ends at a point that passes
    the convergence test, at a guess the call has tried, at a singular
    system, or, unsolved, at a guess with more rows than free columns."""

    def test_polished_points_solve_their_kkt_systems(self, monkeypatch):
        """The contract's criterion-1 calls, cold and from the root: a
        polished point meets its rows and stationarity to 1e-9, as the
        solution of its guess's KKT system does, and many calls end at a
        repaired guess, cold and warm."""
        tries, ended = active_set_tries(monkeypatch), collections.Counter()
        for prob, fixings in CONTRACT_FAMILIES["criterion-1"]():
            ws = BoxQp.from_miqp(prob)
            root = ws.solve()
            for f, start in itertools.product(fixings, (None, root)):
                tries.clear()
                sol = ws.solve(f, start=start)
                if sol.polished:
                    assert sol.status == "optimal"
                    assert sol.prim_res <= 1e-9 and sol.dual_res <= 1e-9 * (1.0 + np.abs(sol.y).max())
                    ended["polished"] += 1
                    ended["cold" if start is None else "warm"] += len(chains(tries)[-1]) > 1
        assert ended["polished"] >= 100 and ended["cold"] >= 50 and ended["warm"] >= 50

    def test_a_guess_wrong_both_ways_is_repaired_at_the_first_test(self, monkeypatch):
        """min 0.5 x'Px - 1.5 x_0 - 2 x_1 over [-1, 1]^2, P = [[1, 0.9],
        [0.9, 1]]. With x_1 fixed at 0 the optimum puts x_0 on its upper
        bound, and a call started there guesses that bound alone. Its point
        (1, 1.1) has a negative multiplier on it and misses x_1's upper
        bound; the repair guesses x_1's upper bound alone, whose point
        (0.6, 1) is the optimum. The call ends at iteration 0 after two KKT
        solves."""
        ws = BoxQp.from_miqp(make_problem([[0.5, 0.45], [0.45, 0.5]], [-1.5, -2.0], lb=[-1.0, -1.0], ub=[1.0, 1.0]))
        start = ws.solve({1: 0.0})
        assert start.status == "optimal" and start.x.tolist() == [1.0, 0.0]
        tries = active_set_tries(monkeypatch)
        sol = ws.solve(start=start)
        assert (sol.status, sol.polished, sol.iterations, len(tries)) == ("optimal", True, 0, 2)
        (red, keep, point, _), (_, second, _, _) = tries
        g_all, h_all = stacked_g(red)
        rows = lambda mask: mask[2:].tolist()  # noqa: E731  [lower x_0, lower x_1, upper x_0, upper x_1]
        assert rows(keep) == [False, False, True, False] and point[:2] == pytest.approx([1.0, 1.1])
        assert point[2] < 0.0 and (h_all - g_all @ point[:2])[3] < 0.0  # wrong both ways
        assert rows(second) == [False, False, False, True]
        assert sol.x == pytest.approx([0.6, 1.0], abs=1e-12)
        assert sol.objective == pytest.approx(-1.68, abs=1e-12)

    def test_a_chain_that_revisits_a_guess_stops(self, monkeypatch):
        """A chain whose repair is a guess the call has tried ends there, and
        the call's iterations go on: one that then ends unpolished returns
        what it returns with repairs off (each test tries its own guess
        alone), bit for bit. A chain whose repair has more rows than free
        columns (``overfull``) ends there too, untried."""
        cases = TestActiveSetTermination.cases(np.random.default_rng(48), 120)
        runs = []
        for repairs in (True, False):
            with monkeypatch.context() as m:
                tries = active_set_tries(m, repairs=repairs)
                runs.append([])
                for ws, fixings, start, cutoff in cases:
                    tries.clear()
                    runs[-1].append((ws.solve(fixings, cutoff, start), list(tries)))
        revisits = unpolished = overfull_ends = 0
        for (sol, seen), (ref, _) in zip(*runs):
            tried, revisited = set(), False
            for chain in chains(seen):
                tried.update(keep.tobytes() for _, keep, _, _ in chain)
                red, keep, point, _ = chain[-1]
                if point is None or (after := repaired(red, keep, point)).tobytes() == keep.tobytes():
                    continue
                if overfull(red, after):  # rejected on its signs, its repair not solved
                    overfull_ends += 1
                    continue
                assert after.tobytes() in tried  # rejected on its signs, its repair tried before
                revisited = True
            revisits += revisited
            if revisited and not sol.polished:
                assert same_solution(sol, ref)
                unpolished += 1
        assert revisits >= 30 and unpolished >= 5 and overfull_ends >= 1000

    def test_no_chain_solves_an_overfull_guess(self, monkeypatch):
        """No try hands LAPACK a guess whose rows outnumber the free
        columns: such a system is singular by its shape, and rounding hides
        its zero pivot, so LAPACK would solve it to a point with huge
        entries. Criterion 1's calls, cold, warm and with a cutoff, and the
        first 40 problems of the tree batch of seed 1 hand it none, and
        many of their chains end at such a guess instead."""
        tries = active_set_tries(monkeypatch)
        for ws, fixings, start, cutoff in TestActiveSetTermination.cases(np.random.default_rng(49), 15):
            ws.solve(fixings, cutoff, start)
        workload = tree_workload(1)
        workload.run(bnb, workload.setup(bnb)[:40])
        assert len(tries) >= 1000
        assert not any(overfull(red, keep) for red, keep, _, _ in tries)
        assert max(np.abs(point).max() for _, _, point, _ in tries if point is not None) <= 1e20
        ends = sum(
            point is not None and overfull(red, repaired(red, keep, point))
            for red, keep, point, _ in (chain[-1] for chain in chains(tries))
        )
        assert ends >= 100

    def test_a_cold_guess_past_the_columns_ends_its_chain_unsolved(self, monkeypatch):
        """min 0.5 |x|^2 - 3 x_0 - 3 x_1 over [-5, 5]^2 with x_0 + 0.5 x_1
        <= 1, 0.5 x_0 + x_1 <= 1 and x_0 + x_1 <= 1.5. A cold call's first
        guess is empty, and its point, the unconstrained minimizer (3, 3),
        violates all three rows. The repair guesses the three rows against
        2 columns, and the chain ends there, with no LAPACK call. The call
        still ends "optimal" at (2/3, 2/3)."""
        prob = make_problem(0.5 * np.eye(2), [-3.0, -3.0], lb=[-5.0, -5.0], ub=[5.0, 5.0],
                            a_in=[[1.0, 0.5], [0.5, 1.0], [1.0, 1.0]], b_in=[1.0, 1.0, 1.5])
        ws, solved = BoxQp.from_miqp(prob), []
        tries, real_gesv = active_set_tries(monkeypatch), qp_module._gesv
        monkeypatch.setattr(qp_module, "_gesv", lambda a, *args: solved.append(a.shape[0]) or real_gesv(a, *args))
        sol = ws.solve()
        red, keep, point, _ = chains(tries)[0][0]
        assert not keep[2:].any() and point[:2] == pytest.approx([3.0, 3.0], abs=1e-12)
        after = repaired(red, keep, point)
        assert after[2:5].all() and not after[5:].any() and overfull(red, after)
        assert len(chains(tries)[0]) == 1 and len(solved) == len(tries)
        assert not any(overfull(red, keep) for red, keep, _, _ in tries)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(relaxation_optimum(prob, {}), rel=0.0, abs=1e-7)
        assert sol.x == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-7)
