"""Engine-free references and the problem builders the test modules share.

No reference here calls ``BoxQp``: HiGHS (``linprog``, ``milp``) decides
feasibility, and SLSQP or projected gradient finds an optimum. Each builder
draws its problems from the generator it is given, in a fixed order, so a
test's problems depend on its seed alone. No test module imports another:
what two of them share lives here, ``reference_validate_plan`` (a plan
checked step by step) included.
"""

import dataclasses
import itertools
import math
import types

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp, minimize

from stepplan.formulation import MiqpProblem
from stepplan.model import coc, config_of, derive_leg_goals, leg_of, nominal_position
from stepplan.planner import PlanIssue, PlanValidationReport
from stepplan.pwl import chord_error_bound


def _csr(m, n: int) -> sp.csr_matrix:
    if m is None:
        return sp.csr_matrix((0, n))
    return sp.csr_matrix(m if sp.issparse(m) else np.atleast_2d(np.asarray(m, float)))


def make_problem(Q, c, const=0.0, lb=None, ub=None, bins=(), a_in=None, b_in=None,
                 a_eq=None, b_eq=None):
    """A MIQP of dense or sparse data; bounds default to [-50, 50]."""
    n = len(c)
    m_in = len(b_in) if b_in is not None else 0
    m_eq = len(b_eq) if b_eq is not None else 0
    return MiqpProblem(
        q_matrix=_csr(Q, n),
        c_vector=np.asarray(c, float),
        objective_constant=const,
        a_ineq=_csr(a_in, n),
        b_ineq=np.asarray(b_in, float) if b_in is not None else np.zeros(0),
        a_eq=_csr(a_eq, n),
        b_eq=np.asarray(b_eq, float) if b_eq is not None else np.zeros(0),
        lower=np.full(n, -50.0) if lb is None else np.asarray(lb, float),
        upper=np.full(n, 50.0) if ub is None else np.asarray(ub, float),
        binary_indices=np.asarray(bins, int),
        layout=None,
        ineq_families=("r",) * m_in,
        ineq_labels=tuple(f"r{i}" for i in range(m_in)),
        eq_families=("e",) * m_eq,
        eq_labels=tuple(f"e{i}" for i in range(m_eq)),
    )


def with_flat_column(prob: MiqpProblem) -> MiqpProblem:
    """``prob`` with one more continuous variable, in [-1, 1], that enters
    neither the objective nor any row, so that P is only semidefinite.

    The variable stays at 0, and its two bound rows keep the same slack and
    the same multiplier, so an active-set guess takes both or neither. Every
    KKT system the active-set termination step forms is then singular (with
    neither row the variable's column is zero, with both the two rows are
    opposite), and every call runs its interior point to its own end."""
    grow = lambda m: sp.hstack([m, sp.csr_matrix((m.shape[0], 1))], format="csr")  # noqa: E731
    return dataclasses.replace(
        prob,
        q_matrix=sp.block_diag([prob.q_matrix, sp.csr_matrix((1, 1))], format="csr"),
        c_vector=np.append(prob.c_vector, 0.0),
        a_ineq=grow(prob.a_ineq),
        a_eq=grow(prob.a_eq),
        lower=np.append(prob.lower, -1.0),
        upper=np.append(prob.upper, 1.0),
    )


def random_instance(rng, max_c=6, max_b=6, max_rows=6, n_eq=0):
    """A random MIQP with slack rows around a random integral point x0, and
    ``n_eq`` equality rows through x0, drawn last."""
    n_c = int(rng.integers(2, max_c + 1))
    n_b = int(rng.integers(1, max_b + 1))
    n = n_c + n_b
    G = rng.normal(size=(n, n)) * 0.6
    Q = G.T @ G / n + 0.02 * np.eye(n)
    c = rng.normal(size=n)
    lb = np.concatenate([rng.uniform(-3, -0.5, n_c), np.zeros(n_b)])
    ub = np.concatenate([rng.uniform(0.5, 3, n_c), np.ones(n_b)])
    x0 = np.concatenate([rng.uniform(lb[:n_c], ub[:n_c]), rng.integers(0, 2, n_b).astype(float)])
    m = int(rng.integers(2, max_rows + 1))
    A = rng.normal(size=(m, n))
    b = A @ x0 + rng.uniform(0.05, 1.0, m)
    a_eq = rng.normal(size=(n_eq, n)) if n_eq else None
    return make_problem(Q, c, 0.3, lb, ub, range(n_c, n), a_in=A, b_in=b,
                        a_eq=a_eq, b_eq=None if a_eq is None else a_eq @ x0)


def random_miqp(rng) -> MiqpProblem:
    """Criterion 1's problems: 2-10 continuous variables, 1-8 binaries and 2-8 rows."""
    return random_instance(rng, 10, 8, 8)


def random_sparse(rng, n, m, n_eq=0, shared=0, flat=False) -> MiqpProblem:
    """A problem of ``n`` variables in [-1, 1] and ``m`` sparse rows with
    slack right-hand sides, with no binaries, held in CSR form once ``n m``
    is large. ``n_eq`` equality rows pass through a point inside the box;
    the first ``shared`` of them have entries on the same 12 columns alone,
    so none of them has a column to itself. With ``flat``, the problem has
    the extra column of ``with_flat_column``.

    Fixing columns leaves some rows empty or with one entry, which the
    presolve drops."""
    g = sp.random(m, n, density=4.0 / n, random_state=np.random.RandomState(1), format="csr")
    g.data = rng.normal(size=g.nnz)
    p = sp.random(n, n, density=3.0 / n, random_state=np.random.RandomState(2), format="csr")
    p = p @ p.T + sp.identity(n)
    h = np.asarray(abs(g).sum(axis=1)).ravel() + 1.0
    q = rng.normal(size=n)
    a, b = None, None
    if n_eq:
        a = sp.random(n_eq, n, density=0.3, random_state=np.random.RandomState(3), format="lil")
        if shared:
            a[:shared] = 0.0
            a[:shared, rng.choice(n, size=12, replace=False)] = rng.normal(size=(shared, 12))
        a = a.tocsr()
        b = a @ rng.uniform(-0.5, 0.5, size=n)
    prob = make_problem(0.5 * p, q, lb=np.full(n, -1.0), ub=np.full(n, 1.0), a_in=g, b_in=h, a_eq=a, b_eq=b)
    return with_flat_column(prob) if flat else prob


def random_fixings(rng, n, count=5) -> list:
    """No fixing, then ``count`` sets that each pin a quarter of the ``n`` columns inside [-1, 1]."""
    return [{}] + [
        {int(j): float(rng.uniform(-1, 1)) for j in rng.choice(n, size=n // 4, replace=False)}
        for _ in range(count)
    ]


def _pinned(lower, upper, fixings) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = lower.copy(), upper.copy()
    for i, value in fixings.items():
        lo[i] = hi[i] = value
    return lo, hi


def projected_gradient_optimum(prob, fixings) -> float:
    """The optimum of a problem without rows, with ``fixings`` pinned, by
    projected gradient steps of 1 / L until a step moves no entry by 1e-12."""
    lo, hi = _pinned(prob.lower, prob.upper, fixings)
    q = prob.q_matrix.toarray()
    P = q + q.T
    L = float(np.linalg.eigvalsh(P).max())
    x = np.clip(np.zeros(prob.n_vars), lo, hi)
    for _ in range(200_000):
        x_new = np.clip(x - (P @ x + prob.c_vector) / L, lo, hi)
        if np.max(np.abs(x_new - x)) < 1e-12:
            return prob.objective_value(x_new)
        x = x_new
    raise AssertionError("projected gradient did not converge")


def slsqp_reference(prob, fixings, start=None):
    """Relaxation optimum with ``fixings`` pinned, by scipy's SLSQP with
    analytic jacobians, from ``start`` (a full-length point) or from 0."""
    free = [i for i in range(prob.n_vars) if i not in fixings]
    a, q = prob.a_ineq.toarray(), prob.q_matrix.toarray()

    def full(v):
        x = np.zeros(prob.n_vars)
        x[free] = v
        for i, val in fixings.items():
            x[i] = val
        return x

    constraints = [{"type": "ineq", "fun": lambda v: prob.b_ineq - a @ full(v), "jac": lambda v: -a[:, free]}]
    if prob.n_eq:
        a_eq = prob.a_eq.toarray()
        constraints.append({"type": "eq", "fun": lambda v: prob.b_eq - a_eq @ full(v), "jac": lambda v: -a_eq[:, free]})
    res = minimize(
        lambda v: prob.objective_value(full(v)),
        np.zeros(len(free)) if start is None else start[free],
        jac=lambda v: ((q + q.T) @ full(v) + prob.c_vector)[free],
        method="SLSQP",
        bounds=list(zip(prob.lower[free], prob.upper[free])),
        constraints=constraints,
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert res.success
    return res.fun


def relaxation_optimum(prob, fixings) -> float:
    """The optimum of the relaxation with ``fixings`` pinned, with no BoxQp:
    HiGHS decides whether the fixings leave it feasible, and SLSQP solves
    it from the LP's point; inf if they do not. A problem without rows is
    solved by projected gradient."""
    if not prob.n_ineq + prob.n_eq:
        return projected_gradient_optimum(prob, fixings)
    lo, hi = _pinned(prob.lower, prob.upper, fixings)
    lp = linprog(
        np.zeros(prob.n_vars), A_ub=prob.a_ineq.toarray(), b_ub=prob.b_ineq,
        A_eq=prob.a_eq.toarray() if prob.n_eq else None, b_eq=prob.b_eq if prob.n_eq else None,
        bounds=list(zip(lo, hi)), method="highs",
    )
    assert lp.status in (0, 2)  # solved, or infeasible
    return slsqp_reference(prob, fixings, lp.x) if lp.status == 0 else math.inf


def enumerated_optimum(prob) -> float:
    """The MIQP's optimum by enumeration, with no BoxQp: the least
    ``relaxation_optimum`` over the binary patterns; inf if no pattern is
    feasible."""
    bins = prob.binary_indices.tolist()
    return min(
        relaxation_optimum(prob, dict(zip(bins, pattern)))
        for pattern in itertools.product((0.0, 1.0), repeat=len(bins))
    )


def highs_feasible(red) -> bool:
    """Exact feasibility of reduced constraints (G x <= h, A x = b, lo <=
    x <= hi, with G and A dense or as CSR arrays), decided by a HiGHS
    feasibility LP."""
    # one stacked constraint: milp stacks a list of them as sparse matrices
    if isinstance(red.g, np.ndarray):
        matrix = np.vstack([red.g, red.a])
    else:
        matrix = sp.vstack([sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape) for m in (red.g, red.a)])
    rows = LinearConstraint(
        matrix,
        np.concatenate([np.full(red.h.size, -np.inf), red.b]),
        np.concatenate([red.h, red.b]),
    )
    return milp(np.zeros(red.c.size), constraints=rows, bounds=Bounds(red.lo, red.hi)).status != 2


def workspace_feasible(ws, fixings) -> bool:
    """``highs_feasible`` on a workspace's own rows and bounds, with the
    fixings pinned."""
    lo, hi = _pinned(ws.lo, ws.hi, fixings)
    return highs_feasible(types.SimpleNamespace(g=ws.g, h=ws.h, a=ws.a, b=ws.b, lo=lo, hi=hi, c=ws.q))


def _box_qp(rng) -> MiqpProblem:
    """A strictly convex QP of 2-6 variables over a box, with no rows and no binaries."""
    d = int(rng.integers(2, 7))
    G = rng.normal(size=(d, d))
    Q, c = G.T @ G + 0.2 * np.eye(d), rng.normal(size=d)
    return make_problem(Q, c, lb=rng.uniform(-2, -0.2, d), ub=rng.uniform(0.2, 2, d))


def _small(draw, seed: int, count: int) -> list:
    """The first ``count`` problems of ``draw`` with at most 5 binaries,
    each with no fixing, each child of each binary and, with two binaries
    or more, every binary pattern; a problem without binaries pins its
    first column at 0 instead."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < count:
        prob = draw(rng)
        bins = prob.binary_indices.tolist()
        if len(bins) > 5:
            continue
        children = [{i: v} for i in bins for v in (0.0, 1.0)] or [{0: 0.0}]
        patterns = [dict(zip(bins, p)) for p in itertools.product((0.0, 1.0), repeat=len(bins))]
        out.append((prob, [{}] + children + (patterns if len(bins) > 1 else [])))
    return out


def _sparse(seed: int, n_eq: int, shared: int = 0) -> list:
    """One 120 x 200 ``random_sparse`` problem with no fixing and 3 random fixing sets."""
    rng = np.random.default_rng(seed)
    prob = random_sparse(rng, 120, 200, n_eq, shared)
    return [(prob, random_fixings(rng, 120, 3))]


#: the engine contract's problem families, one or two per path the engine
#: takes, each as [(problem, fixing sets)]: dense without equality rows,
#: dense with them, CSR with a Cholesky Newton system, without and with
#: eliminated equality rows, and CSR with equality rows that share their
#: columns, which fall back to the dense LU path
CONTRACT_FAMILIES = {
    "box": lambda: _small(_box_qp, 2023, 12),
    "criterion-1": lambda: _small(random_miqp, 1, 10),
    "dense-eq": lambda: _small(lambda rng: random_instance(rng, 10, 8, 8, n_eq=2), 5, 6),
    "csr": lambda: _sparse(120, 0),
    "csr-eq": lambda: _sparse(124, 4),
    "lu-fallback": lambda: _sparse(9, 4, shared=2),
}


def reference_validate_plan(plan_obj, scenario) -> PlanValidationReport:
    """``validate_plan`` checked step by step: per step, the CoC window mean
    by ``np.mean`` of its feet, ``nominal_position`` twice, one
    ``SafeRegion.violation`` and one ``note`` per check, each folding its
    amount into the family's worst by ``np.maximum``."""
    robot = scenario.robot
    n = robot.n_legs
    issues = []
    worst = {f: 0.0 for f in ("geometric", "reachability", "dz", "region", "yaw-sharing", "trim")}

    def note(family, chunk, step, amount, allowed, detail):
        worst[family] = float(np.maximum(worst[family], amount))  # keeps a NaN
        if not amount <= allowed:  # a NaN amount is an issue too
            issues.append(PlanIssue(family, chunk, step, amount, allowed, detail))

    goals = derive_leg_goals(scenario.goal_position, scenario.goal_yaw, robot)
    regions = {r.name: r for r in scenario.regions}
    offset = 0
    for chunk in plan_obj.chunks:
        kept = plan_obj.steps[offset : offset + chunk.kept_count]
        offset += chunk.kept_count
        start = np.asarray(chunk.start_footholds, dtype=float)
        table_h = (chunk.theta_range[1] - chunk.theta_range[0]) / chunk.n_segments
        chord_err = chord_error_bound(table_h)
        start_coc = coc(start)

        def foot_at(k, kept=kept, start=start):
            if k >= 1:
                return kept[k - 1].xyz()
            return start[(k - 1) % n]

        def coc_at(k):
            """Mean xy of the feet in step k's CoC window: the n - 1 steps before it."""
            return np.mean([foot_at(j)[:2] for j in range(k - n + 1, k)], axis=0)

        if chunk.kept_count % n != 0:
            note("yaw-sharing", chunk.index, 0, float(chunk.kept_count % n), 0.0,
                 "steps not grouped in complete configurations")
            continue
        for i in range(1, chunk.kept_count + 1):
            step = kept[i - 1]
            leg = leg_of(i, n)
            cfg_first = kept[(config_of(i, n) - 1) * n]
            phi = robot.leg_offsets[leg - 1]
            slack = robot.l_leg * (abs(math.cos(phi)) + abs(math.sin(phi))) * chord_err

            note("yaw-sharing", chunk.index, i, abs(step.theta - cfg_first.theta), 1e-9,
                 "yaw differs within configuration")
            below = chunk.theta_range[0] - step.theta
            above = step.theta - chunk.theta_range[1]
            note("yaw-sharing", chunk.index, i, max(below, above, 0.0), 1e-9,
                 "yaw outside the chunk range")
            if step.leg != leg:
                note("yaw-sharing", chunk.index, i, 1.0, 0.0, "leg out of cyclic order")

            r_nom = nominal_position(coc_at(i), step.theta, leg, robot)
            dev = float(np.max(np.abs(step.xy() - r_nom)))
            note("geometric", chunk.index, i, dev, robot.l_bnd + slack + 1e-9,
                 f"leg {leg} outside reference box")

            prev = i - n
            if prev >= 1:
                prev_step = kept[prev - 1]
                anchor = nominal_position(coc_at(prev), prev_step.theta, leg, robot)
                prev_z = prev_step.z
            else:
                anchor = nominal_position(start_coc, chunk.start_yaw, leg, robot)
                prev_z = start[leg - 1][2]
            dev = float(np.max(np.abs(step.xy() - anchor)))
            note("reachability", chunk.index, i, dev, robot.d_lim + slack + 1e-9,
                 f"leg {leg} outside reachability box")
            note("dz", chunk.index, i, abs(step.z - prev_z), robot.dz_max + 1e-9,
                 f"leg {leg} height change")

            if step.region is None:
                note("region", chunk.index, i, math.inf, 0.0, "no region assigned")
            else:
                reg = regions.get(step.region)
                if reg is None:
                    note("region", chunk.index, i, math.inf, 0.0,
                         f"unknown region {step.region!r}")
                else:
                    note("region", chunk.index, i, max(reg.violation(step.xyz()), 0.0),
                         1e-6, f"outside region {step.region!r}")

            if step.trimmed:
                dev = float(np.max(np.abs(step.xyz() - goals[leg - 1])))
                note("trim", chunk.index, i, dev, 1e-6, f"trimmed leg {leg} off its goal")
    return PlanValidationReport(tuple(issues), worst)
