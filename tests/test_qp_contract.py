"""The relaxation engine's contract, checked against engine-free references.

Every call builds its workspace with ``BoxQp.from_miqp`` and solves with
``BoxQp.solve(fixings, cutoff, start)``, and reads only ``x``, ``objective``
and ``status``, so that another engine behind the same three arguments and
fields is held to the same tests. The suite is one matrix: each family of
``oracles.CONTRACT_FAMILIES`` (whose members reach every path the engine
takes) x a cold call or one started from the root's solution x no cutoff
or a cutoff just above the root's objective. The references are
``oracles.relaxation_optimum`` (HiGHS for feasibility, then SLSQP, or
projected gradient on a problem without rows); none of them calls ``BoxQp``.
"""

import math

import numpy as np
import pytest

from oracles import CONTRACT_FAMILIES, relaxation_optimum
from stepplan.qp import BoxQp

#: the references agree with every optimal call to this, absolutely; the
#: worst agreement on the families is about 3e-10
OPTIMUM_TOL = 1e-7
#: an optimal x meets each row, equality and bound to this, relative to
#: 1 + |rhs|; the worst excess on the families is about 3e-13
FEAS_TOL = 1e-9


def feasible(prob, fixings, x) -> bool:
    """Whether ``x`` meets the problem's rows and bounds and keeps every fixing exactly."""

    def holds(excess, rhs) -> bool:
        return bool(np.all(excess <= FEAS_TOL * (1.0 + np.abs(rhs))))

    return (all(x[i] == v for i, v in fixings.items())
            and holds(prob.a_ineq @ x - prob.b_ineq, prob.b_ineq)
            and holds(np.abs(prob.a_eq @ x - prob.b_eq), prob.b_eq)
            and holds(prob.lower - x, prob.lower) and holds(x - prob.upper, prob.upper))


def same(a, b) -> bool:
    """Whether two solutions agree bit for bit in status, objective and x."""
    return a.status == b.status and a.objective == b.objective and a.x.tobytes() == b.x.tobytes()


@pytest.fixture(scope="module", params=list(CONTRACT_FAMILIES))
def family(request):
    """Per problem of a family: two workspaces with their roots, the fixing
    sets and each set's reference optimum."""
    cases = []
    for prob, fixings in CONTRACT_FAMILIES[request.param]():
        workspaces = BoxQp.from_miqp(prob), BoxQp.from_miqp(prob)
        roots = tuple(ws.solve() for ws in workspaces)
        assert roots[0].status == "optimal" and same(*roots)
        cases.append((prob, workspaces, roots, fixings, [relaxation_optimum(prob, f) for f in fixings]))
    return cases


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("near", [False, True], ids=["no-cutoff", "cutoff"])
def test_call(family, warm, near):
    """Each call against the references; against the same calls, in reverse
    order on a second workspace of the same problem, bit for bit; a warm
    call against the cold one; a call given a cutoff against the same call
    without one."""
    for prob, (ws, twin), roots, fixings, optima in family:
        root = roots[0].objective
        cutoff = root + 0.01 * (1.0 + abs(root)) if near else math.inf
        start = roots[0] if warm else None
        sols = [ws.solve(f, cutoff, start) for f in fixings]
        again = [twin.solve(f, cutoff, roots[1] if warm else None) for f in fixings[::-1]][::-1]
        for f, optimum, sol, repeat in zip(fixings, optima, sols, again):
            assert same(sol, repeat)
            assert sol.status in (("optimal", "infeasible", "cutoff") if near else ("optimal", "infeasible"))
            if near and sol.status != "cutoff":
                assert same(sol, ws.solve(f, start=start))
            if warm and not near:
                cold = ws.solve(f)
                assert sol.status == cold.status
                if cold.status == "optimal":
                    # P is positive definite, so x is unique, but an
                    # objective within d of the optimum only puts x within
                    # about sqrt(d) of it
                    assert abs(sol.objective - cold.objective) <= 1e-8 * max(1.0, abs(cold.objective))
                    assert np.max(np.abs(sol.x - cold.x)) <= 1e-4
            if sol.status == "optimal":
                assert feasible(prob, f, sol.x)
                assert sol.objective == pytest.approx(optimum, rel=0.0, abs=OPTIMUM_TOL)
                continue
            # no point: infeasible as HiGHS finds it, or a certified bound
            # at or above the cutoff and at or below the optimum
            assert np.isnan(sol.x).all()
            if sol.status == "infeasible":
                assert optimum == sol.objective == math.inf
            else:
                assert cutoff <= sol.objective <= optimum + OPTIMUM_TOL
