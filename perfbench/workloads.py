"""The benchmark's three workloads.

Each workload has a ``setup`` (timed as ``setup_s`` and repeated), an
untimed ``warm_up``, a timed ``run`` and a ``check`` that runs outside the
timed section. Why each one exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from stepplan import planner
from stepplan.bnb import MiqpLimits, brute_force_solve
from stepplan.errors import StepPlanError
from stepplan.formulation import MiqpProblem, assemble, validate_assignment

#: bnb calls a solve optimal at this relative gap; smaller gaps read as it.
GAP_FLOOR = 1e-4
FEAS_TOL = 1e-6
ORACLE_TOL = 1e-5


@dataclass
class Outcome:
    """What one timed repetition produced.

    ``check`` fills in ``objective`` when it needs reference values that
    must be computed outside the timed section.
    """

    objective: float
    gaps: list[float]
    payload: object = None
    failures: list[str] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)  # bytes of written outputs

    @property
    def gap_max(self) -> float:
        return max([GAP_FLOOR, *self.gaps])


class Workload:
    """Defaults for the hooks only some workloads need."""

    def oracle(self, inputs, outcome: Outcome) -> tuple[int, list[str]]:
        """Extra checks against an independent reference, made once per run."""
        return 0, []

    def info(self, wall_s: float) -> dict:
        """Informational figures printed with the results but not gated."""
        return {}


class PlanQuadrupedTilted(Workload):
    """The user's full path: load, plan at default limits, validate, JSON, SVG."""

    name = "plan_quadruped_tilted"
    setup_repeats = 7

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.path = root / "src" / "stepplan" / "scenarios" / "quadruped_tilted_terrain.json"
        self.smoke = smoke

    def setup(self, api):
        scenario = api.load_scenario(self.path)
        if self.smoke:
            # a goal one short stride ahead: a short plan that still converges
            start = scenario.start_footholds.mean(axis=0)
            goal = np.array([start[0] + 0.1, start[1], start[2]])
            scenario = scenario.with_overrides(goal_position=goal, goal_yaw=scenario.start_yaw)
        return scenario

    def warm_up(self, api, scenario) -> None:
        tiny = scenario.with_overrides(max_steps=scenario.robot.n_legs)
        result = api.plan(tiny, chunk_multiplier=1, limits=MiqpLimits(gap=0.01, max_nodes=1))
        api.validate_plan(result, tiny)
        api.plan_to_json(result, tiny)
        api.render_plan_svg(result, tiny)

    def run(self, api, scenario) -> Outcome:
        kwargs = {"chunk_multiplier": 1} if self.smoke else {}
        try:
            result = api.plan(scenario, **kwargs)
        except StepPlanError as exc:
            return Outcome(math.inf, [], failures=[f"plan raised {exc!r}"])
        report = api.validate_plan(result, scenario)
        text = api.plan_to_json(result, scenario)
        svg = api.render_plan_svg(result, scenario)
        return Outcome(
            objective=sum(c.objective for c in result.chunks),
            gaps=[c.gap for c in result.chunks],
            payload=(result, report, text, svg),
            sizes={"plan_io.bytes": len(text), "svg.bytes": len(svg)},
        )

    def check(self, scenario, outcome: Outcome) -> tuple[int, list[str]]:
        if outcome.payload is None:
            return 1, outcome.failures
        result, report, text, svg = outcome.payload
        issues = []
        if not result.converged:
            issues.append(f"plan did not converge ({result.termination})")
        if not report.ok:
            issues.append(report.summary())
        if not text or not svg.startswith("<svg"):
            issues.append("empty plan file or SVG")
        failures = ["; ".join(issues)] if issues else []
        for chunk in result.chunks:
            rep = validate_assignment(assemble(chunk.scenario), chunk.solution.x, FEAS_TOL)
            if not rep.ok:
                failures.append(f"chunk {chunk.index}: {rep.summary()}")
        return 1 + len(result.chunks), failures


class ChunkHexapodStones(Workload):
    """One 24-step chunk of the hexapod stepping-stone course: the paper's problem."""

    name = "chunk_hexapod_stones"
    setup_repeats = 3
    #: published solve time of one 24-step problem, the external yardstick
    YARDSTICK_S = 0.44

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.path = root / "src" / "stepplan" / "scenarios" / "hexapod_stepping_stones.json"
        self.configs = 1 if smoke else 4

    def setup(self, api):
        scenario = api.load_scenario(self.path)
        steps = self.configs * scenario.robot.n_legs
        return scenario.with_overrides(max_steps=steps, name=f"{scenario.name}#chunk0")

    def warm_up(self, api, chunk) -> None:
        tiny = chunk.with_overrides(max_steps=chunk.robot.n_legs)
        problem = api.assemble(tiny)
        api.solve_miqp(
            problem,
            limits=MiqpLimits(gap=0.01, max_nodes=1),
            rounding=api.make_rounding_heuristic(tiny, problem),
        )

    def run(self, api, chunk) -> Outcome:
        problem = api.assemble(chunk)
        rounding = api.make_rounding_heuristic(chunk, problem)
        # the limits plan() gives each chunk by default
        limits = MiqpLimits(gap=planner.DEFAULT_CHUNK_GAP, max_nodes=planner.DEFAULT_CHUNK_NODES)
        sol = api.solve_miqp(problem, limits=limits, rounding=rounding)
        return Outcome(sol.objective, [sol.gap], payload=(problem, sol))

    def check(self, chunk, outcome: Outcome) -> tuple[int, list[str]]:
        problem, sol = outcome.payload
        if not sol.feasible:
            return 1, [f"chunk solve ended {sol.status} without a plan"]
        rep = validate_assignment(problem, sol.x, FEAS_TOL)
        return 1, [] if rep.ok else [rep.summary()]

    def info(self, wall_s: float) -> dict:
        return {"yardstick_s": self.YARDSTICK_S, "wall_over_yardstick": wall_s / self.YARDSTICK_S}


def random_miqp(rng: np.random.Generator, n_c: int, n_b: int) -> MiqpProblem:
    """A feasible random MIQP, drawn like the criterion-1 oracle problems.

    ``n_c`` continuous variables and ``n_b`` binaries; the rows are built
    around a random integral point with positive slack, so the problem is
    always feasible.
    """
    n = n_c + n_b
    g = rng.normal(size=(n, n)) * 0.6
    q = g.T @ g / n + 0.02 * np.eye(n)
    c = rng.normal(size=n)
    lb = np.concatenate([rng.uniform(-3, -0.5, n_c), np.zeros(n_b)])
    ub = np.concatenate([rng.uniform(0.5, 3, n_c), np.ones(n_b)])
    x0 = np.concatenate(
        [rng.uniform(lb[:n_c], ub[:n_c]), rng.integers(0, 2, n_b).astype(float)]
    )
    m = int(rng.integers(2, 9))
    a = rng.normal(size=(m, n))
    b = a @ x0 + rng.uniform(0.05, 1.0, m)
    return MiqpProblem(
        q_matrix=sp.csr_matrix(q),
        c_vector=c,
        objective_constant=0.3,
        a_ineq=sp.csr_matrix(a),
        b_ineq=b,
        a_eq=sp.csr_matrix((0, n)),
        b_eq=np.zeros(0),
        lower=lb,
        upper=ub,
        binary_indices=np.arange(n_c, n),
        layout=None,
        ineq_families=tuple("row" for _ in range(m)),
        ineq_labels=tuple(f"row{i}" for i in range(m)),
        eq_families=(),
        eq_labels=(),
    )


def _reference_minima(problem: MiqpProblem) -> tuple[float, float]:
    """Minima of x'Qx + c'x + const over R^n and over the variable box.

    Q is positive definite here. The box minimum comes from scipy's
    L-BFGS-B, not from stepplan's engine.
    """
    q = problem.q_matrix.toarray()
    c = problem.c_vector
    k = problem.objective_constant
    free = float(k - 0.25 * c @ np.linalg.solve(q, c))
    box = minimize(
        lambda x: x @ q @ x + c @ x + k,
        np.clip(np.zeros(len(c)), problem.lower, problem.upper),
        jac=lambda x: 2.0 * q @ x + c,
        bounds=list(zip(problem.lower, problem.upper)),
        method="L-BFGS-B",
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000},
    )
    return free, float(box.fun)


class TreeRandomMiqp(Workload):
    """A seeded batch of small MIQPs: many tiny workspaces and deep trees.

    The batch is stratified: every (continuous, binary) size pair of the
    criterion-1 generator, 2-10 continuous by 1-8 binaries, appears
    ``COPIES`` times, so the amount of work varies little between seeds.
    """

    name = "tree_random_miqp"
    setup_repeats = 9
    COPIES = 5
    GAP = 1e-4
    ORACLE_PICKS = 3
    #: brute force solves 2^b QPs; the oracle picks problems it can afford
    ORACLE_MAX_BINARIES = 6

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self._minima = None

    def setup(self, api) -> list[MiqpProblem]:
        rng = np.random.default_rng(self.seed)
        sizes = [
            (n_c, n_b)
            for _ in range(self.COPIES)
            for n_c in range(2, 11)
            for n_b in range(1, 9)
        ]
        if self.smoke:
            sizes = sizes[:8]
        return [random_miqp(rng, n_c, n_b) for n_c, n_b in sizes]

    def warm_up(self, api, problems) -> None:
        rng = np.random.default_rng(0)
        for n_b in (1, 4):
            api.solve_miqp(random_miqp(rng, 3, n_b), limits=MiqpLimits(gap=self.GAP))

    def run(self, api, problems) -> Outcome:
        limits = MiqpLimits(gap=self.GAP)
        sols = [api.solve_miqp(p, limits=limits) for p in problems]
        return Outcome(math.nan, [s.gap for s in sols], payload=sols)

    def check(self, problems, outcome: Outcome) -> tuple[int, list[str]]:
        # Random objectives have either sign and a spread that depends on the
        # seed. The batch objective is therefore normalized by input-only
        # references: the sum of (objective - unconstrained minimum) over the
        # sum of (box minimum - unconstrained minimum). It moves in proportion
        # to solution quality and varies about 1% between seeds.
        if self._minima is None:
            self._minima = np.array([_reference_minima(p) for p in problems])
        free, box = self._minima.T
        found = np.array([s.objective for s in outcome.payload])
        outcome.objective = float(np.sum(found - free) / np.sum(box - free))
        failures = []
        for k, (p, s) in enumerate(zip(problems, outcome.payload)):
            if not s.feasible:
                failures.append(f"problem {k}: {s.status} on a feasible problem")
                continue
            x = s.x
            bins = x[p.binary_indices]
            worst = max(
                float(np.max(p.a_ineq @ x - p.b_ineq, initial=0.0)),
                float(np.max(p.lower - x, initial=0.0)),
                float(np.max(x - p.upper, initial=0.0)),
                float(np.max(np.minimum(np.abs(bins), np.abs(bins - 1.0)), initial=0.0)),
            )
            if worst > FEAS_TOL:
                failures.append(f"problem {k}: violation {worst:.3e}")
            if abs(p.objective_value(x) - s.objective) > 1e-9 * max(1.0, abs(s.objective)):
                failures.append(f"problem {k}: reported objective differs from x")
        return len(problems), failures

    def oracle(self, problems, outcome: Outcome) -> tuple[int, list[str]]:
        """Compare a seeded subset with brute-force enumeration."""
        rng = np.random.default_rng([self.seed, 1])
        small = [
            k for k, p in enumerate(problems)
            if len(p.binary_indices) <= self.ORACLE_MAX_BINARIES
        ]
        picks = rng.choice(small, size=min(len(small), 1 if self.smoke else self.ORACLE_PICKS),
                           replace=False)
        failures = []
        for k in sorted(int(k) for k in picks):
            ref = brute_force_solve(problems[k])
            got = outcome.payload[k]
            if ref.feasible != got.feasible or (
                ref.feasible and abs(ref.objective - got.objective) > ORACLE_TOL
            ):
                failures.append(
                    f"problem {k}: tree {got.objective!r} vs brute force {ref.objective!r}"
                )
        return len(picks), failures


WORKLOADS = {w.name: w for w in (PlanQuadrupedTilted, ChunkHexapodStones, TreeRandomMiqp)}
