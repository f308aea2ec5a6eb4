"""Best-first branch-and-bound over the binary set of a MIQP.

Nodes are ordered by their convex relaxation bound. A node's heap entry
keeps the fixings each of its children adds, as ``branch`` gives them: the
most fractional free trim (|v - 0.5| minimal, ties to the lowest index) at
0, then at 1, while any trim of the problem's layout is fractional, else the
most fractional free binary, with the same ties. A problem without a layout
has no trims. Its pop solves the children in that order. Each relaxation is
one interior-point solve in a shared ``BoxQp`` workspace with the node's
binaries pinned. The root starts cold; every other relaxation starts from
the root's final iterate (a warm start), whatever the node, so once the
root is solved a relaxation depends on its fixings alone. Each tree
therefore keeps a memo of its relaxations keyed by the fixing set: a tree
node or a rounding candidate that asks for fixings solved before gets the
stored result instead of a new solve. A child is pruned when its bound
reaches the incumbent less PRUNE_EPS. Every relaxation is asked for with
that value as its cutoff, so one whose certified lower bound reaches it
ends early with status "cutoff": a child that ends so is pruned like an
infeasible one, and a rounding candidate that ends so cannot beat the
incumbent. Incumbents come from one path: a rounding hook turns a relaxed
``x`` under a node's fixings into complete candidates (every free binary
fixed to 0 or 1, or the solve raises ContractViolation), and each is
relaxed, snapped to exact 0/1 binaries and kept if it beats the incumbent.
A model-aware hook may be given; the generic rule (each free binary to 1
above 0.5, else to 0) is the default. The path rounds every
relaxation the tree pushes: the root's and each child's that is not
pruned, fractional or integral. Everything is deterministic: identical
problems and limits reproduce identical node counts and solutions (time
limits excepted). A brute-force enumerator over all binary patterns serves
as the testing oracle for small instances.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, StepPlanError
from .formulation import MiqpProblem
from .qp import BoxQp, QpSolution

INT_TOL = 1e-5
PRUNE_EPS = 1e-9
OPTIMAL_GAP = 1e-4
BRUTE_FORCE_MAX_BINARIES = 20


def _is(value, kind) -> bool:
    """Whether value is a number of this ``numbers`` kind; a bool is not one."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class MiqpLimits:
    """When branch-and-bound stops: relative gap, node cap, wall-clock cap.

    ``max_nodes`` is checked before each pop, and a pop solves both children,
    so a solve can report up to ``max_nodes + 1`` nodes: the root plus two per
    pop (the chunk default of 2 gives 3).
    """

    gap: float = 1e-4
    max_nodes: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        # a negative, NaN, fractional or boolean limit would plan silently with no meaning
        if not (_is(self.gap, numbers.Real) and self.gap >= 0.0 and math.isfinite(self.gap)):
            raise ContractViolation(f"gap must be a finite number >= 0, got {self.gap!r}")
        if self.max_nodes is not None and not (_is(self.max_nodes, numbers.Integral) and self.max_nodes >= 0):
            raise ContractViolation(f"max_nodes must be an integer >= 0 or None, got {self.max_nodes!r}")
        if self.time_limit is not None and not (
            _is(self.time_limit, numbers.Real) and self.time_limit > 0.0 and math.isfinite(self.time_limit)
        ):
            raise ContractViolation(
                f"time_limit must be a finite number > 0 or None, got {self.time_limit!r}"
            )


@dataclass(eq=False)
class MiqpSolution:
    """Incumbent (exactly integral binaries) plus solve statistics.

    ``refix_solves`` counts the relaxations the incumbent path asked for,
    one per rounding candidate, memo hits included; ``cutoff_solves`` the
    relaxation solves that ended at the incumbent cutoff."""

    x: np.ndarray | None
    objective: float
    status: str  # "optimal" | "gap-limit" | "infeasible" | "node-limit" | "time-limit"
    gap: float
    nodes: int
    wall_time: float
    best_bound: float
    refix_solves: int = 0
    cutoff_solves: int = 0

    @property
    def feasible(self) -> bool:
        return self.x is not None


def _relative_gap(incumbent: float, bound: float) -> float:
    if not math.isfinite(incumbent):
        return math.inf
    return (incumbent - bound) / max(1.0, abs(incumbent))


def _snap(problem: MiqpProblem, x: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with its binaries rounded to exactly 0 or 1."""
    x = x.copy()
    x[problem.binary_indices] = np.round(x[problem.binary_indices])
    return x


class _Tree:
    def __init__(self, problem: MiqpProblem, limits: MiqpLimits, rounding=None):
        self.problem = problem
        self.limits = limits
        self.rounding = rounding or self.generic_rounding
        self.ws = BoxQp.from_miqp(problem)
        bins = problem.binary_indices
        free = problem.lower < problem.upper
        self.free_bins = bins[free[bins]].tolist()
        # branched on first while any is fractional; a problem without a
        # layout has no trims
        trims = problem.layout.trims if problem.layout is not None else bins[:0]
        self.free_trims = trims[free[trims]].tolist()
        self.incumbent_x: np.ndarray | None = None
        self.incumbent_obj = math.inf
        # relaxations asked for, memo hits included
        self.nodes = 0  # by tree nodes
        self.refix_solves = 0  # by the incumbent path
        self.cutoff_solves = 0  # solves that ended at the incumbent cutoff
        # open subtrees: (bound, -tick, fixings, children's added fixings)
        self.heap: list[tuple[float, int, dict[int, float], tuple[dict[int, float], ...]]] = []
        self.tick = 0
        self.relaxations: dict[frozenset, QpSolution] = {}
        self.root: QpSolution | None = None  # the warm start of every later relaxation

    def relax(self, fixings: dict[int, float]) -> QpSolution:
        """The relaxation with ``fixings`` pinned, solved once per fixing set.

        A solve ends with status "cutoff" once a certified lower bound
        reaches the incumbent less PRUNE_EPS: such a node or candidate is
        pruned whatever the solve would have ended with. The incumbent only
        falls, so a stored cutoff stays one. Every solve after the root's
        starts from the root's final iterate."""
        key = frozenset(fixings.items())
        sol = self.relaxations.get(key)
        if sol is None:
            sol = self.ws.solve(fixings=fixings, cutoff=self.incumbent_obj - PRUNE_EPS, start=self.root)
            self.relaxations[key] = sol
            self.cutoff_solves += sol.status == "cutoff"
        return sol

    def branch(self, x: np.ndarray, fixings: dict[int, float]) -> tuple[dict[int, float], ...] | None:
        """The fixings each child adds, or None when ``x`` is integral: the
        most fractional free trim at 0, then at 1, while any trim is
        fractional, else the most fractional free binary."""
        for candidates in (self.free_trims, self.free_bins):
            best_i, best_d = None, math.inf
            for i in candidates:
                if i in fixings or min(abs(x[i]), abs(x[i] - 1.0)) <= INT_TOL:
                    continue
                d = abs(x[i] - 0.5)
                if d < best_d - 1e-15:
                    best_d, best_i = d, i
            if best_i is not None:
                return {best_i: 0.0}, {best_i: 1.0}
        return None

    def generic_rounding(self, x: np.ndarray, fixings: dict[int, float]) -> list[dict[int, float]]:
        """The default rounding hook: each free binary to 1 above 0.5, else to 0."""
        out = dict(fixings)
        for i in self.free_bins:
            if i not in out:
                out[i] = 1.0 if x[i] > 0.5 else 0.0
        return [out]

    def incumbent(self, x: np.ndarray, fixings: dict[int, float]) -> None:
        """Relax each candidate the rounding hook gives for ``x`` under
        ``fixings``, snap it and keep it if it beats the incumbent. A
        candidate that leaves a free binary unpinned, or pins one off 0 and
        1, relaxes to no integral point: it is a ContractViolation."""
        for cand in self.rounding(x, fixings):
            if not all(cand.get(i) in (0.0, 1.0) for i in self.free_bins):
                raise ContractViolation("a rounding candidate must pin every free binary to 0 or 1")
            sol = self.relax(cand)
            self.refix_solves += 1
            if sol.status != "optimal":
                continue
            snapped = _snap(self.problem, sol.x)
            obj = self.problem.objective_value(snapped)
            if obj < self.incumbent_obj - 1e-12:
                self.incumbent_obj, self.incumbent_x = obj, snapped

    def push(self, bound: float, fixings: dict[int, float], x: np.ndarray) -> None:
        """Round ``x`` under ``fixings``, and open a node there unless ``x``
        is integral."""
        self.incumbent(x, fixings)
        children = self.branch(x, fixings)
        if children is None:
            return
        # ties on the bound pop newest-first: equal-bound plateaus are
        # traversed depth-first instead of exhaustively breadth-first
        heapq.heappush(self.heap, (bound, -self.tick, fixings, children))
        self.tick += 1

    def result(self, status: str | None, t0: float) -> MiqpSolution:
        best_bound = min(self.heap[0][0], self.incumbent_obj) if self.heap else self.incumbent_obj
        gap = max(_relative_gap(self.incumbent_obj, best_bound), 0.0)
        if self.incumbent_x is None:
            status = status or "infeasible"
        elif status is None:
            status = "optimal" if gap <= OPTIMAL_GAP else "gap-limit"
        return MiqpSolution(
            self.incumbent_x, self.incumbent_obj, status, gap, self.nodes,
            time.perf_counter() - t0, best_bound, self.refix_solves, self.cutoff_solves,
        )

    def run(self) -> MiqpSolution:
        t0 = time.perf_counter()
        limits = self.limits
        self.nodes += 1
        root = self.relax({})
        if root.status == "infeasible":
            return self.result(None, t0)
        self.root = root
        # an unresolved root's objective is no lower bound
        self.push(-math.inf if root.status == "max-iterations" else root.objective, {}, root.x)

        status = None
        while self.heap:
            if _relative_gap(self.incumbent_obj, self.heap[0][0]) <= limits.gap:
                break
            if limits.max_nodes is not None and self.nodes >= limits.max_nodes:
                status = "node-limit"
                break
            if limits.time_limit is not None and time.perf_counter() - t0 > limits.time_limit:
                status = "time-limit"
                break
            bound, _, fixings, children = heapq.heappop(self.heap)
            for child in children:
                child_fix = {**fixings, **child}
                self.nodes += 1
                sol = self.relax(child_fix)
                if sol.status in ("infeasible", "cutoff"):
                    continue
                # an unresolved relaxation inherits the parent bound (still valid)
                child_bound = bound if sol.status == "max-iterations" else max(sol.objective, bound)
                if child_bound >= self.incumbent_obj - PRUNE_EPS:
                    continue
                self.push(child_bound, child_fix, sol.x)
        return self.result(status, t0)


def solve_miqp(
    problem: MiqpProblem,
    limits: MiqpLimits | None = None,
    rounding=None,
) -> MiqpSolution:
    """Solve a MIQP by best-first branch-and-bound over its binary variables.

    ``rounding`` is an optional model-aware hook ``fn(x, fixings) -> list of
    fixings``; each candidate it returns must fix every free binary to 0 or
    1 (else the solve raises ContractViolation), and is relaxed, snapped and
    tried as an incumbent. The generic rule (each free binary to 1 above
    0.5, else to 0) is the default hook.
    """
    return _Tree(problem, limits or MiqpLimits(), rounding=rounding).run()


def brute_force_solve(problem: MiqpProblem) -> MiqpSolution:
    """Enumerate every assignment of the free binaries and keep the best QP.

    Exact up to QP tolerance; refuses more than BRUTE_FORCE_MAX_BINARIES free
    binaries.
    """
    t0 = time.perf_counter()
    lb, ub = problem.lower, problem.upper
    free = [int(i) for i in problem.binary_indices if lb[i] < ub[i]]
    if len(free) > BRUTE_FORCE_MAX_BINARIES:
        raise ContractViolation(
            f"brute force refused: {len(free)} free binaries exceeds {BRUTE_FORCE_MAX_BINARIES}"
        )
    ws = BoxQp.from_miqp(problem)
    best_x, best_obj = None, math.inf
    for pattern in itertools.product((0.0, 1.0), repeat=len(free)):
        sol = ws.solve(fixings=dict(zip(free, pattern)))
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal":
            raise StepPlanError(
                f"brute force relaxation did not converge for pattern {pattern}"
            )
        x = _snap(problem, sol.x)
        obj = problem.objective_value(x)
        if obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
    status, gap = ("infeasible", math.inf) if best_x is None else ("optimal", 0.0)
    return MiqpSolution(best_x, best_obj, status, gap, 2 ** len(free), time.perf_counter() - t0, best_obj)
