"""Call counting and span recording around stepplan's public entry points.

The probe wraps functions from the benchmark's side only; nothing under
``src/`` is edited. Wrappers are installed for the whole run, so untraced
and traced repetitions execute the same code: every wrapped call is counted
and timed, and only while ``recording`` is set does it also leave a span.
The difference between a traced and an untraced repetition is therefore
the cost of the spans themselves, which the benchmark reports as tracing
overhead.

``planner`` binds ``assemble``, ``solve_miqp`` and
``make_rounding_heuristic`` by name, so those wrappers are set on
``stepplan.planner``; the benchmark's own calls go through the same wrapped
objects. ``qp`` calls ``scipy.sparse.linalg.splu`` through the module, so
patching that attribute counts every KKT and polish factorization. The
factor it returns is wrapped too, so that the host-speed calibrator can
sample from inside ADMM iterations (see ``calibrate.py``); calibration time
is subtracted from every recorded call duration.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

from calibrate import Calibrator, TickingLu

#: Layers are the stepplan modules; "bench" is the benchmark's own root span.
LAYERS = ("scenario_io", "formulation", "qp", "bnb", "planner", "plan_io", "svg")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Probe:
    """Counters for the current phase plus, while recording, a span list.

    Spans stay in memory until the run writes them out at the end.
    """

    def __init__(self, cal: Calibrator):
        self.cal = cal
        self.recording = False
        self.op = 0
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)

    def reset(self) -> None:
        """Start a new phase: counters and per-call timings restart from zero.

        A per-call timing is ``(start, end, seconds)``, where ``seconds``
        excludes calibration time.
        """
        self.counts = Counter()
        self.durations = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str):
        """An explicit span, used for the benchmark's own root of each phase."""
        if not self.recording:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, tally=None):
        """Wrap ``fn`` so each call is counted, timed and, if recording, spanned.

        ``tally(counts, result)`` adds result-derived counters such as QP
        iterations.
        """

        cal = self.cal

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cal.tick()
            span = self._open(name) if self.recording else None
            spent = cal.spent
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if span is not None:
                    self._close(span)
            self.counts[name] += 1
            self.durations[name].append((start, end, end - start - (cal.spent - spent)))
            cal.tick()
            if tally is not None:
                tally(self.counts, result)
            return result

        return wrapper

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return {s.id: s.duration - child[s.id] for s in self.spans}


def _tally_qp(counts: Counter, sol) -> None:
    counts["qp.iterations"] += sol.iterations
    counts["qp.polished"] += bool(sol.polished)
    if sol.status == "max-iterations":
        counts["qp.max_iter_solves"] += 1
    elif sol.status == "infeasible":
        counts["qp.infeasible_solves"] += 1


def _tally_bnb(counts: Counter, sol) -> None:
    counts["bnb.nodes"] += sol.nodes
    counts["bnb.refix_solves"] += sol.refix_solves
    counts["bnb.status." + sol.status] += 1


def _tally_assemble(counts: Counter, problem) -> None:
    nnz = problem.a_ineq.nnz + problem.a_eq.nnz
    counts["formulation.n_vars"] = max(counts["formulation.n_vars"], problem.n_vars)
    counts["formulation.n_binaries"] = max(
        counts["formulation.n_binaries"], len(problem.binary_indices)
    )
    counts["formulation.nnz"] = max(counts["formulation.nnz"], nnz)


def _tally_rounding(counts: Counter, candidates) -> None:
    counts["formulation.rounding_candidates"] += len(candidates)


@contextlib.contextmanager
def install(probe: Probe):
    """Patch the wrappers into stepplan; yield the wrapped entry points."""
    import scipy.sparse.linalg as spla

    from stepplan import planner, plan_io, qp, scenario_io, svg

    splu = spla.splu

    def rounding_factory(make):
        @functools.wraps(make)
        def factory(*args, **kwargs):
            hook = make(*args, **kwargs)
            return probe.wrap("formulation.rounding", hook, _tally_rounding)

        return factory

    patches = {
        (qp.BoxQp, "__init__"): probe.wrap("qp.setup", qp.BoxQp.__init__),
        (qp.BoxQp, "solve"): probe.wrap("qp.solve", qp.BoxQp.solve, _tally_qp),
        (spla, "splu"): probe.wrap(
            "qp.factorize", lambda *a, **kw: TickingLu(splu(*a, **kw), probe.cal)
        ),
        (scenario_io, "region_extent"): probe.wrap(
            "scenario_io.region_extent", scenario_io.region_extent
        ),
        (planner, "assemble"): probe.wrap(
            "formulation.assemble", planner.assemble, _tally_assemble
        ),
        (planner, "make_rounding_heuristic"): rounding_factory(
            planner.make_rounding_heuristic
        ),
        (planner, "solve_miqp"): probe.wrap("bnb.solve_miqp", planner.solve_miqp, _tally_bnb),
    }
    saved = {key: getattr(*key) for key in patches}
    for (owner, attr), fn in patches.items():
        setattr(owner, attr, fn)
    try:
        yield SimpleNamespace(
            load_scenario=probe.wrap("scenario_io.load", scenario_io.load_scenario),
            assemble=planner.assemble,
            make_rounding_heuristic=planner.make_rounding_heuristic,
            solve_miqp=planner.solve_miqp,
            plan=probe.wrap("planner.plan", planner.plan),
            validate_plan=probe.wrap("planner.validate", planner.validate_plan),
            plan_to_json=probe.wrap("plan_io.to_json", plan_io.plan_to_json),
            render_plan_svg=probe.wrap("svg.render", svg.render_plan_svg),
        )
    finally:
        for (owner, attr), fn in saved.items():
            setattr(owner, attr, fn)
