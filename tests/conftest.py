"""Shared fixtures: the bundled presets, planned once per session."""

import os

# one BLAS thread, as in the benchmark: set before numpy is first imported.
# The suite's products are tiny, and threads only contend for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import pytest  # noqa: E402

from stepplan import qp  # noqa: E402
from stepplan.model import Scenario  # noqa: E402
from stepplan.planner import FootstepPlan, plan  # noqa: E402
from stepplan.scenario_io import load_scenario  # noqa: E402

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "stepplan" / "scenarios"


class PresetRun(NamedTuple):
    scenario: Scenario
    result: FootstepPlan
    statuses: list  # status of every BoxQp.solve made while planning


class PresetPlans:
    """Plans each preset at default ``plan()`` limits on first request."""

    def __init__(self):
        self._runs = {}
        self.warm = {}  # by name: (workspace, fixings, start) of every warm-started BoxQp.solve

    def __getitem__(self, name: str) -> PresetRun:
        if name not in self._runs:
            scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
            statuses, warm = [], []
            real = qp.BoxQp.solve

            def recording(ws, *args, **kwargs):
                sol = real(ws, *args, **kwargs)
                statuses.append(sol.status)
                if kwargs.get("start") is not None:
                    warm.append((ws, kwargs.get("fixings"), kwargs["start"]))
                return sol

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qp.BoxQp, "solve", recording)
                result = plan(scenario)
            self._runs[name], self.warm[name] = PresetRun(scenario, result, statuses), warm
        return self._runs[name]


@pytest.fixture(scope="session")
def preset_plans() -> PresetPlans:
    return PresetPlans()
