"""Shared fixtures: the bundled presets, planned once per session."""

from pathlib import Path
from typing import NamedTuple

import pytest

from stepplan import qp
from stepplan.model import Scenario
from stepplan.planner import FootstepPlan, plan
from stepplan.scenario_io import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "stepplan" / "scenarios"


class PresetRun(NamedTuple):
    scenario: Scenario
    result: FootstepPlan
    statuses: list  # status of every BoxQp.solve made while planning


class PresetPlans:
    """Plans each preset at default ``plan()`` limits on first request."""

    def __init__(self):
        self._runs = {}

    def __getitem__(self, name: str) -> PresetRun:
        if name not in self._runs:
            scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
            statuses = []
            real = qp.BoxQp.solve

            def recording(ws, *args, **kwargs):
                sol = real(ws, *args, **kwargs)
                statuses.append(sol.status)
                return sol

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qp.BoxQp, "solve", recording)
                result = plan(scenario)
            self._runs[name] = PresetRun(scenario, result, statuses)
        return self._runs[name]


@pytest.fixture(scope="session")
def preset_plans() -> PresetPlans:
    return PresetPlans()
