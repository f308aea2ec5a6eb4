"""Domain types for robots, terrain and scenarios, plus exact-geometry helpers.

Everything here is pure and immutable: the trigonometry is evaluated exactly
(math.sin/cos), which makes these functions the reference oracle against which
the linearized optimization model is validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ContractViolation

#: how far (m) start footholds and the goal may sit outside the workspace box
_WORKSPACE_TOL = 1e-6
#: how far (m) a point may violate a region's halfspaces and still lie in it
CONTAINS_TOL = 1e-9


@dataclass(frozen=True)
class RobotModel:
    """Leg geometry of a multilegged walker.

    Attributes:
        n_legs: number of legs (>= 2).
        leg_offsets: fixed angle from the body yaw to each leg's nominal
            direction, radians, one per leg, each in [-pi, pi).
        l_leg: distance from the center of contacts to a leg's nominal
            foothold, meters.
        l_bnd: half-side of the square reference box around the nominal
            foothold, meters.
        d_lim: half-side of the square reachability box around the previous
            nominal foothold, meters.
        dz_max: largest allowed height change between successive placements
            of the same leg, meters.
    """

    n_legs: int
    leg_offsets: tuple[float, ...]
    l_leg: float
    l_bnd: float
    d_lim: float
    dz_max: float

    def __post_init__(self):
        object.__setattr__(self, "leg_offsets", tuple(float(a) for a in self.leg_offsets))
        if self.n_legs < 2:
            raise ConfigurationError(f"n_legs must be >= 2, got {self.n_legs}")
        if len(self.leg_offsets) != self.n_legs:
            raise ConfigurationError(
                f"expected {self.n_legs} leg offsets, got {len(self.leg_offsets)}"
            )
        for j, a in enumerate(self.leg_offsets):
            if not (-math.pi <= a < math.pi):
                raise ConfigurationError(f"leg offset {j} = {a} outside [-pi, pi)")
        for name in ("l_leg", "l_bnd", "d_lim", "dz_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.l_leg <= 0:
            raise ConfigurationError("l_leg must be positive")
        if self.l_bnd <= 0:
            raise ConfigurationError("l_bnd must be positive")
        if self.d_lim <= 0:
            raise ConfigurationError("d_lim must be positive")
        if self.dz_max < 0:
            raise ConfigurationError("dz_max must be nonnegative")


@dataclass(frozen=True)
class Footstep:
    """A single foot placement with the body yaw of its configuration."""

    x: float
    y: float
    z: float
    theta: float
    leg: int
    trimmed: bool = False
    region: str | None = None

    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def xyz(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True, eq=False)
class SafeRegion:
    """Convex obstacle-free polytope {x in R^3 : A x <= b}."""

    a_matrix: np.ndarray
    b_vector: np.ndarray
    name: str
    # Axis-aligned bounding box, filled in by the scenario loader once the
    # region is known nonempty and bounded: a polygon's is a closed form of
    # its vertices, a halfspace region's comes from an LP. (lo, hi) or None.
    bbox: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        b = np.asarray(self.b_vector, dtype=float).ravel()
        if a.shape[1] != 3:
            raise ConfigurationError(f"region {self.name!r}: A must be m x 3, got {a.shape}")
        if a.shape[0] != b.shape[0]:
            raise ConfigurationError(
                f"region {self.name!r}: A has {a.shape[0]} rows but b has {b.shape[0]}"
            )
        for label, arr in (("A", a), ("b", b)):
            if not np.isfinite(arr).all():
                raise ConfigurationError(f"region {self.name!r}: {label} has a non-finite entry")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_vector", b)

    @property
    def n_rows(self) -> int:
        return self.a_matrix.shape[0]

    def violation(self, point) -> float:
        """Largest halfspace violation at ``point`` (<= 0 means inside)."""
        p = np.asarray(point, dtype=float).ravel()[:3]
        return float(np.max(self.a_matrix @ p - self.b_vector))

    def contains(self, point) -> bool:
        return self.violation(point) <= CONTAINS_TOL


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete input of the planner: robot, terrain, boundary conditions, weights."""

    robot: RobotModel
    regions: tuple[SafeRegion, ...]
    start_footholds: np.ndarray      # (n_legs, 3), row j is leg j+1
    start_yaw: float
    goal_position: np.ndarray        # (3,) target center of contacts
    goal_yaw: float
    max_steps: int
    theta_range: tuple[float, float]
    n_segments: int
    q_goal: np.ndarray               # (4, 4) PSD weight on (x, y, z, yaw) goal error
    q_t: float                       # negative per-step trim reward
    q_r: np.ndarray                  # (2, 2) PSD weight on CoC drift between configurations
    workspace_box: tuple[np.ndarray, np.ndarray]
    name: str = "scenario"

    def __post_init__(self):
        holds = np.asarray(self.start_footholds, dtype=float)
        goal = np.asarray(self.goal_position, dtype=float).ravel()
        qg = np.asarray(self.q_goal, dtype=float)
        qr = np.asarray(self.q_r, dtype=float)
        lo = np.asarray(self.workspace_box[0], dtype=float).ravel()
        hi = np.asarray(self.workspace_box[1], dtype=float).ravel()
        for arr in (holds, goal, qg, qr, lo, hi):
            arr.setflags(write=False)
        object.__setattr__(self, "start_footholds", holds)
        object.__setattr__(self, "goal_position", goal)
        object.__setattr__(self, "q_goal", qg)
        object.__setattr__(self, "q_r", qr)
        object.__setattr__(self, "workspace_box", (lo, hi))
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "theta_range", (float(self.theta_range[0]), float(self.theta_range[1])))
        self.validate()

    def validate(self) -> None:
        n = self.robot.n_legs
        # a NaN passes every check below written as  x <= bound
        for label, value in (
            ("start_footholds", self.start_footholds), ("start_yaw", self.start_yaw),
            ("goal_position", self.goal_position), ("goal_yaw", self.goal_yaw),
            ("theta_range", self.theta_range), ("workspace_box", np.concatenate(self.workspace_box)),
            ("q_goal", self.q_goal), ("q_r", self.q_r), ("q_t", self.q_t),
        ):
            if not np.isfinite(value).all():
                raise ConfigurationError(f"{label} must be finite")
        if self.start_footholds.shape != (n, 3):
            raise ConfigurationError(
                f"start_footholds must be ({n}, 3), got {self.start_footholds.shape}"
            )
        if self.goal_position.shape != (3,):
            raise ConfigurationError("goal_position must have 3 components")
        if self.max_steps < n or self.max_steps % n != 0:
            raise ConfigurationError(
                f"max_steps ({self.max_steps}) must be a positive multiple of n_legs ({n})"
            )
        lo_t, hi_t = self.theta_range
        if not lo_t < hi_t:
            raise ConfigurationError("theta_range must be a nonempty interval")
        if not (lo_t - 1e-12 <= self.start_yaw <= hi_t + 1e-12):
            raise ConfigurationError(
                f"start_yaw {self.start_yaw} outside theta_range [{lo_t}, {hi_t}]"
            )
        if self.n_segments < 2:
            raise ConfigurationError("n_segments must be >= 2")
        if not self.q_t < 0:
            raise ConfigurationError("q_t must be negative")
        if self.q_goal.shape != (4, 4):
            raise ConfigurationError("q_goal must be 4x4")
        if self.q_r.shape != (2, 2):
            raise ConfigurationError("q_r must be 2x2")
        for label, m in (("q_goal", self.q_goal), ("q_r", self.q_r)):
            if not np.allclose(m, m.T, atol=1e-12):
                raise ConfigurationError(f"{label} must be symmetric")
            if np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) < -1e-9:
                raise ConfigurationError(f"{label} must be positive semidefinite")
        lo, hi = self.workspace_box
        if lo.shape != (3,) or hi.shape != (3,) or np.any(lo >= hi):
            raise ConfigurationError("workspace_box must be a nonempty axis-aligned box")
        for j in range(n):
            p = self.start_footholds[j]
            if np.any(p < lo - _WORKSPACE_TOL) or np.any(p > hi + _WORKSPACE_TOL):
                raise ConfigurationError(f"start foothold of leg {j + 1} outside workspace_box")
        goal = self.goal_position
        if np.any(goal < lo - _WORKSPACE_TOL) or np.any(goal > hi + _WORKSPACE_TOL):
            raise ConfigurationError("goal position outside workspace_box")

    def with_overrides(self, **kw) -> "Scenario":
        return replace(self, **kw)


def coc(footsteps) -> np.ndarray:
    """Arithmetic mean of the xy coordinates of a window of footsteps.

    ``footsteps`` may hold Footstep objects or array-likes with at least two
    components.
    """
    pts = [s.xy() if isinstance(s, Footstep) else np.asarray(s, dtype=float)[:2] for s in footsteps]
    if not pts:
        raise ContractViolation("CoC window must not be empty")
    return np.mean(np.vstack(pts), axis=0)


def nominal_position(coc_xy, theta: float, leg: int, robot: RobotModel) -> np.ndarray:
    """Exact nominal foothold of ``leg`` for a body at ``coc_xy`` with yaw ``theta``.

    Reference (non-linearized) version of the quantity the optimization model
    reconstructs from its piecewise-linear sine/cosine variables.
    """
    if not 1 <= leg <= robot.n_legs:
        raise ContractViolation(f"leg must be in 1..{robot.n_legs}, got {leg}")
    p = np.asarray(coc_xy, dtype=float).ravel()[:2]
    phi = robot.leg_offsets[leg - 1]
    return p + robot.l_leg * np.array([math.cos(theta + phi), math.sin(theta + phi)])


def leg_of(step_index: int, n_legs: int) -> int:
    """Leg (1-based) that executes 1-based ``step_index`` in the cyclic gait order."""
    if step_index < 1:
        raise ContractViolation(f"step_index must be >= 1, got {step_index}")
    return (step_index - 1) % n_legs + 1


def config_of(step_index: int, n_legs: int) -> int:
    """Configuration (1-based block of n_legs steps) containing ``step_index``."""
    if step_index < 1:
        raise ContractViolation(f"step_index must be >= 1, got {step_index}")
    return (step_index - 1) // n_legs + 1


def derive_leg_goals(goal_position, goal_yaw: float, robot: RobotModel) -> np.ndarray:
    """Per-leg goal footholds placed at the exact nominal stance around the goal.

    Returns an (n_legs, 3) array; row j is the target of leg j+1, with z equal
    to the goal z. For robots whose offsets sum symmetrically, the CoC of the
    result recovers the goal CoC.
    """
    g = np.asarray(goal_position, dtype=float).ravel()
    out = np.empty((robot.n_legs, 3))
    for j in range(robot.n_legs):
        out[j, :2] = nominal_position(g[:2], goal_yaw, j + 1, robot)
        out[j, 2] = g[2]
    return out


def wrap_angle(a: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi
