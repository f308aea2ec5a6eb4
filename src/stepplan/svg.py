"""Deterministic top-down SVG rendering of footstep plans.

Produces byte-identical output for identical plans: fixed palette, fixed
float formatting, no timestamps or randomness. Regions are drawn as their
xy cross-sections, footsteps as per-leg colored circles (trimmed steps
hollow), the CoC track as a polyline and the goal as a cross.
"""

from __future__ import annotations

import math

from .model import SafeRegion, Scenario, coc
from .planner import FootstepPlan

LEG_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#17becf", "#8c564b", "#e377c2",
)
REGION_FILL = "#dde9f2"
REGION_EDGE = "#7d9db8"


def _escape(text: str) -> str:
    """Text content with &, < and > escaped, as ``xml.sax.saxutils.escape``
    does; importing that module loads urllib.request, http.client and ssl."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def region_xy_polygon(region: SafeRegion) -> list[tuple[float, float]]:
    """Vertices of the region's xy cross-section at its mid height."""
    z_mid = 0.0
    if region.bbox is not None:
        z_mid = 0.5 * float(region.bbox[0][2] + region.bbox[1][2])
    rows = []
    for a, b in zip(region.a_matrix, region.b_vector):
        nx, ny = float(a[0]), float(a[1])
        if abs(nx) + abs(ny) < 1e-12:
            continue
        rows.append((nx, ny, float(b) - float(a[2]) * z_mid))
    pts = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a1, b1, c1 = rows[i]
            a2, b2, c2 = rows[j]
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if all(ax * x + ay * y <= c + 1e-9 for ax, ay, c in rows):
                pts.append((round(x, 9), round(y, 9)))
    pts = sorted(set(pts))
    if len(pts) < 3:
        return []
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    return sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def render_plan_svg(plan: FootstepPlan, scenario: Scenario) -> str:
    lo, hi = scenario.workspace_box
    scale = 260.0  # pixels per meter
    margin = 30.0
    width = (hi[0] - lo[0]) * scale + 2 * margin
    height = (hi[1] - lo[1]) * scale + 2 * margin

    def px(x: float) -> float:
        return (x - lo[0]) * scale + margin

    def py(y: float) -> float:
        return (hi[1] - y) * scale + margin

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]
    for region in scenario.regions:
        poly = region_xy_polygon(region)
        if not poly:
            continue
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in poly)
        parts.append(
            f'<polygon points="{points}" fill="{REGION_FILL}" stroke="{REGION_EDGE}" stroke-width="1"/>'
        )
        cx = sum(p[0] for p in poly) / len(poly)
        cy = sum(p[1] for p in poly) / len(poly)
        parts.append(
            f'<text x="{_fmt(px(cx))}" y="{_fmt(py(cy))}" font-size="9" fill="{REGION_EDGE}" '
            f'text-anchor="middle">{_escape(region.name)}</text>'
        )

    n = scenario.robot.n_legs
    track = [coc(scenario.start_footholds)]
    for c in range(len(plan.steps) // n):
        track.append(coc(plan.steps[c * n : (c + 1) * n]))
    if len(track) > 1:
        points = " ".join(f"{_fmt(px(p[0]))},{_fmt(py(p[1]))}" for p in track)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#444444" '
            f'stroke-width="1.5" stroke-dasharray="5,3"/>'
        )

    gx, gy = float(scenario.goal_position[0]), float(scenario.goal_position[1])
    r = 0.06 * scale
    parts.append(
        f'<line x1="{_fmt(px(gx) - r)}" y1="{_fmt(py(gy))}" x2="{_fmt(px(gx) + r)}" '
        f'y2="{_fmt(py(gy))}" stroke="#b8860b" stroke-width="2"/>'
    )
    parts.append(
        f'<line x1="{_fmt(px(gx))}" y1="{_fmt(py(gy) - r)}" x2="{_fmt(px(gx))}" '
        f'y2="{_fmt(py(gy) + r)}" stroke="#b8860b" stroke-width="2"/>'
    )
    yaw_dx = math.cos(scenario.goal_yaw) * 0.12 * scale
    yaw_dy = math.sin(scenario.goal_yaw) * 0.12 * scale
    parts.append(
        f'<line x1="{_fmt(px(gx))}" y1="{_fmt(py(gy))}" x2="{_fmt(px(gx) + yaw_dx)}" '
        f'y2="{_fmt(py(gy) - yaw_dy)}" stroke="#b8860b" stroke-width="1"/>'
    )

    for p in scenario.start_footholds:
        parts.append(
            f'<circle cx="{_fmt(px(float(p[0])))}" cy="{_fmt(py(float(p[1])))}" r="{_fmt(0.018 * scale)}" '
            f'fill="none" stroke="#999999" stroke-width="1"/>'
        )
    for step in plan.steps:
        color = LEG_PALETTE[(step.leg - 1) % len(LEG_PALETTE)]
        if step.trimmed:
            parts.append(
                f'<circle cx="{_fmt(px(step.x))}" cy="{_fmt(py(step.y))}" r="{_fmt(0.02 * scale)}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            parts.append(
                f'<circle cx="{_fmt(px(step.x))}" cy="{_fmt(py(step.y))}" r="{_fmt(0.02 * scale)}" '
                f'fill="{color}" fill-opacity="0.85" stroke="#333333" stroke-width="0.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
