import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepplan.errors import ConfigurationError, DomainError
from stepplan.pwl import build_table, segment_count_with_zero_knot


class TestBuildTable:
    def test_sin_four_segments_breakpoints_and_chord(self):
        table = build_table("sin", (-math.pi, math.pi), 4)
        assert np.allclose(table.breakpoints, [-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi])
        # chord over [0, pi/2]: slope (sin(pi/2) - sin(0)) / (pi/2)
        k = table.segment_of(0.1)
        assert table.slopes[k] == pytest.approx(2.0 / math.pi)
        assert table.intercepts[k] == pytest.approx(0.0, abs=1e-15)

    def test_knot_exactness(self):
        for kind, f in (("sin", math.sin), ("cos", math.cos)):
            table = build_table(kind, (-1.3, 2.1), 7)
            for bp in table.breakpoints:
                assert table.eval(float(bp)) == pytest.approx(f(float(bp)), abs=1e-12)

    def test_adjacent_segments_agree_at_knots(self):
        table = build_table("cos", (-math.pi, math.pi), 8)
        for k in range(1, table.n_segments):
            bp = float(table.breakpoints[k])
            left = table.slopes[k - 1] * bp + table.intercepts[k - 1]
            right = table.slopes[k] * bp + table.intercepts[k]
            assert left == pytest.approx(right, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            build_table("tan", (-1, 1), 4)
        with pytest.raises(ConfigurationError):
            build_table("sin", (-1, 1), 1)
        with pytest.raises(ConfigurationError):
            build_table("sin", (1, 1), 4)


class TestEval:
    def test_zero_at_zero_knot(self):
        table = build_table("sin", (-math.pi, math.pi), 4)
        assert table.eval(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_cos_at_lower_end(self):
        table = build_table("cos", (-1.1, 0.9), 5)
        assert table.eval(-1.1) == pytest.approx(math.cos(-1.1), abs=1e-12)

    def test_chord_midpoint(self):
        # chord from (0,0) to (pi/2,1) evaluated at pi/4
        table = build_table("sin", (-math.pi, math.pi), 4)
        assert table.eval(math.pi / 4) == pytest.approx(0.5)

    def test_outside_domain_rejected(self):
        table = build_table("sin", (-1.0, 1.0), 4)
        with pytest.raises(DomainError):
            table.eval(1.5)

    def test_nan_rejected_by_segment_of(self):
        table = build_table("sin", (-1.0, 1.0), 4)
        with pytest.raises(DomainError):
            table.segment_of(math.nan)
        with pytest.raises(DomainError):
            table.segment_of(np.array([0.0, math.nan]))

    def test_nan_rejected_by_eval(self):
        table = build_table("sin", (-1.0, 1.0), 4)
        with pytest.raises(DomainError):
            table.eval(math.nan)
        with pytest.raises(DomainError):
            table.eval(np.array([math.nan, 0.5]))

    def test_empty_array_is_valid_for_segment_of(self):
        k = build_table("sin", (-1.0, 1.0), 4).segment_of(np.array([]))
        assert k.shape == (0,) and k.dtype.kind == "i"

    def test_empty_array_is_valid_for_eval(self):
        vals = build_table("sin", (-1.0, 1.0), 4).eval(np.array([]))
        assert vals.shape == (0,) and vals.dtype == np.float64

    def test_vectorized(self):
        table = build_table("cos", (-2.0, 2.0), 6)
        thetas = np.linspace(-2.0, 2.0, 11)
        vals = table.eval(thetas)
        assert vals.shape == thetas.shape
        assert vals[0] == pytest.approx(math.cos(-2.0), abs=1e-12)


class TestErrorBound:
    @pytest.mark.parametrize("n_segments", [4, 8, 16])
    @pytest.mark.parametrize("kind", ["sin", "cos"])
    def test_chord_error_bound_dense_grid(self, kind, n_segments):
        table = build_table(kind, (-math.pi, math.pi), n_segments)
        grid = np.linspace(-math.pi, math.pi, 100_001)
        exact = np.sin(grid) if kind == "sin" else np.cos(grid)
        err = np.max(np.abs(table.eval(grid) - exact))
        h = 2.0 * math.pi / n_segments
        assert err <= h * h / 8.0 + 1e-12

    def test_bound_value_for_eight_segments(self):
        table = build_table("sin", (-math.pi, math.pi), 8)
        assert table.error_bound() == pytest.approx((math.pi / 4) ** 2 / 8.0)
        assert table.error_bound() == pytest.approx(0.0771, abs=1e-4)

    @given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_offset_identity_within_scaled_bound(self, theta, phi):
        # cos(theta+phi) rebuilt from chord sin/cos values
        sin_t = build_table("sin", (-math.pi, math.pi), 8)
        cos_t = build_table("cos", (-math.pi, math.pi), 8)
        s, c = sin_t.eval(theta), cos_t.eval(theta)
        rebuilt = c * math.cos(phi) - s * math.sin(phi)
        bound = (abs(math.cos(phi)) + abs(math.sin(phi))) * sin_t.error_bound()
        assert abs(rebuilt - math.cos(theta + phi)) <= bound + 1e-12


class TestZeroKnotNudge:
    def test_symmetric_odd_count_bumped(self):
        assert segment_count_with_zero_knot((-1.0, 1.0), 5) == 6

    def test_symmetric_even_count_kept(self):
        assert segment_count_with_zero_knot((-1.0, 1.0), 8) == 8

    def test_rational_split(self):
        # zero sits at 2/5 of the range: needs a multiple of 5 segments
        assert segment_count_with_zero_knot((-2.0, 3.0), 4) == 5

    def test_range_not_straddling_zero_unchanged(self):
        assert segment_count_with_zero_knot((0.5, 2.0), 7) == 7

    def test_irrational_split_falls_back(self):
        assert segment_count_with_zero_knot((-1.0, math.pi), 6) == 6

    def test_nudged_table_hits_zero(self):
        ns = segment_count_with_zero_knot((-1.0, 1.0), 5)
        table = build_table("sin", (-1.0, 1.0), ns)
        assert np.min(np.abs(table.breakpoints)) < 1e-12
