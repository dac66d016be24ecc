import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orientsemi.weighting import PairGeometry, modulating_factor, pair_weights

angles = st.floats(-math.pi / 2, math.pi / 2)
aspects = st.floats(1.0, 8.0)
geometries = st.builds(
    PairGeometry,
    teacher_angle=angles,
    student_angle=angles,
    teacher_aspect=aspects,
    student_aspect=aspects,
)


class TestValidation:
    def test_rejects_aspect_below_one(self):
        with pytest.raises(ValueError):
            PairGeometry(0.0, 0.0, 0.5, 1.0)

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(ValueError):
            PairGeometry(float("nan"), 0.0, 1.0, 1.0)

    def test_rejects_negative_psi(self):
        with pytest.raises(ValueError):
            modulating_factor(PairGeometry(0.0, 0.1, 1.0, 1.0), psi=-1.0)


class TestModulatingFactor:
    def test_hand_value_square(self):
        # gap pi/2, both aspects 1, psi 50: 1 + 50 * (1/2) * 1 = 26.
        geom = PairGeometry(math.pi / 4, -math.pi / 4, 1.0, 1.0)
        assert modulating_factor(geom, psi=50.0) == pytest.approx(26.0, abs=1e-12)

    def test_hand_value_elongated(self):
        # gap pi/2, both aspects 4: 1 + 50 * (1/2) * 4 = 101.
        geom = PairGeometry(math.pi / 4, -math.pi / 4, 4.0, 4.0)
        assert modulating_factor(geom, psi=50.0) == pytest.approx(101.0, abs=1e-12)

    @given(geometries)
    def test_psi_zero_gives_exactly_one(self, geom):
        assert modulating_factor(geom, psi=0.0) == 1.0

    @given(angles, aspects, aspects)
    def test_zero_gap_gives_exactly_one(self, angle, ta, sa):
        geom = PairGeometry(angle, angle, ta, sa)
        assert modulating_factor(geom, psi=50.0) == 1.0

    @given(geometries, st.floats(0.0, 100.0))
    def test_lower_bound(self, geom, psi):
        assert modulating_factor(geom, psi) >= 1.0

    def test_monotone_in_gap(self):
        gaps = [0.0, 0.1, 0.5, 1.0, math.pi - 0.01]
        weights = [
            modulating_factor(PairGeometry(0.0, 0.0, 2.0, 2.0), 50.0)
            if g == 0.0
            else modulating_factor(PairGeometry(g / 2, -g / 2, 2.0, 2.0), 50.0)
            for g in gaps
        ]
        assert all(a < b for a, b in zip(weights, weights[1:]))

    def test_strictly_monotone_in_aspect_sum(self):
        gap_geom = lambda aspect: PairGeometry(0.3, -0.3, aspect, aspect)
        w = [modulating_factor(gap_geom(a), 50.0) for a in (1.0, 2.0, 4.0, 8.0)]
        assert w[0] < w[1] < w[2] < w[3]

    def test_uses_raw_angle_difference(self):
        # Angles at opposite ends of the branch cut count as a large gap:
        # the weight reads the stored angles, it does not re-wrap them.
        geom = PairGeometry(math.pi / 2 - 0.01, -math.pi / 2 + 0.01, 1.0, 1.0)
        expected = 1.0 + 50.0 * (math.pi - 0.02) / math.pi * 1.0
        assert modulating_factor(geom, 50.0) == pytest.approx(expected, abs=1e-12)


def weights_of(geoms, psi):
    """:func:`pair_weights` on the fields of a list of geometries."""
    fields = ("teacher_angle", "student_angle", "teacher_aspect", "student_aspect")
    return pair_weights(*(np.array([getattr(g, f) for g in geoms]) for f in fields), psi)


def weighted_sum(pairs, psi):
    """Sum of per-pair loss totals scaled by the vectorised weights, the
    reduction ``weighted_pair_loss`` applies before its mean."""
    omega = weights_of([g for g, _ in pairs], psi)
    return float(omega @ np.array([sum(losses) for _, losses in pairs]))


class TestPairWeights:
    @given(st.lists(geometries, min_size=1, max_size=8), st.floats(0.0, 100.0))
    def test_matches_scalar_reference(self, geoms, psi):
        omega = weights_of(geoms, psi)
        for weight, geom in zip(omega, geoms):
            assert weight == pytest.approx(modulating_factor(geom, psi), rel=1e-12)

    @given(st.lists(geometries, min_size=1, max_size=8))
    def test_psi_zero_gives_exactly_one(self, geoms):
        omega = weights_of(geoms, 0.0)
        np.testing.assert_array_equal(omega, 1.0)

    @given(angles, aspects, aspects)
    def test_equal_angles_give_exactly_one(self, angle, ta, sa):
        omega = pair_weights(np.array([angle]), np.array([angle]), np.array([ta]), np.array([sa]), 50.0)
        assert omega[0] == 1.0 == modulating_factor(PairGeometry(angle, angle, ta, sa), 50.0)


class TestGawLoss:
    """The weighted pair-loss sum, built on :func:`pair_weights`."""

    def test_sum_of_weighted_pairs(self):
        pairs = [
            (PairGeometry(0.0, 0.0, 1.0, 1.0), (1.0, 2.0, 3.0)),
            (PairGeometry(math.pi / 4, -math.pi / 4, 1.0, 1.0), (0.5, 0.0, 0.5)),
        ]
        # First pair weight 1 on total 6; second weight 26 on total 1.
        assert weighted_sum(pairs, psi=50.0) == pytest.approx(6.0 + 26.0, abs=1e-12)

    def test_empty_is_zero(self):
        assert weighted_sum([], psi=50.0) == 0.0

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_linear_in_pair_loss(self, scale_a, scale_b):
        geom = PairGeometry(0.2, -0.1, 3.0, 2.0)
        base = (1.0, 1.0, 1.0)
        scaled = (scale_a, scale_b, 0.0)
        lhs = weighted_sum([(geom, base)], 50.0) + weighted_sum([(geom, scaled)], 50.0)
        both = weighted_sum([(geom, base), (geom, scaled)], 50.0)
        assert both == pytest.approx(lhs, rel=1e-12)

    def test_psi_zero_recovers_unweighted_sum(self):
        pairs = [
            (PairGeometry(0.7, -0.7, 5.0, 3.0), (1.0, 2.0, 0.5)),
            (PairGeometry(0.1, 0.4, 2.0, 8.0), (0.3, 0.0, 0.2)),
        ]
        assert weighted_sum(pairs, psi=0.0) == pytest.approx(3.5 + 0.5, abs=1e-12)
