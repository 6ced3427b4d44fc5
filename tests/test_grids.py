import numpy as np
import pytest

from simkbm import TorusGrid, TraitGrid


class TestTorusGrid:
    def test_spacing(self):
        g = TorusGrid(64, 1.0)
        assert g.spacing == pytest.approx(1.0 / 64)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="too few points"):
            TorusGrid(3, 1.0)

    @pytest.mark.parametrize("period", [0.0, -2.0])
    def test_rejects_nonpositive_period(self, period):
        with pytest.raises(ValueError, match="period"):
            TorusGrid(16, period)

    def test_centers_inside_period(self):
        g = TorusGrid(16, 2.0)
        assert g.centers.min() > 0.0
        assert g.centers.max() < 2.0

    def test_periodic_distance_bounded(self, rng):
        g = TorusGrid(16, 1.0)
        a = rng.uniform(0, 1, size=50)
        b = rng.uniform(0, 1, size=50)
        d = g.distance(a, b)
        assert np.all(d >= 0)
        assert np.all(d <= 0.5 + 1e-15)
        assert g.distance(0.05, 0.95) == pytest.approx(0.1)


class TestTraitGrid:
    def test_spacing_and_centers(self):
        g = TraitGrid(-8.0, 8.0, 256)
        assert g.spacing == pytest.approx(1.0 / 16)
        assert g.centers[0] == pytest.approx(-8.0 + g.spacing / 2)
        assert np.all(np.diff(g.centers) > 0)

    def test_doubling_points_halves_spacing(self):
        assert TraitGrid(-8.0, 8.0, 512).spacing == pytest.approx(
            TraitGrid(-8.0, 8.0, 256).spacing / 2
        )

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="y_min < y_max"):
            TraitGrid(2.0, 2.0, 100)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="too few trait points"):
            TraitGrid(-8.0, 8.0, 8)
