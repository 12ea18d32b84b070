"""The two-disk mesh, the neck strip and the flux sums against the exact
linear solution (tests/bipolar.py): p = 2, R = 1, R_out = 4, the bipolar
solutions prescribed as the outer datum."""

import math

import numpy as np
import pytest

from bipolar import BipolarPair
from gaplaw.flux import r_delta
from gaplaw.geometry import DomainSpec, ParticlePair
from gaplaw.mesh import MeshParams, build_mesh
from gaplaw.solver import grad_max, solve_floating, solve_tied

# Measured relative errors on these meshes (T2/a - 1, R_delta, grad_max):
# (0.3, 4) at delta 0.04: -4.42e-3, +4.21e-3, -8.56e-3; (0.3, 8): -1.41e-3,
# +2.98e-3, -3.69e-3; at delta 0.0025: +3.7e-4, +3.25e-3, +1.1e-4 and
# +2.24e-3, +3.63e-3, +2.10e-3.  The bounds keep a margin of about 1.4.
GAP_REL_TOL = 6e-3  # |T2/a - 1| and |R_delta / (2 pi a/tau0) - 1|
FIELD_REL_TOL = 1.2e-2  # |grad_max / surface field - 1|
ROUNDING_TOL = 1e-12  # |T1 + T2| of the floating solve, |T| of the tied one

CASES = [(0.3, 4, 0.04), (0.3, 8, 0.04), (0.3, 4, 0.0025), (0.3, 8, 0.0025)]


class TestOracle:
    @pytest.mark.parametrize("delta", [0.04, 0.0025])
    def test_constant_on_the_particles(self, delta):
        exact = BipolarPair(1.0, delta)
        theta = np.linspace(0.0, 2.0 * math.pi, 200)
        x, y = np.cos(theta), np.sin(theta) + 1.0 + 0.5 * delta
        for sign in (1.0, -1.0):
            np.testing.assert_allclose(exact.floating(x, sign * y), sign * exact.a,
                                       rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(exact.tied(x, sign * y), 0.0, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("delta", [0.04, 0.0025])
    def test_surface_field_is_the_derivative(self, delta):
        exact = BipolarPair(1.0, delta)
        h = 1e-6 * delta
        above, below = exact.floating(0.0, 0.5 * delta + h), exact.floating(0.0, 0.5 * delta - h)
        slope = (above - below) / (2.0 * h)
        assert slope == pytest.approx(exact.surface_field, rel=1e-7)

    def test_surface_field_values(self):
        assert BipolarPair(1.0, 0.04).surface_field == pytest.approx(10.116786, abs=1e-6)
        assert BipolarPair(1.0, 0.0025).surface_field == pytest.approx(40.029169, abs=1e-6)


@pytest.mark.parametrize("h_far,neck_layers,delta", CASES)
def test_fem_matches_the_exact_solution(h_far, neck_layers, delta):
    exact = BipolarPair(1.0, delta)
    mesh = build_mesh(DomainSpec(pair=ParticlePair(R=1.0, delta=delta), R_out=4.0),
                      MeshParams(h_far=h_far, neck_layers=neck_layers))
    floating = solve_floating(mesh, p=2.0, datum=exact.floating)
    tied = solve_tied(mesh, p=2.0, datum=exact.tied)
    assert abs(floating.T2 / exact.a - 1.0) <= GAP_REL_TOL
    assert abs(floating.T1 + floating.T2) <= ROUNDING_TOL
    assert abs(tied.T1) <= ROUNDING_TOL and tied.T2 == tied.T1
    assert abs(r_delta(tied) / exact.r_delta - 1.0) <= GAP_REL_TOL
    assert abs(grad_max(floating)[0] / exact.surface_field - 1.0) <= FIELD_REL_TOL
