"""The linear two-disk problem in bipolar coordinates: a test oracle.

At p = 2 the free-space problem of two disks of radius R with surface gap
delta in the applied field U = y has a closed form (Morse and Feshbach,
Methods of Theoretical Physics, 1953, ch. 10).  With the foci at (0, +/-a),
a = sqrt(R delta + delta^2/4), the bipolar coordinates

    tau = 1/2 log(((y + a)^2 + x^2) / ((y - a)^2 + x^2)),
    sigma = atan2(2 a x, x^2 + y^2 - a^2)

put particle 2 (on top) on tau = tau0 = asinh(a/R) and particle 1 on
tau = -tau0.  The floating solution

    u_f = y - 2a sum_{n>=1} e^{-n tau0} (sinh n tau / sinh n tau0) cos n sigma

is a on particle 2 and -a on particle 1, and the tied solution
u_t = u_f - (a/tau0) tau is 0 on both, with net flux R_delta = 2 pi a/tau0
out of particle 2.  The field |grad u_f| on particle 2 at the gap point
(0, delta/2) is

    1 - 2 (cosh tau0 + 1) sum_{n>=1} (-1)^n n e^{-n tau0} coth n tau0.

Prescribed as the datum on an outer circle, u_f and u_t are the exact
solutions of the bounded floating and tied problems there.  The series
need about 60/tau0 terms; they are summed over blocks of points, so that
no (points x terms) array grows past a million entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLOCK = 1 << 20  # entries of one (points x terms) block


@dataclass(frozen=True)
class BipolarPair:
    """The exact p = 2 solutions for two disks of radius R, gap delta."""

    R: float
    delta: float

    @property
    def a(self) -> float:
        """Focal distance sqrt((R + delta/2)^2 - R^2)."""
        return math.sqrt(self.R * self.delta + 0.25 * self.delta**2)

    @property
    def tau0(self) -> float:
        return math.asinh(self.a / self.R)

    @property
    def r_delta(self) -> float:
        """Net flux of the tied solution out of particle 2."""
        return 2.0 * math.pi * self.a / self.tau0

    @property
    def _n(self) -> np.ndarray:
        return np.arange(1, math.ceil(60.0 / self.tau0) + 1, dtype=float)

    def coordinates(self, x, y):
        """(tau, sigma) at the points (x, y)."""
        x, y, a = np.asarray(x, dtype=float), np.asarray(y, dtype=float), self.a
        tau = 0.5 * np.log(((y + a) ** 2 + x * x) / ((y - a) ** 2 + x * x))
        return tau, np.arctan2(2.0 * a * x, x * x + y * y - a * a)

    def floating(self, x, y):
        """u_f at the points (x, y), outside the particles."""
        tau, sigma = self.coordinates(x, y)
        shape = tau.shape
        tau, sigma = tau.ravel(), sigma.ravel()
        n, t0 = self._n, self.tau0
        series = np.empty(len(tau))
        step = max(1, _BLOCK // len(n))
        for k in range(0, len(tau), step):
            t, s = tau[k:k + step, None], sigma[k:k + step, None]
            # e^{-n tau0} sinh(n tau) / sinh(n tau0), with no exponent above
            # -n (tau0 - |tau|), so that no term overflows
            ratio = (np.exp(n * (t - 2.0 * t0)) - np.exp(-n * (t + 2.0 * t0))) / (
                -np.expm1(-2.0 * n * t0))
            series[k:k + step] = np.sum(ratio * np.cos(n * s), axis=1)
        return np.asarray(y, dtype=float) - 2.0 * self.a * series.reshape(shape)

    def tied(self, x, y):
        """u_t = u_f - (a/tau0) tau at the points (x, y)."""
        return self.floating(x, y) - self.a / self.tau0 * self.coordinates(x, y)[0]

    @property
    def surface_field(self) -> float:
        """|grad u_f| on particle 2 at the gap point (0, delta/2)."""
        n, t0 = self._n, self.tau0
        terms = (-1.0) ** n * n * np.exp(-n * t0) / np.tanh(n * t0)
        return float(1.0 - 2.0 * (math.cosh(t0) + 1.0) * np.sum(terms))
