"""Kepler's problem in lambda: a closed-form test oracle off the circle.

In the rest frame P^2 = M^2, so for central_power with n = 1,
V = -g sqrt(P^2)/rho, the reduced equations are zeta' = eta and
eta' = -mu zeta/rho^3 with mu = -g M: Kepler's problem with lambda for time.
There F = 2 M^2 dV/dP^2 = mu/rho and G = 0, so the clock rate is
M/4 - nu^2/M^3 + mu/(M rho).  With the eccentric anomaly E,
rho = a (1 - e cos E) and d lambda = rho dE/(a n_k), n_k = sqrt(mu/a^3),
which integrates the rate in closed form:

    T(lambda) = (M/4 - nu^2/M^3 + mu/(M a)) lambda
                + mu e (sin E - sin E0)/(M a n_k).

The second term is all of T's departure from a line, and it vanishes
exactly when e = 0: the parameter lambda is a linear function of the
centre-of-mass time only on a circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NEWTON_MAXITER = 50


@dataclass(frozen=True)
class KeplerOrbit:
    """Elements of a bound n = 1 orbit on a given shell."""

    mu: float    # -g M, the attraction
    a: float     # semi-major axis
    e: float     # eccentricity
    E0: float    # eccentric anomaly at lambda = 0
    n_k: float   # mean motion in lambda
    M: float
    nu: float
    P: np.ndarray  # unit vector towards the pericentre
    Q: np.ndarray  # unit vector a quarter turn ahead of P in the orbital plane

    @classmethod
    def from_state(cls, g, shell, zeta0, eta0) -> "KeplerOrbit":
        """Elements of the orbit through (zeta0, eta0) at lambda = 0 for the
        central_power model with this g and n = 1, on this shell."""
        zeta0, eta0 = np.asarray(zeta0, dtype=float), np.asarray(eta0, dtype=float)
        mu = -g * shell.M
        r0 = float(np.linalg.norm(zeta0))
        a = 1.0 / (2.0 / r0 - float(eta0 @ eta0) / mu)  # vis-viva
        if not (mu > 0.0 and a > 0.0):
            raise ValueError(f"not a bound orbit: mu = {mu!r}, a = {a!r}")
        e_cos, e_sin = 1.0 - r0 / a, float(zeta0 @ eta0) / math.sqrt(mu * a)
        e, E0, n_k = math.hypot(e_cos, e_sin), math.atan2(e_sin, e_cos), math.sqrt(mu / a ** 3)
        # (zeta0, eta0) = A (P, Q) with A from state(0); det A = a b n_k, for
        # every e < 1, the circle included
        (zP, zQ), (yP, yQ) = cls._basis_weights(a, e, n_k, E0)
        det = zP * yQ - zQ * yP
        P, Q = (yQ * zeta0 - zQ * eta0) / det, (zP * eta0 - yP * zeta0) / det
        return cls(mu=mu, a=a, e=e, E0=E0, n_k=n_k, M=shell.M, nu=shell.nu, P=P, Q=Q)

    @staticmethod
    def _basis_weights(a, e, n_k, E):
        """The weights of P and Q in zeta and in eta at eccentric anomaly E."""
        b, cos, sin = a * math.sqrt(1.0 - e * e), np.cos(E), np.sin(E)
        rate = n_k / (1.0 - e * cos)
        return (a * (cos - e), b * sin), (-a * sin * rate, b * cos * rate)

    @property
    def radial_period(self) -> float:
        return 2.0 * math.pi / self.n_k

    @property
    def linear_rate(self) -> float:
        """Mean clock rate M/4 - nu^2/M^3 + mu/(M a), the slope of T's line."""
        return 0.25 * self.M - self.nu ** 2 / self.M ** 3 + self.mu / (self.M * self.a)

    @property
    def amplitude(self) -> float:
        """mu e/(M a n_k), the amplitude of T's oscillation about its line."""
        return self.mu * self.e / (self.M * self.a * self.n_k)

    def anomaly(self, lam) -> np.ndarray:
        """E(lambda) from Kepler's equation E - e sin E = E0 - e sin E0 + n_k lambda,
        solved by Newton's method from the mean anomaly.  Convergence is
        quadratic, so the step after one below 1e-9 |E| leaves only rounding."""
        mean = self.E0 - self.e * math.sin(self.E0) + self.n_k * np.asarray(lam, dtype=float)
        E = mean + self.e * np.sin(mean)
        for _ in range(_NEWTON_MAXITER):
            step = (E - self.e * np.sin(E) - mean) / (1.0 - self.e * np.cos(E))
            E = E - step
            if np.all(np.abs(step) <= 1e-9 * np.maximum(np.abs(E), 1.0)):
                return E - (E - self.e * np.sin(E) - mean) / (1.0 - self.e * np.cos(E))
        raise ArithmeticError(f"Kepler's equation open after {_NEWTON_MAXITER} iterations")

    def state(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """zeta and eta at each lambda, as (n, 3) arrays."""
        (zP, zQ), (yP, yQ) = self._basis_weights(self.a, self.e, self.n_k, self.anomaly(lam))
        P, Q = self.P, self.Q
        return (np.outer(zP, P) + np.outer(zQ, Q), np.outer(yP, P) + np.outer(yQ, Q))

    def rho(self, lam) -> np.ndarray:
        return self.a * (1.0 - self.e * np.cos(self.anomaly(lam)))

    def oscillation(self, lam) -> np.ndarray:
        """T minus its linear part: mu e (sin E - sin E0)/(M a n_k)."""
        return self.amplitude * (np.sin(self.anomaly(lam)) - math.sin(self.E0))

    def T(self, lam) -> np.ndarray:
        return self.linear_rate * np.asarray(lam, dtype=float) + self.oscillation(lam)
