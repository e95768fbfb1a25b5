"""Closed-form Marchenko-Pastur machinery for square sample covariance matrices.

Everything here is the aspect-ratio-one case: the limiting spectral law of
X*X for a square matrix X with iid entries of variance 1/N.  The law lives on
[0, 4] with density (1/2pi) sqrt((4-E)/E), which blows up like E^(-1/2) at the
hard edge E = 0.  The substitution E = 2 - 2 cos(t) maps [0, pi] onto the
support and turns the density into the bounded form (1 + cos t)/pi; the
closed-form CDF and the moment quadrature ride on that substitution, so no
integral ever samples the singular endpoint.

The Stieltjes transform of the law is evaluated in the rationalised form

    -2 / (theta + sqrt(theta) * sqrt(theta - 4))

with principal roots, which is algebraically identical to
-1/2 + (1/2) sqrt(1 - 4/theta) on the upper half plane but avoids the
large-|theta| cancellation of the naive form (sqrt(1-4/theta) - 1 loses
~|theta|/4 digits when computed by subtraction).  Both roots have arguments
in (0, pi/2) there, so their product is the branch that grows like theta,
and the form never divides by theta: it stays finite at subnormal theta,
where 4/theta overflows.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUPPORT_RIGHT",
    "SpectralPoint",
    "Window",
    "DeltaBoundsReport",
    "mp_density",
    "mp_cdf",
    "mp_window_mass",
    "mp_stieltjes",
    "fixed_point_residual",
    "check_delta_bounds",
    "mp_moment_quadrature",
]

SUPPORT_RIGHT = 4.0

# Constant c of the lower bound on the imaginary part inside the
# circle E^2 + eta^2 <= 4E.  The provable constant is 2^(-9/4) ~ 0.2102;
# 0.2 leaves margin for rounding.
IM_BOUND_CONSTANT = 0.2

# The Catalan number C_519 ~ 1.4e308 is the last moment below float64's maximum.
MAX_MOMENT_ORDER = 519


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter theta = energy + i*eta in the open upper half plane."""

    energy: float
    eta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.energy):
            raise ValueError(f"energy must be finite, got {self.energy}")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")

    @property
    def theta(self) -> complex:
        return complex(self.energy, self.eta)

    def scale(self, size: int) -> float:
        """Resolution scale N*eta/sqrt(E) of this point at matrix size N."""
        return size * self.eta / math.sqrt(self.energy)


@dataclass(frozen=True)
class Window:
    """Energy window [energy, energy + eta]; eta doubles as the matching
    imaginary offset when the window is paired with a spectral point."""

    energy: float
    eta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.energy) and self.energy >= 0.0):
            raise ValueError(f"window left endpoint must be >= 0, got {self.energy}")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"window width must be positive, got {self.eta}")

    @property
    def right(self) -> float:
        return self.energy + self.eta

    @property
    def point(self) -> SpectralPoint:
        """Spectral point E + i*eta sitting on the window's left endpoint."""
        return SpectralPoint(self.energy, self.eta)


def mp_density(energy: float) -> float:
    """Limiting spectral density (1/2pi) sqrt((4-E)/E) on (0, 4], else 0.

    The hard-edge endpoint E = 0 returns 0 by convention even though the
    density diverges there; window masses remain finite and are the
    quantities the lab actually consumes.
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    if energy <= 0.0 or energy > SUPPORT_RIGHT:
        return 0.0
    # two roots, not one of the quotient: (4-E)/E overflows for subnormal E
    return math.sqrt(SUPPORT_RIGHT - energy) / math.sqrt(energy) / (2.0 * math.pi)


def mp_cdf(energy: float) -> float:
    """Closed-form CDF: (t + sin t)/pi with t = arccos(1 - E/2), clamped outside [0, 4].

    t is taken as 2 arcsin(sqrt(E)/2), the same angle: 1 - E/2 rounds to 1
    for E below about 2e-16, so arccos of it would lose every digit there.
    """
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    if energy <= 0.0:
        return 0.0
    if energy >= SUPPORT_RIGHT:
        return 1.0
    t = 2.0 * math.asin(math.sqrt(energy) / 2.0)
    return (t + math.sin(t)) / math.pi


def mp_window_mass(window: Window) -> float:
    """Law mass of [E, E+eta] as a CDF difference (exact additivity by construction).

    The right end is clipped to the support, so E+eta may overflow to inf:
    a window beyond the support has mass exactly 0.
    """
    return mp_cdf(min(window.right, SUPPORT_RIGHT)) - mp_cdf(window.energy)


# binary exponent of max(|E|, eta) above which mp_stieltjes scales theta down
_STIELTJES_MAX_EXP = 1000


def _ldexp(z: complex, exp: int) -> complex:
    """z * 2**exp, rounded once per part."""
    return complex(math.ldexp(z.real, exp), math.ldexp(z.imag, exp))


def mp_stieltjes(point: SpectralPoint) -> complex:
    """Stieltjes transform of the limiting law at theta = E + i*eta, eta > 0,
    in the rationalised form of the module docstring.  The result is verified
    to lie in the upper half plane before returning, except that an
    imaginary part which underflows along with its lower bound is returned
    as +0.0.
    """
    theta = point.theta
    # the denominator (about 2 theta) overflows beyond |theta| ~ 9e307, while
    # the transform (about -1/theta) does not: there theta, the 4 and then the
    # quotient are scaled by one exact power of two
    shift = max(0, math.frexp(max(abs(point.energy), point.eta))[1] - _STIELTJES_MAX_EXP)
    scaled = _ldexp(theta, -shift)
    root = cmath.sqrt(scaled) * cmath.sqrt(scaled - math.ldexp(4.0, -shift))
    value = _ldexp(-2.0 / (scaled + root), -shift)
    if value.imag == 0.0:
        # on the support [0, 4], Im m >= eta / (|theta| + 4)^2; where that
        # bound underflows too, a zero (of either sign) is the true value
        # rounded, not a transform that left the half plane
        reach = abs(scaled) + math.ldexp(4.0, -shift)
        if math.ldexp(scaled.imag / reach / reach, -shift) == 0.0:
            return complex(value.real, 0.0)
    if not value.imag > 0.0:
        raise ArithmeticError(
            f"Stieltjes transform left the upper half plane at theta={theta}: {value}"
        )
    return value


def fixed_point_residual(delta: complex, point: SpectralPoint) -> float:
    """|theta*(delta+1) + 1/delta|: exactly 0 at the transform of the law.

    delta = -1 is the spurious fixed point of the defining equation written
    as theta*(delta+1)*delta = -1; there the residual is exactly 1.
    """
    if delta == 0:
        raise ValueError("delta must be nonzero")
    theta = point.theta
    return abs(theta * (delta + 1.0) + 1.0 / delta)


@dataclass(frozen=True)
class DeltaBoundsReport:
    """Margins of the deterministic envelope checks on the transform at one
    spectral point: (bound satisfied) - (threshold), nonnegative iff the check
    holds.  The imaginary-part lower bound only applies inside the circle
    E^2 + eta^2 <= 4E; outside, im_margin is None.
    """

    modulus_margin: float
    shifted_margin: float
    im_margin: float | None

    @property
    def inside_circle(self) -> bool:
        return self.im_margin is not None

    @property
    def all_ok(self) -> bool:
        return (self.modulus_margin >= 0.0 and self.shifted_margin >= 0.0
                and (self.im_margin is None or self.im_margin >= 0.0))


def check_delta_bounds(point: SpectralPoint) -> DeltaBoundsReport:
    """Check |delta|^2 <= 1/E, |1+delta|^2 >= max(E/(E^2+eta^2), 1/4), and the
    in-circle lower bound Im delta >= c*(|E-4|^(1/2)+eta^(1/2))/(E^2+eta^2)^(1/4)."""
    energy, eta = point.energy, point.eta
    if energy <= 0.0:
        raise ValueError(f"bounds require E > 0, got {energy}")
    delta = mp_stieltjes(point)
    mod_sq = abs(delta) ** 2
    modulus_margin = 1.0 / energy - mod_sq
    shifted = abs(1.0 + delta) ** 2
    norm_sq = energy * energy + eta * eta
    if not sys.float_info.min <= norm_sq < math.inf:
        # every bound below divides by E^2 + eta^2 or compares it with 4E
        way = "overflows" if norm_sq == math.inf else "underflows"
        raise ArithmeticError(f"E^2 + eta^2 {way} at theta={point.theta}")
    shifted_floor = max(energy / norm_sq, 0.25)
    shifted_margin = shifted - shifted_floor
    im_margin = None
    if norm_sq <= 4.0 * energy:
        floor = (
            IM_BOUND_CONSTANT
            * (math.sqrt(abs(energy - 4.0)) + math.sqrt(eta))
            / norm_sq**0.25
        )
        im_margin = delta.imag - floor
    return DeltaBoundsReport(modulus_margin, shifted_margin, im_margin)


def mp_moment_quadrature(order: int) -> float:
    """k-th moment of the law: the Catalan number 1, 1, 2, 5, 14, ... for k = 0, 1, 2, 3, 4.

    With E = 2 - 2 cos t the moment is the integral over t in [0, pi] of
    (2 - 2 cos t)^k (1 + cos t)/pi, a cosine polynomial of degree k + 1, so
    the (k + 2)-node Gauss-Chebyshev (midpoint) rule gives it exactly up to
    rounding.  The integrand is evaluated as 4^k sin(t/2)^(2k) 2 cos(t/2)^2/pi
    and the power of two is applied last, so no node overflows for an order
    whose moment is finite in float64.  The moments are integers, so the sum
    is rounded to the nearest one: that gives the exact Catalan number for
    every k <= 30 (those below 2^53), and the relative error stays below
    1e-14 for larger k.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise ValueError(f"order must be <= {MAX_MOMENT_ORDER}, or the moment overflows float64; got {order}")
    nodes = order + 2
    half_angles = (np.arange(nodes) + 0.5) * (math.pi / (2 * nodes))
    mean = (np.sin(half_angles) ** (2 * order) * np.cos(half_angles) ** 2).mean()
    return float(round(math.ldexp(float(mean), 2 * order + 1)))
