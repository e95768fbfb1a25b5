"""Adaptive-quadrature oracles for the Marchenko-Pastur law at ratio one.

The package's closed forms (CDF, Stieltjes transform) and its exact moment
rule are tested against these integrals of the law's definition.  They work
in the substituted variable E = 2 - 2 cos t, t in [0, pi], where the density
is the bounded (1 + cos t)/pi, so the hard-edge singularity never enters.
scipy is a test dependency only; the package itself runs on numpy.
"""

import math

from scipy import integrate


def density_quadrature(f=None) -> float:
    """Adaptive quadrature of integral f(E) d(law)(E) over the support [0, 4];
    f = None integrates the density itself."""
    if f is None:
        def g(t: float) -> float:
            return (1.0 + math.cos(t)) / math.pi
    else:
        def g(t: float) -> float:
            return f(2.0 - 2.0 * math.cos(t)) * (1.0 + math.cos(t)) / math.pi

    value, _ = integrate.quad(g, 0.0, math.pi, limit=200, epsabs=1e-13, epsrel=1e-13)
    return value


def stieltjes_quadrature(point) -> complex:
    """The transform at a SpectralPoint: integral of d(law)(x) / (x - theta)."""
    theta = point.theta
    re = density_quadrature(lambda x: ((x - theta) ** -1).real)
    im = density_quadrature(lambda x: ((x - theta) ** -1).imag)
    return complex(re, im)


def moment_quadrature(order: int) -> float:
    """The order-th moment, integral of E^order d(law)(E)."""
    return density_quadrature(lambda x: x**order)
