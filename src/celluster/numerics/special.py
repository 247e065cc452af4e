"""Special functions on float64 arrays, without external math libraries.

Log-gamma and digamma are defined for positive arguments, which is all the
count likelihood ever feeds them (dispersion and counts are clamped
positive). The logistic sigmoid is the one formula shared by the autodiff
op and the fused reconstruction criterion.
"""

from __future__ import annotations

import numpy as np

# Lanczos approximation, g=7, 9 coefficients; relative error ~1e-13 for x >= 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)
_HALF_LOG_TWO_PI = 0.5 * np.log(2.0 * np.pi)


def sigmoid(x):
    """Logistic function, elementwise; exp only ever sees -|x|, so it never
    overflows."""
    x = np.asarray(x, dtype=np.float64)
    # Worked in place and without a data-dependent select: on n x n blocks
    # fresh temporaries and np.where cost more than the exp itself.
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0, out=np.empty_like(x))  # 1 where x >= 0 (e <= 1), else e
    e += 1.0
    out /= e
    return out


def log_gamma(x):
    """Natural log of the gamma function, elementwise, for x > 0.

    Values in (0, 0.5) go through the reflection formula so the Lanczos
    series only ever sees arguments >= 0.5.
    """
    x = np.asarray(x, dtype=np.float64)
    small = x < 0.5
    xs = np.where(small, 1.0 - x, x)

    w = xs - 1.0
    acc = np.full_like(xs, _LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        acc = acc + _LANCZOS_COEF[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    main = _HALF_LOG_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(acc)

    if not np.any(small):
        return main
    # log Gamma(x) = log(pi / sin(pi x)) - log Gamma(1 - x) for x < 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        refl = np.log(np.pi / np.sin(np.pi * x)) - main
    return np.where(small, refl, main)


def digamma(x):
    """Derivative of log_gamma, elementwise, for x > 0.

    psi(x) = psi(x + 6) - sum_{k<6} 1/(x + k) moves every argument to
    x + 6 >= 6, where the asymptotic series (terms through x^-10) is
    accurate to ~1e-11.
    """
    x = np.asarray(x, dtype=np.float64)
    res = -1.0 / x
    for k in range(1, 6):
        res -= 1.0 / (x + k)
    y = x + 6.0
    inv = 1.0 / y
    inv2 = inv * inv
    tail = inv2 * (
        1.0 / 12.0
        - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0)))
    )
    return res + np.log(y) - 0.5 * inv - tail
