"""Independent 50-digit references, written apart from the program.

``t22_mp`` matches plane waves across each interface in the global basis
(no local-basis propagation, no analytic derivative), so it shares no code or
formulation with ``tunnelwave.potential``.  ``faddeeva_log_mp`` evaluates
``w(z) = exp(-z^2) erfc(-iz)`` with mpmath's own erfc.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

DPS = 50
_EPS = 2.0**-52


def t22_mp(layers, inv_mass_coeff, k):
    """Incident amplitude A for a unit outgoing wave e^{ikx} right of the stack.

    ``t(k) = 1/A``; the zeros of A are the transmission poles.
    """
    with mp.workdps(DPS):
        k = mp.mpc(k)
        c = mp.mpf(inv_mass_coeff)
        qs = [k] + [mp.sqrt(k * k - mp.mpf(h) / c) for _, h in layers] + [k]
        xs = [mp.mpf(0)]
        for w, _ in layers:
            xs.append(xs[-1] + mp.mpf(w))
        a, b = mp.mpc(1), mp.mpc(0)
        # interface j sits at xs[j] between region j (left) and region j + 1
        for j in range(len(layers), -1, -1):
            ql, qr = qs[j], qs[j + 1]
            er = mp.exp(1j * qr * xs[j])
            p, m = a * er, b / er
            s, d = p + m, (qr / ql) * (p - m)  # psi and psi'/(i ql) continuity
            el = mp.exp(1j * ql * xs[j])
            a, b = (s + d) / (2 * el), (s - d) * el / 2
        return a


def newton_correction_mp(layers, inv_mass_coeff, k):
    """|t22/t22'| at k from the 50-digit matrix; t22' by a central difference."""
    with mp.workdps(DPS):
        h = mp.mpf(10) ** -20
        k = mp.mpc(k)
        f = t22_mp(layers, inv_mass_coeff, k)
        fp = (t22_mp(layers, inv_mass_coeff, k + h)
              - t22_mp(layers, inv_mass_coeff, k - h)) / (2 * h)
        return float(abs(f / fp))


def faddeeva_log_mp(z):
    """(log w(z), condition number |z w'(z) / w(z)|) at 50 digits."""
    with mp.workdps(DPS):
        zz = mp.mpc(z)
        w = mp.exp(-zz * zz) * mp.erfc(-1j * zz)
        dw = -2 * zz * w + 2j / mp.sqrt(mp.pi)
        return complex(mp.log(w)), float(abs(zz * dw / w))


def faddeeva_rel_error(z, log_mag, phase):
    """Relative error of exp(log_mag + i phase) against w(z), and its bound.

    The bound is the specfun tests' contract, 1e-12 for |z| <= 10 and 1e-10
    beyond, plus 4 eps times the condition number: in the lower half-plane
    w ~ 2 exp(-z^2), whose condition number 2|z|^2 makes the double-rounded
    z^2 alone worth more than 1e-10 once |z| exceeds about 700.
    """
    ref, cond = faddeeva_log_mp(z)
    dphase = math.remainder(phase - ref.imag, 2.0 * math.pi)
    diff = complex(log_mag - ref.real, dphase)
    err = abs(cmath.exp(diff) - 1.0) if diff.real < 700.0 else math.inf
    tol = (1e-12 if abs(z) <= 10.0 else 1e-10) + 4.0 * _EPS * cond
    return err, tol
