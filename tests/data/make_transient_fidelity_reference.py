"""Write the 50-digit reference of the two-spin finite-time fidelity.

Usage:  python tests/data/make_transient_fidelity_reference.py

Writes ``transient_fidelity_reference.csv`` next to this script: one row per
(group, t, R, alpha) with the fidelity F = <dd|rho(t)|dd> to the initial
all-down state and 1 - F, each to 50 significant digits.  The points are
seeded, so rerunning the script reproduces the file.  The state is built
independently of qreset, as in make_transient_reference.py: mpmath
diagonalises H, and in the energy basis the state at rescaled time t is

    rho_EE'(t) = c_E c_E' [R/(R + i w) + i w/(R + i w) exp(-(R + i w) t)],

w = E - E', with c the energy-basis components of |dd>; F is rho's |dd>
element back in the computational basis.  The arithmetic keeps 60 digits
beyond those that resolving the spectrum (2 log10 alpha, since gamma -
alpha is 1/(2 alpha) at large alpha) and forming 1 - F (2 log10(1/t) at
short times) cost.

Groups, 1201 rows:
  standing-j  the short-time row (R, alpha, t) = (1e-3, 1, 5e-10), where
              1 - F = 0.5 t^2 (the variance of H in |dd> times t^2);
  main        800 points, R log-uniform in 1e-3 .. 1e3, alpha uniform in
              0 .. 12 on even rows and log-uniform in 1e-3 .. 12 on odd
              ones, t uniform in 0 .. 40;
  short       200 points, t log-uniform in 1e-12 .. 1e-2, R log-uniform in
              1e-3 .. 1e6 (0 on every tenth row), alpha as in main;
  strong      200 points, t and R as in short, alpha log-uniform in
              1e2 .. 1e150.  Here 1 - F is about 1/(8 alpha^2), and its
              relative digits last only while eps alpha t is small.
"""

from __future__ import annotations

import math
import os

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "transient_fidelity_reference.csv")
SEED = 20230716
DIGITS = 60


def points() -> list[tuple[str, float, float, float]]:
    rng = np.random.default_rng(SEED)
    out = [("standing-j", 5e-10, 1e-3, 1.0)]
    for k in range(800):
        R = float(10.0 ** rng.uniform(-3.0, 3.0))
        alpha = (float(rng.uniform(0.0, 12.0)) if k % 2 == 0
                 else float(10.0 ** rng.uniform(-3.0, math.log10(12.0))))
        out.append(("main", float(rng.uniform(0.0, 40.0)), R, alpha))
    for group in ("short", "strong"):
        for k in range(200):
            t = float(10.0 ** rng.uniform(-12.0, -2.0))
            R = float(10.0 ** rng.uniform(-3.0, 6.0)) if k % 10 else 0.0
            if group == "short":
                alpha = (float(rng.uniform(0.0, 12.0)) if k % 2 == 0
                         else float(10.0 ** rng.uniform(-3.0, math.log10(12.0))))
            else:
                alpha = float(10.0 ** rng.uniform(2.0, 150.0))
            out.append((group, t, R, alpha))
    return out


def fidelity(t: float, R: float, alpha: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(F, 1 - F) of the two spins at unit field, from |dd> at time 0."""
    extra = 2 * math.log10(max(alpha, 1.0)) + 2 * max(0.0, -math.log10(t) if t > 0 else 0.0)
    with mpmath.workdps(DIGITS + int(extra)):
        j, o2 = mpmath.mpf(alpha), mpmath.mpf(1) / 2
        h = mpmath.matrix([[-j, o2, o2, 0], [o2, j, 0, o2],
                           [o2, 0, j, o2], [0, o2, o2, -j]])
        energies, v = mpmath.eigsy(h)
        r, t = mpmath.mpf(R), mpmath.mpf(t)
        c = [v[3, i] for i in range(4)]
        f = mpmath.mpf(0)
        for i in range(4):
            for k in range(4):
                w = energies[i] - energies[k]
                z = r + 1j * w
                kernel = 1 if z == 0 else r / z + 1j * w / z * mpmath.exp(-z * t)
                f += c[i] * c[k] * c[i] * c[k] * kernel
        f = mpmath.re(f)
        return +f, 1 - f


def main() -> None:
    with open(PATH, "w") as out:
        out.write("group,t,R,alpha,fidelity,one_minus_fidelity\n")
        for group, t, R, alpha in points():
            f, g = fidelity(t, R, alpha)
            out.write(f"{group},{t!r},{R!r},{alpha!r},{mpmath.nstr(f, 50)},"
                      f"{mpmath.nstr(g, 50)}\n")


if __name__ == "__main__":
    main()
