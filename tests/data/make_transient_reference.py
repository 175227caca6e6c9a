"""Write the 50-digit reference of the two-spin finite-time spin-1 entropy.

Usage:  python tests/data/make_transient_reference.py

Writes ``transient_reference.csv`` next to this script: one row per
(t, R, alpha) with the entropy of one spin under resetting to 30
significant digits.  The points are seeded, so rerunning the script
reproduces the file.  The state is built independently of qreset: mpmath
diagonalises H at 60 digits, and in the energy basis the state at rescaled
time t is

    rho_EE'(t) = c_E c_E' [R/(R + i w) + i w/(R + i w) exp(-(R + i w) t)],

w = E - E', with c the energy-basis components of |dd>.  One spin's
reduced matrix has the eigenvalues (1 +- y)/2, y = sqrt(1 - 4 det), and
the entropy is -sum lam ln lam over them.

Rows: 2000 points with R log-uniform in 1e-3 .. 1e3, alpha uniform in
0 .. 12 on even rows and log-uniform in 1e-3 .. 12 on odd ones, and t
uniform in 0 .. 40; then 200 near-pure states at short times (t
log-uniform in 1e-8 .. 1e-2, same R and alpha ranges), and 200 near-pure
stationary states (R log-uniform in 1e2 .. 1e6, t uniform in 0 .. 40).
"""

from __future__ import annotations

import os

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "transient_reference.csv")
SEED = 20230715
DIGITS = 60


def points() -> list[tuple[float, float, float]]:
    rng = np.random.default_rng(SEED)
    out = []
    for n, r_range, t_range in ((2000, (-3.0, 3.0), None), (200, (-3.0, 3.0), (-8.0, -2.0)),
                                (200, (2.0, 6.0), None)):
        for k in range(n):
            R = float(10.0 ** rng.uniform(*r_range))
            alpha = (float(rng.uniform(0.0, 12.0)) if k % 2 == 0
                     else float(10.0 ** rng.uniform(-3.0, np.log10(12.0))))
            t = (float(rng.uniform(0.0, 40.0)) if t_range is None
                 else float(10.0 ** rng.uniform(*t_range)))
            out.append((t, R, alpha))
    return out


def entropy(t: float, R: float, alpha: float) -> mpmath.mpf:
    """Spin-1 entropy of the two spins at unit field, from |dd> at time 0."""
    with mpmath.workdps(DIGITS):
        j, o2 = mpmath.mpf(alpha), mpmath.mpf(1) / 2
        h = mpmath.matrix([[-j, o2, o2, 0], [o2, j, 0, o2],
                           [o2, 0, j, o2], [0, o2, o2, -j]])
        energies, v = mpmath.eigsy(h)
        r, t = mpmath.mpf(R), mpmath.mpf(t)
        c = [v[3, i] for i in range(4)]
        rho_e = mpmath.matrix(4, 4)
        for i in range(4):
            for k in range(4):
                w = energies[i] - energies[k]
                z = r + 1j * w
                rho_e[i, k] = c[i] * c[k] * (r / z + 1j * w / z * mpmath.exp(-z * t))
        rho = v * rho_e * v.T
        up = mpmath.re(rho[0, 0] + rho[1, 1])
        coherence = rho[0, 2] + rho[1, 3]
        det = up * (1 - up) - abs(coherence) ** 2
        lam = 2 * det / (1 + mpmath.sqrt(1 - 4 * det))  # (1 - y)/2
        if lam <= 0:
            return mpmath.mpf(0)
        return -(1 - lam) * mpmath.log(1 - lam) - lam * mpmath.log(lam)


def main() -> None:
    with open(PATH, "w") as f:
        f.write("t,R,alpha,entropy\n")
        for t, R, alpha in points():
            f.write(f"{t!r},{R!r},{alpha!r},{mpmath.nstr(entropy(t, R, alpha), 30)}\n")


if __name__ == "__main__":
    main()
