"""Write the 50-digit reference of the two-spin stationary concurrence.

Usage:  python tests/data/make_concurrence_reference.py

Writes ``concurrence_reference.csv`` next to this script: one row per
(R, alpha) with the concurrence to 30 significant digits.  The points are
seeded, so rerunning the script reproduces the file.  The state is built
independently of qreset: mpmath diagonalises H at 60 digits, the
stationary state is rho0_{EE'} R/(R + i(E - E')) in the energy basis, and
the concurrence is Wootters' max(0, mu1 - mu2 - mu3 - mu4) with mu_i the
square roots of the eigenvalues of rho (S rho* S), S = sigma_y x sigma_y.

Rows: 500 points over the README ranges (R log-uniform in 1e-3 .. 10; alpha
uniform in 0 .. 12 on even rows and log-uniform in 1e-3 .. 12 on odd ones),
then 120 near-pure states with R log-uniform in 1e2 .. 1e6, then 60 strong
couplings at small rates (R log-uniform in 1e-6 .. 1e-2, alpha in 1e2 ..
1.5e4), where the levels -gamma and -alpha are only 1/(gamma + alpha) apart,
then 60 stronger couplings (alpha log-uniform in 1.55e4 .. 1e8, z = alpha R
log-uniform in 1e-2 .. 1e2), where a degeneracy tolerance relative to the
spectrum's norm merges those two levels; 60 digits resolve their gap.
"""

from __future__ import annotations

import os

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "concurrence_reference.csv")
SEED = 20230714
DIGITS = 60


def points() -> list[tuple[float, float]]:
    rng = np.random.default_rng(SEED)
    out = []
    for n, (lo, hi) in ((500, (-3.0, 1.0)), (120, (2.0, 6.0))):
        for k in range(n):
            R = float(10.0 ** rng.uniform(lo, hi))
            alpha = (float(rng.uniform(0.0, 12.0)) if k % 2 == 0
                     else float(10.0 ** rng.uniform(-3.0, np.log10(12.0))))
            out.append((R, alpha))
    for _ in range(60):
        R = float(10.0 ** rng.uniform(-6.0, -2.0))
        alpha = float(10.0 ** rng.uniform(2.0, np.log10(1.5e4)))
        out.append((R, alpha))
    for _ in range(60):
        alpha = float(10.0 ** rng.uniform(np.log10(1.55e4), 8.0))
        z = float(10.0 ** rng.uniform(-2.0, 2.0))
        out.append((z / alpha, alpha))
    return out


def concurrence(R: float, alpha: float) -> mpmath.mpf:
    """Stationary concurrence of the two spins at unit field, from |dd>."""
    with mpmath.workdps(DIGITS):
        j, o2 = mpmath.mpf(alpha), mpmath.mpf(1) / 2
        h = mpmath.matrix([[-j, o2, o2, 0], [o2, j, 0, o2],
                           [o2, 0, j, o2], [0, o2, o2, -j]])
        energies, v = mpmath.eigsy(h)
        r = mpmath.mpf(R)
        c = [v[3, i] for i in range(4)]
        rho_e = mpmath.matrix(4, 4)
        for i in range(4):
            for k in range(4):
                rho_e[i, k] = c[i] * c[k] * r / (r + 1j * (energies[i] - energies[k]))
        rho = v * rho_e * v.T
        s = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        flipped = s * rho.conjugate() * s
        lam = mpmath.eig(rho * flipped, left=False, right=False)
        mu = sorted((mpmath.sqrt(max(mpmath.re(x), 0)) for x in lam), reverse=True)
        return max(mu[0] - mu[1] - mu[2] - mu[3], mpmath.mpf(0))


def main() -> None:
    with open(PATH, "w") as f:
        f.write("R,alpha,concurrence\n")
        for R, alpha in points():
            f.write(f"{R!r},{alpha!r},{mpmath.nstr(concurrence(R, alpha), 30)}\n")


if __name__ == "__main__":
    main()
