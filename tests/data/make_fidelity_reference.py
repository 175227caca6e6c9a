"""Write the 50-digit reference of the Uhlmann fidelity.

Usage:  python tests/data/make_fidelity_reference.py

Writes ``fidelity_reference.json`` next to this script.  The points are
seeded, so rerunning the script reproduces the file.  Nothing here imports
qreset; the chains come from ``perfbench/oracle.py``.

"pairs": density matrices rho and sigma of dimension d = 2, 4, 8, each of
rank k built exactly from a rank-k factor: rho = A A^dagger / tr(A A^dagger)
with A a seeded complex Gaussian d x k matrix, formed in mpmath at 60
digits and rounded to the stored doubles.  The fidelity of the exact pair is

    F = (sum of the singular values of A^dagger B)^2 / (tr(A A^dagger) tr(B B^dagger))

for rho = A A^dagger / tr, sigma = B B^dagger / tr, with no square root of a
matrix.  For each d and each rank k there are four pairs: rho of rank k
against sigma of a random rank, sigma of rank k against rho of a random
rank, rho = sigma of rank k, and rho = 0.999 sigma + 0.001 tau with sigma of
rank k and tau of a random rank (the factor of rho is then
[sqrt(0.999) B / |B|, sqrt(0.001) T / |T|]).

The last four pairs, of kind "spread", are states with eigenvalues near
5e-14 of the largest, so that the squared singular values of W^dagger F,
the spectrum of F^dagger rho F, span more than 1e-14 while neither state
has an eigenvalue below 1e-14 of its largest: rho = diag(1 - 5e-14, 5e-14)
with sigma = diag(0.95, 0.05); a d = 4 diagonal pair; and a d = 4 diagonal
rho against a sigma from a seeded factor whose last three rows are scaled
by 0.1, in both orders.  Their fidelity is taken from the stored doubles
themselves: factors V sqrt(w) from 60-digit eigendecompositions of rho and
sigma, then the singular values of their product.

"chains": the stationary state of ``qreset ness --hamiltonian --rho0`` for
periodic transverse-field Ising chains of L = 2, 3, 4 spins (oracle's
``ising_chain``) reset to a product state psi (oracle's ``product_state``)
at rate r.  With H = V diag(E) V^dagger diagonalised in mpmath from the
double entries, and c = V^dagger psi for the double psi normalised at 60
digits, the fidelity to rho0 = psi psi^dagger is

    psi^dagger rho psi = sum_ij |c_i|^2 |c_j|^2 r^2 / (r^2 + (E_i - E_j)^2).

Each chain row also has the stationary state's purity, the sum of |rho_kl|^2
over rho = V (c_i c_j^* r / (r + i (E_i - E_j)))_ij V^dagger, and the entropy
-tr(rho_A ln rho_A) in nats of its reduction to subsystem A, the slowest
L // 2 spins (``qreset ness --split 2^(L//2):2^(L - L//2)``), from a 60-digit
eigendecomposition of rho_A.  For the pure rho0 the purity equals the
fidelity, since |r / (r + i w)|^2 = Re r / (r + i w); the two are computed
apart, so each checks the other.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "fidelity_reference.json")
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "perfbench"))
from oracle import ising_chain  # noqa: E402

SEED = 20230716
DIGITS = 60


def _mp(a: np.ndarray) -> mpmath.matrix:
    m = mpmath.matrix(*a.shape)
    for (i, j), v in np.ndenumerate(a):
        m[i, j] = mpmath.mpc(float(v.real), float(v.imag))
    return m


def _doubles(m: mpmath.matrix) -> list[list[float]]:
    return [[float(mpmath.re(m[i, j])), float(mpmath.im(m[i, j]))]
            for i in range(m.rows) for j in range(m.cols)]


def _unit_trace_factor(a: mpmath.matrix) -> mpmath.matrix:
    """a / |a|_F, so that a a^dagger has unit trace."""
    return a / mpmath.sqrt(sum(abs(x) ** 2 for x in a))


def _fidelity(a: mpmath.matrix, b: mpmath.matrix) -> mpmath.mpf:
    """F(a a^dagger, b b^dagger) for factors a and b of unit-trace states."""
    s = mpmath.svd_c(a.H * b, compute_uv=False)
    return sum(s[i] for i in range(s.rows)) ** 2


def _mp_density(x: list[list[float]], d: int) -> mpmath.matrix:
    m = mpmath.matrix(d, d)
    for n, (re, im) in enumerate(x):
        m[n // d, n % d] = mpmath.mpc(re, im)
    return m


def _factor_of(m: mpmath.matrix) -> mpmath.matrix:
    """V sqrt(max(w, 0)) from the 60-digit eigendecomposition of m."""
    w, v = mpmath.eighe(m)
    f = mpmath.matrix(m.rows, m.rows)
    for j in range(m.rows):
        root = mpmath.sqrt(max(w[j], 0))
        for i in range(m.rows):
            f[i, j] = v[i, j] * root
    return f


def spread(rng: np.random.Generator) -> list[dict]:
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b[1:] *= 0.1
    tilted = b @ b.conj().T
    tilted /= np.trace(tilted).real
    diag2 = np.diag([1 - 5e-14, 5e-14])
    diag4 = np.diag([1 - 1.5e-13, 5e-14, 5e-14, 5e-14])
    cases = [(diag2, np.diag([0.95, 0.05])),
             (diag4, np.diag([0.97, 0.01, 0.01, 0.01])),
             (diag4, tilted), (tilted, diag4)]
    out = []
    for rho, sigma in cases:
        d = rho.shape[0]
        row = {"kind": "spread", "d": d, "rank_rho": d, "rank_sigma": d,
               "rho": np.asarray(rho, complex).view(float).reshape(-1, 2).tolist(),
               "sigma": np.asarray(sigma, complex).view(float).reshape(-1, 2).tolist()}
        a, b_ = (_factor_of(_mp_density(row[k], d)) for k in ("rho", "sigma"))
        row["fidelity"] = mpmath.nstr(_fidelity(a, b_), 30)
        out.append(row)
    return out


def pairs(rng: np.random.Generator) -> list[dict]:
    out = []

    def factor(d: int, k: int) -> mpmath.matrix:
        return _unit_trace_factor(_mp(rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))))

    for d in (2, 4, 8):
        for k in range(1, d + 1):
            other = [int(x) for x in rng.integers(1, d + 1, size=3)]
            cases = [("rank_rho", factor(d, k), factor(d, other[0])),
                     ("rank_sigma", factor(d, other[1]), factor(d, k))]
            b = factor(d, k)
            cases.append(("equal", b, b))
            t = factor(d, other[2])
            mixed = mpmath.matrix(d, k + t.cols)
            for i in range(d):
                for j in range(k):
                    mixed[i, j] = mpmath.sqrt(mpmath.mpf("0.999")) * b[i, j]
                for j in range(t.cols):
                    mixed[i, k + j] = mpmath.sqrt(mpmath.mpf("0.001")) * t[i, j]
            cases.append(("mixture", mixed, b))
            for kind, a, b in cases:
                out.append({"kind": kind, "d": d, "rank_rho": min(a.cols, d),
                            "rank_sigma": b.cols, "rho": _doubles(a * a.H),
                            "sigma": _doubles(b * b.H),
                            "fidelity": mpmath.nstr(_fidelity(a, b), 30)})
    return out


def product_vector(L: int, theta: float, phi: float) -> np.ndarray:
    """The vector psi of oracle's product_state(L, theta, phi) = psi psi^dagger."""
    one = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    psi = np.ones(1, dtype=complex)
    for _ in range(L):
        psi = np.kron(psi, one)
    return psi


def chain_fidelity(L: int, J: float, h: float, theta: float, phi: float,
                   r: float) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """The fidelity to rho0, the purity and the subsystem-A entropy of the
    stationary state of a chain row."""
    energies, v = mpmath.eigsy(mpmath.matrix(ising_chain(L, J, h).real.tolist()))
    psi = _mp(product_vector(L, theta, phi)[:, None])
    psi /= mpmath.sqrt(sum(abs(x) ** 2 for x in psi))
    c = v.T * psi
    p = [abs(c[i]) ** 2 for i in range(c.rows)]
    r = mpmath.mpf(r)
    fidelity = sum(p[i] * p[j] * r**2 / (r**2 + (energies[i] - energies[j]) ** 2)
                   for i in range(c.rows) for j in range(c.rows))
    d = c.rows
    rho_e = mpmath.matrix(d, d)
    for i in range(d):
        for j in range(d):
            rho_e[i, j] = c[i] * mpmath.conj(c[j]) * r / mpmath.mpc(r, energies[i] - energies[j])
    rho = v * rho_e * v.T
    purity = sum(abs(rho[k, l]) ** 2 for k in range(d) for l in range(d))
    dim_a, dim_b = 2 ** (L // 2), 2 ** (L - L // 2)
    rho_a = mpmath.matrix(dim_a, dim_a)
    for i in range(dim_a):
        for j in range(dim_a):
            rho_a[i, j] = sum(rho[i * dim_b + a, j * dim_b + a] for a in range(dim_b))
    w = mpmath.eighe(rho_a, eigvals_only=True)
    entropy = -sum(x * mpmath.log(x) for x in w if x > 0)
    return fidelity, purity, entropy


def chains(rng: np.random.Generator) -> list[dict]:
    out = []
    for L in (2, 3, 4):
        for _ in range(6):
            row = {"L": L, "J": float(rng.uniform(0.5, 1.5)), "h": float(rng.uniform(0.3, 1.5)),
                   "theta": float(rng.uniform(0.2, 2.9)),
                   "phi": float(rng.uniform(0.0, 2 * np.pi)),
                   "r": float(10.0 ** rng.uniform(-2.0, 2.0))}
            values = chain_fidelity(**row)
            for key, value in zip(("fidelity_rho0", "purity", "entropy_subsystem_a"), values):
                row[key] = mpmath.nstr(value, 30)
            out.append(row)
    return out


def main() -> None:
    rng = np.random.default_rng(SEED)
    with mpmath.workdps(DIGITS):
        doc = {"pairs": pairs(rng), "chains": chains(rng)}
        doc["pairs"] += spread(np.random.default_rng(SEED + 1))
    with open(PATH, "w") as f:
        f.write("{\n")
        for key in ("pairs", "chains"):
            f.write(f'"{key}": [\n')
            f.write(",\n".join(json.dumps(row) for row in doc[key]))
            f.write("\n]" + (",\n" if key == "pairs" else "\n"))
        f.write("}\n")


if __name__ == "__main__":
    main()
