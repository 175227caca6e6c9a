"""Reference values computed with plain numpy, and the output checks.

Nothing here imports qreset.  The two-spin states come from the Liouvillian
of the reset dynamics, d rho/dt = -i[H, rho] + r (rho0 - rho), written as a
16 x 16 matrix on row-major vec(rho): the stationary state by a linear
solve, the finite-time state by diagonalising its Hermitian part.  That is a
different route from qreset's renewal kernel in the energy basis.  Generic
chains are solved spectrally from numpy's eigh.

Tolerances (absolute), chosen from the accuracy of each reference:

    VALUE_ATOL     entropy, fidelity, purity, concurrence, ness matrix
    ARG_ATOL       r and alpha columns against numpy's geomspace/linspace
    CRIT_ATOL      dS/dalpha and d2S/dalpha2 at the reported critical point
    optimizers     |r_star - r_ref| <= the job's --tol, and the reported
                   maximum within VALUE_ATOL of the reference objective there
"""

from __future__ import annotations

import json
import math

import numpy as np

VALUE_ATOL = 1e-9
ARG_ATOL = 1e-12
CRIT_ATOL = 1e-6
DEGENERATE_RTOL = 1e-9

_DD = 3  # index of |dd> in the |uu>, |ud>, |du>, |dd> basis
_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real


def two_spin_h(alpha) -> np.ndarray:
    """Two-spin Hamiltonians at unit field, shape alpha.shape + (4, 4)."""
    a = np.asarray(alpha, dtype=float)
    h = np.zeros(a.shape + (4, 4), dtype=complex)
    h[..., 0, 0] = h[..., 3, 3] = -a
    h[..., 1, 1] = h[..., 2, 2] = a
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        h[..., i, j] = h[..., j, i] = 0.5
    return h


def _commutator_generator(h: np.ndarray) -> np.ndarray:
    """K with vec(H rho - rho H) = K vec(rho), row-major vec."""
    d = h.shape[-1]
    eye = np.eye(d)
    return (np.einsum("...ij,kl->...ikjl", h, eye)
            - np.einsum("ij,...lk->...ikjl", eye, h)).reshape(h.shape[:-2] + (d * d, d * d))


def _rho0(d: int = 4) -> np.ndarray:
    rho = np.zeros((d, d), dtype=complex)
    rho[_DD, _DD] = 1.0
    return rho


def ness_two_spin(R, alpha) -> np.ndarray:
    """Stationary states, shape R.shape + (4, 4)."""
    R = np.asarray(R, dtype=float)
    k = _commutator_generator(two_spin_h(np.broadcast_to(alpha, R.shape)))
    gen = -1j * k - R[..., None, None] * np.eye(16)
    rhs = np.broadcast_to(-R[..., None] * _rho0().reshape(16), R.shape + (16,))
    return np.linalg.solve(gen, rhs[..., None])[..., 0].reshape(R.shape + (4, 4))


def reset_two_spin(R, alpha: float, t) -> np.ndarray:
    """States at time t under resetting from |dd> at rate R (R and t
    broadcast together), shape broadcast(R, t).shape + (4, 4)."""
    R, t = np.broadcast_arrays(np.asarray(R, dtype=float), np.asarray(t, dtype=float))
    w, u = np.linalg.eigh(_commutator_generator(two_spin_h(alpha)))
    xs = ness_two_spin(R, alpha).reshape(R.shape + (16,))
    c = (_rho0().reshape(16) - xs) @ u.conj()
    decay = np.exp(t[..., None] * (-1j * w - R[..., None]))
    return (xs + (decay * c) @ u.T).reshape(R.shape + (4, 4))


def entropy(w) -> np.ndarray:
    w = np.clip(w, 0.0, 1.0)
    return -np.sum(np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0), axis=-1)


def spin1_entropy(rho) -> np.ndarray:
    """Entropy of the first spin of two-spin states."""
    red = np.einsum("...iaja->...ij", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))
    return entropy(np.linalg.eigvalsh(red))


def purity(rho) -> np.ndarray:
    return np.sum(np.abs(rho) ** 2, axis=(-2, -1))


def _psd_sqrt(m) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def concurrence(rho) -> np.ndarray:
    """Wootters concurrence from the singular values of sqrt(rho) sqrt(rho~)."""
    flipped = _YY @ rho.conj() @ _YY
    mu = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(flipped), compute_uv=False)
    return np.maximum(0.0, mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])


def stationary_entropy(R, alpha):
    return spin1_entropy(ness_two_spin(np.asarray(R, float), alpha))


def _golden_max(f, lo, hi, tol):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def argmax_rate(f_batch, lo: float, hi: float, tol: float) -> float:
    """Location of the maximum of f over [lo, hi]: a 1025-point log scan,
    then golden section on scalars to tol/20 around the best probe."""
    xs = np.geomspace(lo, hi, 1025)
    i = int(np.argmax(f_batch(xs)))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    return _golden_max(lambda x: float(f_batch(np.array([x]))[0]), a, b, tol / 20)


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds

def _grid(lo, hi, n, log):
    return np.geomspace(lo, hi, n) if log else np.linspace(lo, hi, n)


def _parse_rows(text: str, fmt: str) -> list[dict]:
    lines = text.splitlines()
    if fmt == "jsonl":
        return [json.loads(line) for line in lines]
    header = lines[0].split(",")
    if header != ["r", "alpha", "t", "entropy", "fidelity", "purity", "concurrence"]:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return [{k: float(v) for k, v in zip(header, line.split(",")) if v != ""}
            for line in lines[1:]]


def _compare(problems, what, got, want, atol):
    err = np.abs(np.asarray(got, float) - np.asarray(want, float))
    if not np.all(err <= atol):
        problems.append(f"{what}: max deviation {np.max(err):.3e} > {atol:.0e}")


def _columns(rows, names):
    try:
        return {n: np.array([row[n] for row in rows], dtype=float) for n in names}
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None


def check_sweep(chk, text):
    rs = _grid(*chk["r"], log=True)
    alphas = _grid(*chk["alpha"], log=False)
    rows = _parse_rows(text, chk["format"])
    if len(rows) != len(rs) * len(alphas):
        return [f"expected {len(rs) * len(alphas)} rows, got {len(rows)}"]
    fields = ("r", "alpha", "entropy", "fidelity", "purity", "concurrence")
    col = _columns(rows, fields)
    R = np.tile(rs, len(alphas))
    A = np.repeat(alphas, len(rs))
    rho = ness_two_spin(R, A)
    problems = []
    _compare(problems, "r", col["r"], R, ARG_ATOL * np.maximum(R, 1.0))
    _compare(problems, "alpha", col["alpha"], A, ARG_ATOL * np.maximum(A, 1.0))
    _compare(problems, "entropy", col["entropy"], spin1_entropy(rho), VALUE_ATOL)
    _compare(problems, "fidelity", col["fidelity"], rho[:, _DD, _DD].real, VALUE_ATOL)
    _compare(problems, "purity", col["purity"], purity(rho), VALUE_ATOL)
    _compare(problems, "concurrence", col["concurrence"], concurrence(rho), VALUE_ATOL)
    return problems


def check_timeseries(chk, text):
    ts = _grid(*chk["t"], log=False)
    rows = _parse_rows(text, chk.get("format", "csv"))
    if len(rows) != len(ts):
        return [f"expected {len(ts)} rows, got {len(rows)}"]
    col = _columns(rows, ("t",) + tuple(chk["observables"]))
    rho = reset_two_spin(chk["R"], chk["alpha"], ts)
    problems = []
    _compare(problems, "t", col["t"], ts, ARG_ATOL * np.maximum(ts, 1.0))
    _compare(problems, "entropy", col["entropy"], spin1_entropy(rho), VALUE_ATOL)
    if "fidelity" in chk["observables"]:
        _compare(problems, "fidelity", col["fidelity"], rho[:, _DD, _DD].real, VALUE_ATOL)
    return problems


def _check_argmax(chk, report, f_batch, value_key):
    problems = []
    if report.get("flag") != "interior":
        problems.append(f"flag {report.get('flag')!r}, expected 'interior'")
    r_ref = argmax_rate(f_batch, *chk["bounds"], chk["tol"])
    if not abs(report["r_star"] - r_ref) <= chk["tol"]:
        problems.append(f"r_star {report['r_star']!r} vs reference {r_ref!r} "
                        f"beyond tol {chk['tol']}")
    _compare(problems, value_key, report[value_key],
             f_batch(np.array([report["r_star"]]))[0], VALUE_ATOL)
    return problems


def check_optimize(chk, text):
    report = json.loads(text)
    return _check_argmax(
        chk, report, lambda r: concurrence(ness_two_spin(r, chk["alpha"])), "c_star")


def check_peak_r(chk, text):
    report = json.loads(text)
    return _check_argmax(
        chk, report,
        lambda r: spin1_entropy(reset_two_spin(r, chk["alpha"], chk["t"])), "s_star")


def _slope_curvature(r, a):
    def s(alpha):
        return float(stationary_entropy(np.array(r), alpha))

    def central(h):
        return (s(a + h) - s(a - h)) / (2 * h)

    def second(h):
        return (s(a + h) - 2 * s(a) + s(a - h)) / (h * h)

    slope = (4 * central(0.5e-5) - central(1e-5)) / 3
    curvature = (4 * second(0.5e-3) - second(1e-3)) / 3
    return slope, curvature


def check_critical(chk, text):
    report = json.loads(text)
    r_lo, r_hi, a_lo, a_hi = chk["box"]
    problems = []
    if not (r_lo <= report["r_c"] <= r_hi and a_lo <= report["alpha_c"] <= a_hi):
        problems.append(f"critical point ({report['r_c']}, {report['alpha_c']}) "
                        "outside its box")
    for key in ("residual_slope", "residual_curvature"):
        if not abs(report[key]) <= CRIT_ATOL:
            problems.append(f"reported {key} {report[key]!r} > {CRIT_ATOL:.0e}")
    slope, curvature = _slope_curvature(report["r_c"], report["alpha_c"])
    if not (abs(slope) <= CRIT_ATOL and abs(curvature) <= CRIT_ATOL):
        problems.append(f"reference slope {slope:.3e} / curvature {curvature:.3e} "
                        f"at the point exceed {CRIT_ATOL:.0e}")
    return problems


def check_mc(chk, text):
    report = json.loads(text)
    problems = []
    if report.get("passed") is not True:
        problems.append(f"passed is {report.get('passed')!r}")
    if not (0.0 <= report["max_std_dev"] <= chk["threshold"]):
        problems.append(f"max_std_dev {report['max_std_dev']!r} beyond threshold")
    expect = {"n_traj": chk["ntraj"], "compared_to": chk["against"],
              "threshold": chk["threshold"]}
    for key, want in expect.items():
        if report.get(key) != want:
            problems.append(f"{key} {report.get(key)!r}, expected {want!r}")
    for key, want in (("R", chk["R"]), ("alpha", chk["alpha"]), ("t", chk["t"])):
        if not abs(report[key] - want) <= ARG_ATOL * max(abs(want), 1.0):
            problems.append(f"{key} {report[key]!r}, expected {want!r}")
    return problems


def ising_chain(L: int, J: float, h: float) -> np.ndarray:
    """Periodic transverse-field Ising Hamiltonian
    -J sum_i Z_i Z_{i+1} - h sum_i X_i, spin 0 slowest."""
    d = 2**L
    states = np.arange(d)
    bits = (states[:, None] >> (L - 1 - np.arange(L))[None, :]) & 1
    z = 1.0 - 2.0 * bits  # Z eigenvalue of each spin
    diag = -J * np.sum(z * np.roll(z, -1, axis=1), axis=1)
    H = np.diag(diag).astype(complex)
    for i in range(L):
        H[states, states ^ (1 << (L - 1 - i))] -= h
    return H


def product_state(L: int, theta: float, phi: float) -> np.ndarray:
    """|psi><psi| for L spins each in cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    one = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    psi = np.ones(1, dtype=complex)
    for _ in range(L):
        psi = np.kron(psi, one)
    return np.outer(psi, psi.conj())


def ness_generic(h: np.ndarray, rho0: np.ndarray, r: float) -> np.ndarray:
    """Stationary state of a generic system, energy pairs closer than
    DEGENERATE_RTOL * |H|_F taking the frozen (degenerate) branch."""
    e, v = np.linalg.eigh(h)
    omega = e[:, None] - e[None, :]
    factor = np.where(np.abs(omega) > DEGENERATE_RTOL * np.linalg.norm(h),
                      r / (r + 1j * omega), 1.0)
    return v @ ((v.conj().T @ rho0 @ v) * factor) @ v.conj().T


def check_generic(chk, text):
    L = chk["L"]
    h = ising_chain(L, chk["J"], chk["h"])
    rho0 = product_state(L, chk["theta"], chk["phi"])
    rho = ness_generic(h, rho0, chk["r"])
    report = json.loads(text)
    problems = []
    if report.get("dim") != 2**L:
        problems.append(f"dim {report.get('dim')!r}, expected {2**L}")
        return problems
    pairs = np.asarray(report["ness_matrix"], dtype=float)
    got = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(rho.shape)
    _compare(problems, "ness_matrix", np.abs(got - rho), 0.0, VALUE_ATOL)
    _compare(problems, "rate", report["rate"], chk["r"], 0.0)
    _compare(problems, "purity", report["purity"], purity(rho), VALUE_ATOL)
    psi_w, psi_v = np.linalg.eigh(rho0)
    psi = psi_v[:, -1]
    _compare(problems, "fidelity_rho0", report["fidelity_rho0"],
             (psi.conj() @ rho @ psi).real, VALUE_ATOL)
    da, db = chk["split"]
    red = np.einsum("iaja->ij", rho.reshape(da, db, da, db))
    _compare(problems, "entropy_subsystem_a", report["entropy_subsystem_a"],
             entropy(np.linalg.eigvalsh(red)), VALUE_ATOL)
    return problems


CHECKS = {
    "sweep": check_sweep,
    "timeseries": check_timeseries,
    "optimize": check_optimize,
    "peak-r": check_peak_r,
    "critical": check_critical,
    "mc-validate": check_mc,
    "generic-ness": check_generic,
}


def check_output(chk: dict, text: str) -> list[str]:
    """Problems with one job's output; an unparseable output is a problem."""
    try:
        return CHECKS[chk["kind"]](chk, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
