"""Stochastic-trajectory estimator for the resetting dynamics.

Each trajectory evolves unitarily from the initial pure state and restarts
from it at Poisson times.  Resets erase history, so the state at t_final is
exp(-iH tau)|psi0> with tau the age of the last reset (t_final when there
was none).  By time reversal of the Poisson process, tau is distributed as
min(Exp(rate), t_final): the estimator draws that age directly instead of
the whole event list, so its cost per trajectory does not grow with
rate * t_final.  Ensemble-averaging the projectors |psi><psi| gives an
unbiased estimate of the renewal density matrix, which validates the
spectral engine without sharing any of its algebra.  The literal sampler
(``sample_reset_times`` and ``evolve_trajectory``) stays as the oracle the
tests check the age sampler and the estimator against.

Reproducibility contract: trajectories run in chunks of ``_CHUNK``.  Chunk
k draws all ``_CHUNK`` of its ages from one generator seeded by
(master_seed, k) and uses the first ones it needs, so trajectory i depends
only on (master_seed, i // _CHUNK, i % _CHUNK), an n-trajectory ensemble
is a prefix of every larger one, and results are bit-identical for a given
config.  A zero rate or a zero t_final draws nothing.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .reset_core import QuantumSystem

_CHUNK = 1024
# Largest (m, d, d) complex block of projectors formed at once; at least
# one projector per block, so d = 1024 takes 16 MB.
_BLOCK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class TrajectoryConfig:
    n_traj: int
    master_seed: int
    t_final: float
    rate: float

    def __post_init__(self):
        # one sample has no standard error
        if self.n_traj < 2:
            raise ValueError(f"n_traj must be >= 2 for a standard error, got {self.n_traj}")
        if self.master_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.master_seed}")
        if not np.isfinite(self.t_final) or self.t_final < 0:
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class TrajectoryEstimate:
    """Ensemble mean of |psi><psi| with per-entry standard errors.

    ``stderr_re`` and ``stderr_im`` hold the standard errors of the real
    and imaginary parts separately (sample std / sqrt(n_traj)).
    """

    rho_hat: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    n_traj: int


def sample_reset_times(rate: float, t_final: float, stream: np.random.Generator):
    """Poisson-process event times in (0, t_final), ascending.

    Inter-arrival gaps are exponential with mean 1/rate; a zero rate gives
    no events.
    """
    if rate < 0 or t_final < 0:
        raise ValueError("rate and t_final must be >= 0")
    if rate == 0.0 or t_final == 0.0:
        return np.empty(0, dtype=float)
    mean_count = rate * t_final
    chunk = max(16, int(mean_count + 4.0 * np.sqrt(mean_count) + 1))
    times = np.cumsum(stream.exponential(scale=1.0 / rate, size=chunk))
    while times[-1] < t_final:
        extra = stream.exponential(scale=1.0 / rate, size=chunk)
        times = np.concatenate([times, times[-1] + np.cumsum(extra)])
    return times[times < t_final]


def _pure_state_of(sys: QuantumSystem) -> np.ndarray:
    """|psi0> of a pure rho0: the last column of its factor, the only one
    for a rank-one rho0 and otherwise that of the largest eigenvalue, whose
    squared norm it is to round-off; reject mixed initial states."""
    psi = sys.rho0_factor[:, -1]
    largest = float(np.vdot(psi, psi).real)
    if largest < 1.0 - 1e-12:
        raise ValueError(
            f"trajectory protocol needs a pure rho0 (largest eigenvalue {largest})"
        )
    return psi


def evolve_trajectory(sys: QuantumSystem, resets, t_final: float) -> np.ndarray:
    """Final state of one trajectory with the given reset times.

    Resets erase history, so only the segment after the last reset matters:
    |psi(t_final)> = exp(-iH (t_final - t_last)) |psi(0)>.
    """
    if not np.isfinite(t_final) or t_final < 0:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    resets = np.asarray(resets, dtype=float)
    if resets.size and (np.any(np.diff(resets) <= 0) or resets[0] <= 0
                        or resets[-1] >= t_final):
        raise ValueError("reset times must be ascending within (0, t_final)")
    psi0 = _pure_state_of(sys)
    tau = t_final - (float(resets[-1]) if resets.size else 0.0)
    energies, v = sys.eigensystem
    psi = v @ ((v.conj().T @ psi0) * np.exp(-1j * energies * tau))
    return psi / np.linalg.norm(psi)


def reset_age_chunks(cfg: TrajectoryConfig) -> Iterator[np.ndarray]:
    """Ages of the last reset at cfg.t_final of trajectories 0 .. n_traj-1,
    one array per chunk of ``_CHUNK`` (see the reproducibility contract)."""
    for k, start in enumerate(range(0, cfg.n_traj, _CHUNK)):
        m = min(_CHUNK, cfg.n_traj - start)
        if cfg.rate == 0.0 or cfg.t_final == 0.0:
            yield np.full(m, cfg.t_final)
            continue
        stream = np.random.default_rng([cfg.master_seed, k])
        ages = stream.exponential(1.0 / cfg.rate, _CHUNK)
        yield np.minimum(ages, cfg.t_final)[:m]


def density_from_ages(sys: QuantumSystem, age_chunks: Iterable) -> TrajectoryEstimate:
    """Ensemble mean of the projectors of exp(-iH tau)|psi0> over the ages
    tau, given as an iterable of 1-d arrays.

    The ages are taken in blocks of up to ``_CHUNK``, fewer where the
    (m, d, d) projectors of a block would exceed ``_BLOCK_BYTES``; the
    blocks reuse one buffer.  Entries that are deterministic (e.g. a zero
    rate) come back with exactly zero standard error.
    """
    psi0 = _pure_state_of(sys)
    energies, v = sys.eigensystem
    # |psi0>'s energy coefficients folded into the eigenvectors: a block's
    # states are the one product exp(-i E tau) @ w
    w = (v * (v.conj().T @ psi0)).T
    d = sys.dim
    rows = min(_CHUNK, max(1, _BLOCK_BYTES // (16 * d * d)))
    buf = np.empty((rows, d, d), dtype=complex)

    # Accumulate deviations from the first sample: sums of (x - shift) and
    # (x - shift)^2 stay free of the catastrophic cancellation the plain
    # sum-of-squares formula hits when the spread is tiny (zero-rate runs
    # must come back with exactly zero variance).
    shift = None
    total_dev = np.zeros(d * d, dtype=complex)
    # squared real and imaginary parts, interleaved as in a complex array
    total_sq = np.zeros(2 * d * d, dtype=float)
    n = 0
    for ages in age_chunks:
        ages = np.asarray(ages, dtype=float)
        for start in range(0, ages.size, rows):
            tau = ages[start:start + rows]
            m = tau.size
            psi = np.exp(np.multiply.outer(tau, -1j * energies)) @ w
            parts = psi.view(float)
            psi /= np.sqrt(np.einsum("ij,ij->i", parts, parts))[:, None]
            dev = np.multiply(psi[:, :, None], psi.conj()[:, None, :], out=buf[:m])
            if shift is None:
                shift = dev[0].copy()
            dev -= shift
            # each sum is one contiguous pass over the block's (m, d^2) or
            # (m, 2 d^2) view
            flat = dev.reshape(m, d * d)
            total_dev += np.einsum("ij->j", flat)
            parts = flat.view(float)
            total_sq += np.einsum("ij,ij->j", parts, parts)
            n += m
    if n == 0:
        raise ValueError("no ages to average over")

    mean_dev = total_dev.reshape(d, d) / n
    rho_hat = shift + mean_dev
    if n > 1:
        total_sq_re = total_sq[0::2].reshape(d, d)
        total_sq_im = total_sq[1::2].reshape(d, d)
        var_re = np.clip(total_sq_re / n - mean_dev.real**2, 0.0, None) * n / (n - 1)
        var_im = np.clip(total_sq_im / n - mean_dev.imag**2, 0.0, None) * n / (n - 1)
        stderr_re = np.sqrt(var_re / n)
        stderr_im = np.sqrt(var_im / n)
    else:
        stderr_re = np.zeros((d, d), dtype=float)
        stderr_im = np.zeros((d, d), dtype=float)
    return TrajectoryEstimate(
        rho_hat=rho_hat, stderr_re=stderr_re, stderr_im=stderr_im, n_traj=n
    )


def estimate_density(sys: QuantumSystem, cfg: TrajectoryConfig) -> TrajectoryEstimate:
    """Monte Carlo estimate of the renewal density matrix at t_final.

    Averages |psi><psi| over cfg.n_traj independent trajectories, each
    evolved for its age of the last reset (see ``reset_age_chunks``).
    """
    return density_from_ages(sys, reset_age_chunks(cfg))
