import math
import tracemalloc

import numpy as np
import pytest
from helpers import two_spin_system
from scipy import stats

from qreset.reset_core import QuantumSystem, ResetSpec, reset_density, unitary_evolve
from qreset.trajectories import (
    TrajectoryConfig,
    density_from_ages,
    estimate_density,
    evolve_trajectory,
    reset_age_chunks,
    sample_reset_times,
)

MC_SEED = 20240817
# One estimate's error at a single seed scatters by tens of percent, enough
# to move a three-point slope fit out of its window about half the time; the
# mean error over these seeds pins the slope to a few hundredths.
SLOPE_SEEDS = range(MC_SEED, MC_SEED + 32)


def random_pure_system(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return QuantumSystem((a + a.conj().T) / 2, np.outer(psi, psi.conj()))


def ages_of(cfg):
    return np.concatenate(list(reset_age_chunks(cfg)))


def oracle_ages(rate, t_final, n, seed):
    """Ages of the last reset read off the literal Poisson event lists."""
    ages = np.empty(n)
    for i in range(n):
        times = sample_reset_times(rate, t_final, np.random.default_rng([seed, i]))
        ages[i] = t_final - times[-1] if times.size else t_final
    return ages


def averaged_slope(estimate, exact, ns):
    """Fitted slope of log10 of the mean over SLOPE_SEEDS of
    max|rho_hat - exact| against log10 n, and the mean errors."""
    devs = [np.mean([np.abs(estimate(n, seed).rho_hat - exact).max()
                     for seed in SLOPE_SEEDS]) for n in ns]
    return np.polyfit(np.log10(ns), np.log10(devs), 1)[0], devs


class TestSampleResetTimes:
    def test_zero_rate_gives_no_events(self):
        rng = np.random.default_rng(0)
        assert sample_reset_times(0.0, 100.0, rng).size == 0

    def test_ascending_within_window(self):
        rng = np.random.default_rng(1)
        times = sample_reset_times(2.0, 50.0, rng)
        assert np.all(np.diff(times) > 0)
        assert times[0] > 0 and times[-1] < 50.0

    def test_poisson_count(self):
        rng = np.random.default_rng(2)
        times = sample_reset_times(2.0, 1000.0, rng)
        mean, sigma = 2000.0, np.sqrt(2000.0)
        assert abs(times.size - mean) < 3 * sigma

    def test_gaps_are_exponential(self):
        rate = 3.0
        rng = np.random.default_rng(3)
        # one long realization with ~1e5 events
        times = sample_reset_times(rate, 110_000.0 / rate, rng)
        assert times.size > 100_000
        gaps = np.diff(times[:100_001])
        result = stats.kstest(gaps, "expon", args=(0.0, 1.0 / rate))
        assert result.pvalue > 0.01

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            sample_reset_times(-1.0, 1.0, np.random.default_rng(0))


class TestEvolveTrajectory:
    def test_no_resets_is_plain_evolution(self):
        sys = two_spin_system()
        psi = evolve_trajectory(sys, [], 2.0)
        rho = np.outer(psi, psi.conj())
        assert np.abs(rho - unitary_evolve(sys, 2.0)).max() < 1e-12

    def test_unit_norm(self):
        sys = two_spin_system()
        for t in (0.0, 1.3, 9.0):
            psi = evolve_trajectory(sys, [], t)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_reset_just_before_end_restores_initial_state(self):
        sys = two_spin_system()
        psi = evolve_trajectory(sys, [2.0 - 1e-12], 2.0)
        overlap = abs(np.vdot(psi, np.array([0, 0, 0, 1.0])))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_only_last_segment_matters(self):
        sys = two_spin_system()
        tau = 0.8
        psi = evolve_trajectory(sys, [0.3, 1.1, 3.0 - tau], 3.0)
        expected = unitary_evolve(
            QuantumSystem(sys.hamiltonian, sys.rho0), tau
        )
        # global-phase-free comparison through the projector
        rho = np.outer(psi, psi.conj())
        assert np.abs(rho - expected).max() < 1e-12

    def test_phase_free_overlap_with_engine(self):
        sys = two_spin_system(alpha=2.0)
        tau = 1.7
        psi = evolve_trajectory(sys, [5.0 - tau], 5.0)
        w, v = sys.eigensystem
        psi_exact = v @ ((v.conj().T @ np.array([0, 0, 0, 1.0 + 0j]))
                         * np.exp(-1j * w * tau))
        assert abs(abs(np.vdot(psi, psi_exact)) - 1.0) < 1e-12

    def test_rejects_mixed_initial_state(self):
        sys = QuantumSystem(np.eye(2, dtype=complex), np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            evolve_trajectory(sys, [], 1.0)

    def test_pure_state_is_the_largest_column_of_the_factor(self):
        # purity rule: largest eigenvalue of rho0 at least 1 - 1e-12
        h = np.diag([1.0, -1.0]).astype(complex)
        nearly = QuantumSystem(h, np.diag([1e-13, 1.0 - 1e-13]).astype(complex))
        assert nearly.rho0_factor.shape == (2, 2)
        psi = evolve_trajectory(nearly, [], 0.0)
        assert psi[0] == 0.0 and abs(abs(psi[1]) - 1.0) < 1e-15
        mixed = QuantumSystem(h, np.diag([1e-11, 1.0 - 1e-11]).astype(complex))
        with pytest.raises(ValueError, match=r"needs a pure rho0 \(largest eigenvalue 0\.99"):
            evolve_trajectory(mixed, [], 1.0)

    def test_rejects_unsorted_resets(self):
        sys = two_spin_system()
        with pytest.raises(ValueError):
            evolve_trajectory(sys, [1.0, 0.5], 2.0)
        with pytest.raises(ValueError):
            evolve_trajectory(sys, [2.5], 2.0)
        with pytest.raises(ValueError, match="^t_final must be finite and >= 0, got inf$"):
            evolve_trajectory(sys, [], math.inf)


class TestEstimateDensity:
    def test_zero_rate_is_exact_with_zero_variance(self):
        sys = two_spin_system()
        cfg = TrajectoryConfig(n_traj=50, master_seed=4, t_final=1.5, rate=0.0)
        est = estimate_density(sys, cfg)
        assert np.abs(est.rho_hat - unitary_evolve(sys, 1.5)).max() < 1e-12
        assert est.stderr_re.max() < 1e-15
        assert est.stderr_im.max() < 1e-15

    def test_samples_are_rank_one_projectors(self):
        # the age of trajectory 0 at seed 5: a config holds at least two
        sys = two_spin_system()
        cfg = TrajectoryConfig(n_traj=2, master_seed=5, t_final=2.0, rate=1.0)
        est = density_from_ages(sys, [ages_of(cfg)[:1]])
        assert est.n_traj == 1
        rho = est.rho_hat
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_mean_is_trace_one_hermitian(self):
        sys = two_spin_system()
        cfg = TrajectoryConfig(n_traj=5000, master_seed=6, t_final=3.0, rate=1.0)
        est = estimate_density(sys, cfg)
        assert abs(np.trace(est.rho_hat) - 1.0) < 1e-12
        assert np.linalg.norm(est.rho_hat - est.rho_hat.conj().T) < 1e-12

    def test_matches_exact_renewal_density(self):
        sys = two_spin_system()
        cfg = TrajectoryConfig(n_traj=20_000, master_seed=7, t_final=3.0, rate=1.0)
        est = estimate_density(sys, cfg)
        exact = reset_density(sys, ResetSpec(1.0), 3.0)
        dev_re = np.abs(est.rho_hat.real - exact.real)
        dev_im = np.abs(est.rho_hat.imag - exact.imag)
        assert np.all(dev_re <= 4.0 * np.maximum(est.stderr_re, 1e-12))
        assert np.all(dev_im <= 4.0 * np.maximum(est.stderr_im, 1e-12))

    def test_bit_identical_reproducibility(self):
        sys = two_spin_system()
        cfg = TrajectoryConfig(n_traj=3000, master_seed=8, t_final=2.0, rate=0.7)
        a = estimate_density(sys, cfg)
        b = estimate_density(sys, cfg)
        assert np.array_equal(a.rho_hat, b.rho_hat)
        assert np.array_equal(a.stderr_re, b.stderr_re)
        assert np.array_equal(a.stderr_im, b.stderr_im)

    def test_error_shrinks_with_ensemble_size(self):
        sys = two_spin_system()
        exact = reset_density(sys, ResetSpec(1.0), 3.0)

        def estimate(n, seed):
            cfg = TrajectoryConfig(n_traj=n, master_seed=seed, t_final=3.0, rate=1.0)
            return estimate_density(sys, cfg)

        slope, devs = averaged_slope(estimate, exact, (500, 5000, 50_000))
        assert devs[2] < devs[0]
        assert -0.65 <= slope <= -0.35

    def test_untruncated_ages_fail_the_slope_check(self):
        # negative control: ages drawn as Exp(rate) without the atom at
        # t_final estimate the stationary state, whose distance to the
        # finite-time state does not shrink with n
        sys = two_spin_system()
        exact = reset_density(sys, ResetSpec(1.0), 3.0)

        def estimate(n, seed):
            chunks = [np.random.default_rng([seed, k]).exponential(1.0, 1024)
                      [:min(1024, n - start)]
                      for k, start in enumerate(range(0, n, 1024))]
            return density_from_ages(sys, chunks)

        slope, _ = averaged_slope(estimate, exact, (500, 5000, 50_000))
        assert not -0.65 <= slope <= -0.35

    def test_zero_rate_stderr_is_exactly_zero(self):
        for sys in (two_spin_system(alpha=2.0), random_pure_system(8, 1)):
            for t in (0.0, 2.5):
                cfg = TrajectoryConfig(n_traj=2500, master_seed=9, t_final=t, rate=0.0)
                est = estimate_density(sys, cfg)
                assert not est.stderr_re.any() and not est.stderr_im.any()
        # t_final = 0 at a positive rate: every age is 0
        cfg = TrajectoryConfig(n_traj=2500, master_seed=9, t_final=0.0, rate=3.0)
        est = estimate_density(two_spin_system(), cfg)
        assert not est.stderr_re.any() and not est.stderr_im.any()
        assert np.abs(est.rho_hat - two_spin_system().rho0).max() < 1e-15

    @pytest.mark.parametrize("d, n", [(4, 2500), (256, 40)])
    def test_matches_literal_trajectories(self, d, n):
        sys = two_spin_system() if d == 4 else random_pure_system(d, 2)
        cfg = TrajectoryConfig(n_traj=n, master_seed=11, t_final=2.0, rate=1.3)
        rhos = []
        for tau in ages_of(cfg):
            resets = [cfg.t_final - tau] if tau < cfg.t_final else []
            psi = evolve_trajectory(sys, resets, cfg.t_final)
            rhos.append(np.outer(psi, psi.conj()))
        est = estimate_density(sys, cfg)
        assert np.abs(est.rho_hat - np.mean(rhos, axis=0)).max() <= 1e-12
        assert est.n_traj == n

    @pytest.mark.parametrize("d, rate, t_final, n", [(4, 1.0, 3.0, 3000), (4, 0.3, 1.2, 2500),
                                                     (8, 1.0, 3.0, 3000), (32, 0.8, 2.0, 600)])
    def test_matches_exactly_rounded_sums(self, d, rate, t_final, n):
        # the literal projectors of the same ages, each entry's mean and
        # sum of squared deviations taken by math.fsum; d = 32 splits each
        # chunk into blocks of 256 projectors
        sys = two_spin_system(alpha=0.7) if d == 4 else random_pure_system(d, 4)
        cfg = TrajectoryConfig(n_traj=n, master_seed=18, t_final=t_final, rate=rate)
        rhos = []
        for tau in ages_of(cfg):
            resets = [t_final - tau] if tau < t_final else []
            psi = evolve_trajectory(sys, resets, t_final)
            rhos.append(np.outer(psi, psi.conj()))
        rhos = np.array(rhos)
        mean, stderr = {}, {}
        for part, samples in (("re", rhos.real), ("im", rhos.imag)):
            mean[part], stderr[part] = np.empty((d, d)), np.empty((d, d))
            for i, j in np.ndindex(d, d):
                x = samples[:, i, j]
                mu = math.fsum(x) / n
                mean[part][i, j] = mu
                stderr[part][i, j] = math.sqrt(math.fsum((x - mu) ** 2) / (n - 1) / n)
        est = estimate_density(sys, cfg)
        # the estimator's projectors differ from the literal ones by a few
        # ulps: rho_hat is within 1e-15, each varying standard error within
        # 5e-14 relative (worst seen: 2.2e-16 and 9.5e-15, at d = 32)
        assert np.abs(est.rho_hat - (mean["re"] + 1j * mean["im"])).max() <= 1e-15
        for part, got in (("re", est.stderr_re), ("im", est.stderr_im)):
            ref = stderr[part]
            varies = ref > 1e-12
            # where an entry does not vary (the imaginary diagonal, and the
            # two-spin entries that stay real) every sample is round-off, and
            # so is each standard error
            assert np.all(np.abs(got - ref)[varies] <= 5e-14 * ref[varies])
            assert np.all(got[~varies] <= 1e-17) and np.all(ref[~varies] <= 1e-17)

    def test_large_dimension_stays_in_bounded_memory(self):
        # one (1024, d, d) block of projectors at d = 256 would take 1 GB;
        # the estimator forms them in blocks of about 4 MB
        sys = random_pure_system(256, 3)
        cfg = TrajectoryConfig(n_traj=4096, master_seed=12, t_final=2.0, rate=1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            est = estimate_density(sys, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        assert abs(np.trace(est.rho_hat) - 1.0) < 1e-12

    def test_rejects_bad_config(self):
        for n in (0, 1):
            with pytest.raises(ValueError,
                               match=f"^n_traj must be >= 2 for a standard error, got {n}$"):
                TrajectoryConfig(n_traj=n, master_seed=0, t_final=1.0, rate=1.0)
        with pytest.raises(ValueError):
            TrajectoryConfig(n_traj=10, master_seed=0, t_final=-1.0, rate=1.0)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TrajectoryConfig(n_traj=10, master_seed=-1, t_final=0.0, rate=0.0)

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
    def test_rejects_a_negative_or_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match=f"^rate must be finite and >= 0, got {rate}$"):
            TrajectoryConfig(n_traj=10, master_seed=0, t_final=1.0, rate=rate)

    @pytest.mark.parametrize("chunks", [[], [np.array([])], [np.array([]), np.array([])]])
    def test_no_ages_is_refused(self, chunks):
        with pytest.raises(ValueError, match="^no ages to average over$"):
            density_from_ages(two_spin_system(), chunks)


class TestResetAges:
    @pytest.mark.parametrize("rate, t_final", [(0.01, 2.0), (1.0, 0.7), (1.0, 3.0),
                                               (1.0, 6.0), (4.0, 25.0)])
    def test_matches_literal_event_lists(self, rate, t_final):
        # r*t from 0.02 to 100: the atom at t_final dominates, then vanishes;
        # at r*t = 6 one literal list outruns its first 16 gaps and draws more
        n = 3000
        cfg = TrajectoryConfig(n_traj=n, master_seed=13, t_final=t_final, rate=rate)
        result = stats.ks_2samp(ages_of(cfg), oracle_ages(rate, t_final, n, 14))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("rate, t_final", [(0.05, 2.0), (1.0, 1.5)])
    def test_atom_at_t_final(self, rate, t_final):
        n = 20_000
        cfg = TrajectoryConfig(n_traj=n, master_seed=15, t_final=t_final, rate=rate)
        ages = ages_of(cfg)
        assert np.all((ages >= 0.0) & (ages <= t_final))
        # a trajectory keeps tau = t_final exactly when its chunk's draw is
        # at least t_final
        draws = np.concatenate([
            np.random.default_rng([15, k]).exponential(1.0 / rate, 1024)
            for k in range(-(-n // 1024))])[:n]
        assert np.array_equal(ages == t_final, draws >= t_final)
        hits = int(np.count_nonzero(ages == t_final))
        assert stats.binomtest(hits, n, np.exp(-rate * t_final)).pvalue > 0.01

    def test_prefix_of_larger_ensembles(self):
        sys = two_spin_system()
        small = TrajectoryConfig(n_traj=1000, master_seed=16, t_final=3.0, rate=1.0)
        large = TrajectoryConfig(n_traj=5000, master_seed=16, t_final=3.0, rate=1.0)
        assert np.array_equal(ages_of(large)[:1000], ages_of(small))
        a = estimate_density(sys, small)
        b = density_from_ages(sys, [ages_of(large)[:1000]])
        assert np.array_equal(a.rho_hat, b.rho_hat)
        assert np.array_equal(a.stderr_re, b.stderr_re)

    def test_zero_rate_ages_are_t_final(self):
        cfg = TrajectoryConfig(n_traj=1500, master_seed=17, t_final=4.0, rate=0.0)
        assert [c.size for c in reset_age_chunks(cfg)] == [1024, 476]
        assert np.all(ages_of(cfg) == 4.0)

