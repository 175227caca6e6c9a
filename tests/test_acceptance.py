"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines are emitted with capture suspended so they appear in any pytest
run.  The Monte Carlo criterion takes about 2 s (2-core x86-64 host,
Python 3.11, numpy 2.4); everything else completes in seconds.
"""

import numpy as np
import pytest

from qreset.observables import concurrence, concurrence_pure, purity
from qreset.reset_core import (
    ResetSpec,
    SubsystemSplit,
    ness_density,
    partial_trace,
    reset_density,
)
from qreset.sweep import find_inflection, optimize_concurrence, standardized_deviations
from qreset.trajectories import TrajectoryConfig, estimate_density
from qreset.twospin import (
    LN2,
    TwoSpinParams,
    concurrence_ness,
    entropy_ness,
    entropy_zero_reset,
    fidelity_ness,
    quantum_system,
    reduced_state_array,
    scaling_function,
)

SPLIT = SubsystemSplit(2, 2)
R_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0)
ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, 10.0)
T_GRID = (0.0, 0.3, 1.0, 3.0, 10.0)

MC_SEED = 20240817


@pytest.fixture
def reporter(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    class Reporter:
        def echo(self, text):
            if capman is not None:
                with capman.global_and_fixture_disabled():
                    print(text, flush=True)
            else:
                print(text, flush=True)

        def criterion(self, num, label, ok):
            line = f"\n[acceptance {num:>2}] {label}: {'PASS' if ok else 'FAIL'}"
            self.echo(line)
            assert ok, line

    return Reporter()


def params(R, alpha):
    return TwoSpinParams.from_dimensionless(R, alpha)


def reduced_matrix(t, p):
    # [[up, c], [c*, 1 - up]] of the transient closed form
    up, c = (x.item() for x in reduced_state_array(np.array(t), np.array(p.R), np.array(p.alpha)))
    return np.array([[up, c], [np.conj(c), 1.0 - up]])


def test_criterion_01_closed_form_engine_equivalence(reporter):
    worst = 0.0
    for R in R_GRID:
        for alpha in ALPHA_GRID:
            p = params(R, alpha)
            sys_ = quantum_system(p)
            spec = ResetSpec(p.r)
            for t in T_GRID:
                engine = partial_trace(reset_density(sys_, spec, t), SPLIT, "A")
                closed = reduced_matrix(t, p)
                worst = max(worst, float(np.abs(engine - closed).max()))
    reporter.criterion(
        1, f"closed-form/engine equivalence (worst {worst:.2e})", worst < 1e-10
    )


def test_criterion_02_entropy_limits(reporter):
    ok = abs(entropy_ness(params(1e-4, 0.0)) - LN2) < 1e-6
    ok &= entropy_zero_reset(0.0) == LN2
    for alpha, leading in ((1e-3, lambda a: a * a / 8.0),
                           (1e3, lambda a: 1.0 / (8.0 * a * a))):
        deficit = LN2 - entropy_zero_reset(alpha)
        ok &= abs(deficit - leading(alpha)) <= 1e-5 * deficit
    reporter.criterion(2, "entropy limits and expansions", ok)


def test_criterion_03_fidelity_values(reporter):
    ok = fidelity_ness(params(0.0, 0.0)) == 0.375
    p = params(1.0, 1.0)
    rho = ness_density(quantum_system(p), ResetSpec(1.0))
    engine_value = rho[3, 3].real
    ok &= abs(fidelity_ness(p) - engine_value) <= 1e-11
    ok &= abs(fidelity_ness(p) - 59.0 / 72.0) < 1e-14
    reporter.criterion(3, "fidelity closed-form and engine values", ok)


def test_criterion_04_purity_fidelity_identity(reporter):
    worst = 0.0
    for R in R_GRID:
        for alpha in ALPHA_GRID:
            p = params(R, alpha)
            rho = ness_density(quantum_system(p), ResetSpec(p.r))
            worst = max(worst, abs(purity(rho) - fidelity_ness(p)))
    reporter.criterion(4, f"purity equals fidelity (worst {worst:.2e})", worst <= 1e-10)


def test_criterion_05_concurrence_structure(reporter):
    ok = all(concurrence_ness(params(R, 0.0)) <= 1e-10 for R in R_GRID)
    for alpha in (1.0, 2.0, 5.0, 10.0):
        res = optimize_concurrence(alpha, 0.01, 10.0)
        edges = (
            concurrence_ness(params(0.01, alpha)),
            concurrence_ness(params(10.0, alpha)),
        )
        ok &= res.flag == "interior" and res.value > max(edges)
        if alpha == 10.0:
            ok &= 0.4 < res.value <= 0.5
    reporter.criterion(5, "concurrence nullity and interior peaks", ok)


def test_criterion_06_spinodal_point(reporter):
    cp = find_inflection()
    ok = abs(cp.r_c - 0.12) <= 0.01 and abs(cp.alpha_c - 1.27) <= 0.01
    ok &= cp.residuals[0] < 1e-7 and cp.residuals[1] < 1e-7
    reporter.criterion(
        6,
        f"inflection point ({cp.r_c:.4f}, {cp.alpha_c:.4f}), "
        f"residuals {cp.residuals[0]:.1e}/{cp.residuals[1]:.1e}",
        ok,
    )


def test_criterion_07_scaling_function(reporter):
    collapse_ok = all(
        abs(entropy_ness(params(1e-3, z / 1e-3)) - scaling_function(z)) <= 1e-3
        for z in (0.1, 1.0, 10.0)
    )
    reporter.echo(
        f"\n[acceptance  7a] scaling collapse: {'PASS' if collapse_ok else 'FAIL'}"
    )
    z = 1e-2
    small_ok = abs(scaling_function(z) - (LN2 - 8.0 * z**4)) < 1e-9
    reporter.echo(
        f"[acceptance  7b] small-z branch: {'PASS' if small_ok else 'FAIL'}"
    )
    # F = h ln2 - (1-h) log1p(-h) + h log1p(4z^2), h = 1/(2(1+4z^2)) ~ 1/(8z^2);
    # -(1-h) log1p(-h) = h + O(h^2), so F = h (1 + ln 8 + 2 ln z) + O(ln z / z^4)
    # = (ln z)/(4z^2) * [1 + (1 + ln 8)/(2 ln z)] + O(ln z / z^4) = two_term(z) + ...
    def two_term(z):
        return (2.0 * np.log(z) + 1.0 + np.log(8.0)) / (8.0 * z * z)

    ratio = scaling_function(50.0) / (np.log(50.0) / (4.0 * 50.0**2))
    ratio2 = scaling_function(50.0) / two_term(50.0)
    far = max(abs(scaling_function(z) / two_term(z) - 1.0) for z in (1e3, 1e8, 1e12))
    large_ok = abs(ratio2 - 1.0) <= 0.05 and far <= 1e-6
    reporter.echo(
        f"[acceptance  7c] large-z ratio at z=50 is {ratio:.4f} to the leading "
        f"form, {ratio2:.6f} to the two-term form (needs within 5% of 1); "
        f"worst two-term deviation at z=1e3..1e12 is {far:.1e} (needs <= 1e-6): "
        f"{'PASS' if large_ok else 'FAIL'}"
    )
    reporter.criterion(
        7, "scaling function", bool(collapse_ok and small_ok and large_ok)
    )


def test_criterion_08_monte_carlo_validation(reporter):
    p = params(1.0, 1.0)
    sys_ = quantum_system(p)
    ok = True
    for t, exact in (
        (3.0, reset_density(sys_, ResetSpec(1.0), 3.0)),
        (50.0, ness_density(sys_, ResetSpec(1.0))),
    ):
        cfg = TrajectoryConfig(n_traj=100_000, master_seed=MC_SEED,
                               t_final=t, rate=1.0)
        est = estimate_density(sys_, cfg)
        z_re, z_im = standardized_deviations(est, exact)
        ok &= float(max(z_re.max(), z_im.max())) <= 5.0
    # the error at one n is the mean over 32 master seeds: at a single seed
    # it scatters enough to move the fitted slope out of its window about
    # half the time, for a correct estimator
    exact3 = reset_density(sys_, ResetSpec(1.0), 3.0)
    devs = []
    for n in (1000, 10_000, 100_000):
        errs = []
        for seed in range(MC_SEED, MC_SEED + 32):
            cfg = TrajectoryConfig(n_traj=n, master_seed=seed, t_final=3.0, rate=1.0)
            est = estimate_density(sys_, cfg)
            errs.append(float(np.abs(est.rho_hat - exact3).max()))
        devs.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log10([1e3, 1e4, 1e5]), np.log10(devs), 1)[0])
    ok &= -0.6 <= slope <= -0.4
    reporter.criterion(8, f"Monte Carlo validation (error slope {slope:.2f})", ok)


def test_criterion_09_non_commuting_limits(reporter):
    sys_ = quantum_system(params(1.0, 1.0))
    w, v = sys_.eigensystem
    to_energy = lambda m: v.conj().T @ m @ v
    rho0_e = to_energy(sys_.rho0)
    off = ~np.eye(4, dtype=bool)
    ok = True
    for t in (1.0, 5.0, 25.0):
        rho_e = to_energy(reset_density(sys_, ResetSpec(0.0), t))
        ok &= float(np.abs(np.abs(rho_e[off]) - np.abs(rho0_e[off])).max()) < 1e-12
    tiny = 1e-8 * float(np.linalg.norm(sys_.hamiltonian))
    rho_e = to_energy(ness_density(sys_, ResetSpec(tiny)))
    ok &= float(np.abs(rho_e[off]).max()) <= 1e-7
    reporter.criterion(9, "non-commuting limits", ok)


def test_criterion_10_property_suites(reporter):
    rng = np.random.default_rng(99)

    def random_density(dim, rank=None):
        a = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(
            size=(dim, rank or dim)
        )
        rho = a @ a.conj().T
        return rho / np.trace(rho)

    def random_unitary(dim):
        q, r = np.linalg.qr(rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    ok = True
    # eigensolver reconstruction
    from qreset.cmatrix import hermitian_eig, hermitize, psd_sqrt

    for dim in (2, 4, 8):
        a = hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        w, v = hermitian_eig(a)
        ok &= np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-12 * np.linalg.norm(a)
        ok &= np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-12
    # PSD-sqrt reconstruction
    for _ in range(5):
        rho = random_density(4)
        s = psd_sqrt(rho)
        ok &= np.linalg.norm(s @ s - rho) <= 1e-11
    # local-unitary invariance of concurrence
    for _ in range(5):
        rho = random_density(4)
        u = np.kron(random_unitary(2), random_unitary(2))
        ok &= abs(
            concurrence(u @ rho @ u.conj().T).value - concurrence(rho).value
        ) <= 1e-9
    # separable-mixture nullity
    for _ in range(5):
        weights = rng.dirichlet(np.ones(4))
        rho = sum(
            w * np.kron(random_density(2), random_density(2)) for w in weights
        )
        ok &= concurrence(rho).value <= 1e-9
    # pure-state concurrence cross-check
    for _ in range(5):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        ok &= abs(concurrence(rho).value - concurrence_pure(rho, SPLIT)) <= 1e-9
    reporter.criterion(10, "named property suites", bool(ok))
