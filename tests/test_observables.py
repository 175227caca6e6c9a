import json
import pathlib

import numpy as np
import pytest

from qreset.cmatrix import PSD_CLIP_TOL, density_factor, psd_factor_stack
from qreset.observables import (
    concurrence,
    concurrence_factor_stack,
    concurrence_pure,
    concurrence_stack,
    fidelity,
    fidelity_factor_stack,
    fidelity_pure,
    purity,
    spin_flip,
    von_neumann_entropy,
)
from qreset.reset_core import ResetSpec, SubsystemSplit, ness_density, partial_trace
from qreset.twospin import TwoSpinParams, quantum_system

SPLIT = SubsystemSplit(2, 2)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
UP_UP = np.kron(UP, UP)
DOWN_DOWN = np.kron(DOWN, DOWN)
BELL = (UP_UP + DOWN_DOWN) / np.sqrt(2.0)


def projector(psi):
    return np.outer(psi, psi.conj())


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def ness_reduction(R, alpha):
    p = TwoSpinParams.from_dimensionless(R, alpha)
    rho = ness_density(quantum_system(p), ResetSpec(p.r))
    return partial_trace(rho, SPLIT, "A")


class TestEntropy:
    def test_pure_projector(self):
        assert von_neumann_entropy(projector(DOWN)) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(
            np.log(2.0), abs=1e-14
        )

    def test_ness_reduction_value(self):
        # compact stationary closed form at unit rate, no coupling
        assert von_neumann_entropy(ness_reduction(1.0, 0.0)) == pytest.approx(
            0.41649553069968745, abs=1e-4
        )

    def test_bounds_and_purity_link(self):
        rng = np.random.default_rng(31)
        for dim in (2, 4):
            for _ in range(10):
                rho = random_density(rng, dim)
                s = von_neumann_entropy(rho)
                assert 0.0 <= s <= np.log(dim) + 1e-12
            psi = random_pure(rng, dim)
            rho = projector(psi)
            assert purity(rho) == pytest.approx(1.0, abs=1e-12)
            assert von_neumann_entropy(rho) <= 1e-12
            mixed = random_density(rng, dim)
            if purity(mixed) < 1.0 - 1e-6:
                assert von_neumann_entropy(mixed) > 1e-6

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.eye(2, dtype=complex))


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            rho = random_density(rng, 4)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert fidelity(projector(UP), projector(DOWN)) == pytest.approx(0.0, abs=1e-14)

    def test_ness_against_initial_state(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        rho = ness_density(quantum_system(p), ResetSpec(1.0))
        # 1 - (1/2)(2/8) - (1/2)(1/9) = 59/72
        assert fidelity(rho, projector(DOWN_DOWN)) == pytest.approx(59.0 / 72.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            rho = random_density(rng, 4)
            sigma = random_density(rng, 4)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-11

    def test_pure_reference_consistency(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            rho = random_density(rng, 4)
            psi = random_pure(rng, 4)
            assert abs(fidelity(rho, projector(psi)) - fidelity_pure(rho, psi)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(2, dtype=complex) / 2, np.eye(4, dtype=complex) / 4)

    def test_stack_equals_one_by_one(self):
        rng = np.random.default_rng(35)
        rhos = np.array([random_density(rng, 8, rank) for rank in (1, 3, 8, 8)])
        sigmas = np.array([random_density(rng, 8, rank) for rank in (8, 2, 1, 8)])
        stacked = fidelity_factor_stack(rhos, psd_factor_stack(sigmas)[0])
        assert stacked.shape == (4,)
        assert stacked.tolist() == [fidelity(r, s) for r, s in zip(rhos, sigmas)]

    def test_stack_keeps_the_psd_check(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="not PSD"):
            fidelity_factor_stack(np.array([np.eye(2) / 2, bad]),
                                  psd_factor_stack(np.array([np.eye(2) / 2] * 2))[0])


class TestFidelityFactor:
    def test_trimmed_factor_equals_the_full_one(self):
        rng = np.random.default_rng(37)
        rhos = np.array([random_density(rng, 8, rank) for rank in (1, 3, 8)])
        for rank in (1, 2, 5):
            sigma = random_density(rng, 8, rank)
            _, f = density_factor(sigma)
            assert f.shape == (8, rank)
            full = fidelity_factor_stack(rhos, psd_factor_stack(sigma)[0])
            assert np.abs(fidelity_factor_stack(rhos, f) - full).max() <= 2e-15

    def test_pure_factor_is_the_expectation(self):
        rng = np.random.default_rng(38)
        rho = random_density(rng, 8, 3)
        psi = random_pure(rng, 8)
        assert abs(fidelity_factor_stack(rho, psi[:, None]) - fidelity_pure(rho, psi)) <= 4e-16

    def test_keeps_the_psd_check(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="not PSD"):
            fidelity_factor_stack(bad, np.eye(2) / np.sqrt(2))

    def test_pure_branch_is_the_real_part(self):
        # the real part of F^dagger rho F, bit for bit; it is also the one
        # eigenvalue of that 1 x 1 matrix, bit for bit
        rng = np.random.default_rng(39)
        rhos = np.array([random_density(rng, 8, rank) for rank in (1, 3, 8)])
        f = random_pure(rng, 8)[:, None]
        m = f.conj().T @ rhos @ f
        assert np.array_equal(fidelity_factor_stack(rhos, f), m[:, 0, 0].real)
        assert np.array_equal(np.linalg.eigvalsh(m)[:, 0], m[:, 0, 0].real)
        e0 = np.eye(2, dtype=complex)[:, :1]
        assert fidelity_factor_stack(np.diag([-0.5 * PSD_CLIP_TOL, 1.0]) + 0j, e0) == 0.0


class TestFidelityReference:
    """Fidelity against a frozen 50-digit reference
    (tests/data/make_fidelity_reference.py writes the data): pairs of every
    rank 1..d for d = 2, 4, 8, exactly of that rank before rounding, with
    rho = sigma and rho = 0.999 sigma + 0.001 tau among them, and four
    "spread" pairs whose F^dagger rho F has eigenvalues below 1e-14 of its
    largest, such as rho = diag(1 - 5e-14, 5e-14), sigma = diag(0.95, 0.05).

    The square roots of rho and sigma and one SVD of their product measured
    a worst error of 3.6e-15 (rho = sigma at d = 8).  The roots of the
    eigenvalues of F^dagger rho F, flattened below 1e-14 of the largest,
    lose the small terms of the spread pairs (1.3e-7).  The singular values
    of W^dagger F measure 1.3e-15."""

    DATA = pathlib.Path(__file__).parent / "data" / "fidelity_reference.json"

    def test_matches_the_50_digit_reference(self):
        rows = json.loads(self.DATA.read_text())["pairs"]
        assert len(rows) == 60
        assert sum(r["kind"] == "spread" for r in rows) == 4
        assert {(r["d"], r["rank_rho"]) for r in rows if r["kind"] == "rank_rho"} == {
            (d, k) for d in (2, 4, 8) for k in range(1, d + 1)}
        worst = 0.0
        for row in rows:
            d = row["d"]
            rho, sigma = (np.array(row[k]).view(complex).reshape(d, d) for k in ("rho", "sigma"))
            stacked = float(fidelity_factor_stack(rho, psd_factor_stack(sigma)[0]))
            assert stacked == fidelity(rho, sigma)
            worst = max(worst, abs(stacked - float(row["fidelity"])))
        assert worst <= 3.6e-15


class TestFidelityPure:
    def test_own_projector(self):
        rng = np.random.default_rng(35)
        psi = random_pure(rng, 4)
        assert fidelity_pure(projector(psi), psi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rng = np.random.default_rng(36)
        psi = random_pure(rng, 4)
        assert fidelity_pure(np.eye(4, dtype=complex) / 4, psi) == pytest.approx(
            0.25, abs=1e-14
        )

    def test_vanishing_rate_limit_value(self):
        # small-rate stationary state of the uncoupled pair approaches 3/8
        p = TwoSpinParams.from_dimensionless(1e-6, 0.0)
        rho = ness_density(quantum_system(p), ResetSpec(p.r))
        assert fidelity_pure(rho, DOWN_DOWN) == pytest.approx(3.0 / 8.0, abs=1e-5)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            fidelity_pure(np.eye(4, dtype=complex) / 4, 2.0 * UP_UP)

    def test_hermitian_to_round_off_gives_the_real_part(self):
        # rho is Hermitian only to about 1e-11, within HERMITICITY_RTOL, so
        # <psi|rho|psi> has an imaginary part of that size: it is dropped
        rng = np.random.default_rng(40)
        psi = random_pure(rng, 4)
        rho = random_density(rng, 4) + 1e-11j * projector(psi)
        value = psi.conj() @ rho @ psi
        assert abs(value.imag) > 1e-12
        assert fidelity_pure(rho, psi) == pytest.approx(value.real, abs=1e-15)


class TestPurity:
    def test_pure(self):
        assert purity(projector(BELL)) == pytest.approx(1.0, abs=1e-13)

    def test_maximally_mixed(self):
        assert purity(np.eye(2, dtype=complex) / 2) == pytest.approx(0.5, abs=1e-15)

    def test_equals_stationary_fidelity(self):
        from qreset.twospin import fidelity_ness

        for R in (0.1, 1.0, 4.0):
            for alpha in (0.0, 1.0, 3.0):
                p = TwoSpinParams.from_dimensionless(R, alpha)
                rho = ness_density(quantum_system(p), ResetSpec(p.r))
                assert abs(purity(rho) - fidelity_ness(p)) < 1e-10


class TestSpinFlip:
    def test_maximally_mixed_fixed(self):
        rho = np.eye(4, dtype=complex) / 4
        assert np.allclose(spin_flip(rho), rho, atol=1e-15)

    def test_bell_fixed(self):
        rho = projector(BELL)
        assert np.allclose(spin_flip(rho), rho, atol=1e-14)

    def test_down_down_flips_to_up_up(self):
        assert np.allclose(
            spin_flip(projector(DOWN_DOWN)), projector(UP_UP), atol=1e-15
        )

    def test_preserves_density_properties(self):
        rng = np.random.default_rng(37)
        rho = random_density(rng, 4)
        out = spin_flip(rho)
        assert np.linalg.norm(out - out.conj().T) < 1e-13
        assert abs(np.trace(out) - 1.0) < 1e-13
        assert np.linalg.eigvalsh(out)[0] > -1e-13

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            spin_flip(np.eye(2, dtype=complex) / 2)


class TestConcurrence:
    def test_bell_state(self):
        res = concurrence(projector(BELL))
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.mu == tuple(sorted(res.mu, reverse=True))

    def test_product_state(self):
        assert concurrence(projector(DOWN_DOWN)).value == pytest.approx(0.0, abs=1e-12)

    def test_uncoupled_stationary_state_is_classical(self):
        for R in (0.1, 1.0, 10.0):
            p = TwoSpinParams.from_dimensionless(R, 0.0)
            rho = ness_density(quantum_system(p), ResetSpec(p.r))
            assert concurrence(rho).value <= 1e-10

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(38)
        for _ in range(8):
            rho = random_density(rng, 4)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence(rotated).value - concurrence(rho).value) <= 1e-9

    def test_separable_mixtures_vanish(self):
        rng = np.random.default_rng(39)
        for _ in range(8):
            k = rng.integers(2, 6)
            weights = rng.dirichlet(np.ones(k))
            rho = np.zeros((4, 4), dtype=complex)
            for w in weights:
                rho += w * np.kron(random_density(rng, 2), random_density(rng, 2))
            assert concurrence(rho).value <= 1e-9

    def test_mu_invariant(self):
        rng = np.random.default_rng(40)
        res = concurrence(random_density(rng, 4))
        mu = np.array(res.mu)
        assert np.all(mu >= 0)
        assert res.value == pytest.approx(max(0.0, mu[0] - mu[1:].sum()), abs=1e-15)

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(2, dtype=complex) / 2)

    @staticmethod
    def textbook(rho):
        # Wootters: square roots of the eigenvalues of rho (S rho* S)
        flip = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
        lam = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
        mu = np.sort(np.sqrt(np.abs(lam)))[::-1]
        return max(0.0, mu[0] - mu[1] - mu[2] - mu[3])

    def test_matches_the_textbook_evaluation_on_random_mixed_states(self):
        rng = np.random.default_rng(42)
        states = [random_density(rng, 4) for _ in range(40)]
        # mixtures of a random pure state and noise, many of them entangled;
        # all of full rank, where the textbook roots carry no round-off noise
        for p in np.linspace(0.0, 0.95, 20):
            psi = random_pure(rng, 4)
            states.append(p * projector(psi) + (1.0 - p) * np.eye(4) / 4)
        values, mu = concurrence_stack(np.array(states))
        assert np.all(np.diff(mu, axis=-1) <= 0.0) and np.all(mu >= 0.0)
        expected = [self.textbook(rho) for rho in states]
        assert np.abs(values - expected).max() <= 1e-13
        assert np.count_nonzero(values) >= 10

    def test_werner_states(self):
        # p |Bell><Bell| + (1 - p) 1/4 has concurrence max(0, (3p - 1)/2)
        for p in np.linspace(0.0, 1.0, 11):
            rho = p * projector(BELL) + (1.0 - p) * np.eye(4) / 4
            assert concurrence(rho).value == pytest.approx(max(0.0, 1.5 * p - 0.5), abs=1e-15)

    def test_any_factor_of_a_state_gives_its_concurrence(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            rho = random_density(rng, 4, rank=int(rng.integers(1, 5)))
            u = random_unitary(rng, 4)
            # W and W u factor the same state; tau changes to u^T tau u
            lam, v = np.linalg.eigh(rho)
            w = v * np.sqrt(np.clip(lam, 0.0, None))
            values = [concurrence_factor_stack(x)[0] for x in (w, w @ u)]
            assert abs(values[0] - values[1]) <= 1e-14
            assert abs(values[0] - concurrence(rho).value) <= 1e-14


class TestConcurrencePure:
    def test_bell(self):
        assert concurrence_pure(projector(BELL), SPLIT) == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        assert concurrence_pure(projector(DOWN_DOWN), SPLIT) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_partially_entangled(self):
        theta = np.pi / 8.0
        psi = np.cos(theta) * UP_UP + np.sin(theta) * DOWN_DOWN
        c = concurrence_pure(projector(psi), SPLIT)
        assert c == pytest.approx(np.sin(2 * theta), abs=1e-12)
        assert abs(c - concurrence(projector(psi)).value) <= 1e-10

    def test_matches_general_formula_on_random_pure(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            rho = projector(random_pure(rng, 4))
            assert abs(
                concurrence(rho).value - concurrence_pure(rho, SPLIT)
            ) <= 1e-9

    def test_rejects_mixed(self):
        with pytest.raises(ValueError):
            concurrence_pure(np.eye(4, dtype=complex) / 4, SPLIT)
