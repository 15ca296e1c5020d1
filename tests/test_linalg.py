import math

import numpy as np
import pytest

from fpbprobe import linalg
from fpbprobe.probe import ProbeConfig, probe_geometry
from fpbprobe.discrimination import DiscriminationConfig, build_povm
from fpbprobe.uncertainty import naimark_basis, overlap_matrix

from conftest import haar_unitary


def gram2_eigs_oracle(m):
    """Quadratic-roots oracle for the eigenvalues of the 2x2 Gram of m."""
    g = m @ m.conj().T
    a, b = g[0, 0].real, g[1, 1].real
    c = g[0, 1]
    tr, det = a + b, a * b - (c * c.conjugate()).real
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


def power_iteration_norm(m, iters=2000):
    a = np.asarray(m, dtype=complex)
    g = a.conj().T @ a
    v = np.ones(g.shape[0], dtype=complex) / math.sqrt(g.shape[0])
    for _ in range(iters):
        w = g @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return math.sqrt(np.vdot(v, g @ v).real)


class TestInnerProduct:
    def test_probe_states_overlap_at_pe_02(self):
        g = probe_geometry(ProbeConfig(0.2))
        assert np.vdot(g.t_plus, g.t_minus).real == pytest.approx(0.4, abs=1e-14)

    def test_conjugate_symmetry(self, rng):
        # overlaps are inner products: swapping the two bases conjugates them
        for _ in range(20):
            gamma = rng.uniform(0.0, math.pi / 4)
            a = naimark_basis(gamma, rng.uniform(0, 2 * math.pi))
            b = naimark_basis(gamma, rng.uniform(0, 2 * math.pi))
            np.testing.assert_allclose(overlap_matrix(a, b), overlap_matrix(b, a).conj().T, atol=1e-12)


class TestSingularValues:
    """The leading singular value, `spectral_norm`, against closed-form oracles."""

    def test_identity(self):
        assert linalg.spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_scalar(self):
        w = 0.3 - 0.4j
        assert linalg.spectral_norm([[w]]) == pytest.approx(abs(w), abs=1e-15)

    def test_random_2x3_vs_quadratic_oracle(self, rng):
        for _ in range(50):
            m = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            expected = math.sqrt(max(gram2_eigs_oracle(m)[0], 0.0))
            assert linalg.spectral_norm(m) == pytest.approx(expected, abs=1e-10)

    def test_unitary_singular_values_are_one(self, rng):
        for _ in range(10):
            u = haar_unitary(3, rng)
            assert linalg.spectral_norm(u) == pytest.approx(1.0, abs=1e-10)


class TestSpectralNorm:
    def test_equals_max_singular_value(self, rng):
        for _ in range(20):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            gram_top = np.linalg.eigvalsh(m.conj().T @ m)[-1]
            assert linalg.spectral_norm(m) == pytest.approx(math.sqrt(gram_top))

    def test_against_power_iteration(self, rng):
        for shape in [(2, 2), (2, 3), (3, 3), (3, 2)]:
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert linalg.spectral_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-8)

    def test_submultiplicative(self, rng):
        for _ in range(20):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert linalg.spectral_norm(a @ b) <= linalg.spectral_norm(a) * linalg.spectral_norm(b) + 1e-12


class TestStructureChecks:
    def test_identity_is_unitary(self):
        assert linalg.is_unitary(np.eye(3))

    def test_scaled_identity_is_not(self):
        assert not linalg.is_unitary(2 * np.eye(2))

    def test_naimark_overlap_is_unitary(self, rng):
        for _ in range(5):
            gamma = rng.uniform(0.05, math.pi / 4)
            w = overlap_matrix(
                naimark_basis(gamma, rng.uniform(0, 2 * math.pi)),
                naimark_basis(gamma, rng.uniform(0, 2 * math.pi)),
            )
            assert linalg.is_unitary(w, tol=1e-10)

    def test_unitary_requires_square(self):
        with pytest.raises(ValueError):
            linalg.is_unitary(np.ones((2, 3)))

    def test_zero_matrix_is_psd(self):
        np.testing.assert_array_equal(linalg.hermitian_eigenvalues(np.zeros((2, 2))), [0.0, 0.0])

    def test_indefinite_diag_is_not_psd(self):
        assert linalg.hermitian_eigenvalues(np.diag([1.0, -1.0]))[-1] < 0.0

    def test_inconclusive_element_is_psd(self):
        povm = build_povm(DiscriminationConfig(theta=math.pi / 12, phi=math.pi / 6 - math.pi / 12))
        assert linalg.hermitian_eigenvalues(povm.m_inconclusive)[-1] >= -1e-10

    def test_psd_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianEigenvalues:
    def test_vs_lapack_oracle(self, rng):
        for n in (1, 2, 3):
            for _ in range(30):
                g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                h = g + g.conj().T
                expected = np.sort(np.linalg.eigvalsh(h))[::-1]
                np.testing.assert_allclose(linalg.hermitian_eigenvalues(h), expected, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))
