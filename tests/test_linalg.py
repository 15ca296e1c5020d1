import math

import numpy as np
import pytest

from fpbprobe import linalg
from fpbprobe.discrimination import DiscriminationConfig, Povm, build_povm
from fpbprobe.uncertainty import naimark_basis, overlap_matrix


class TestStructureChecks:
    """Unitarity through linalg; positivity through Povm.psd_floor and the Born rule."""

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

    def test_as_matrix_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            linalg.as_matrix(np.ones(3))
        with pytest.raises(ValueError, match="outside"):
            linalg.as_matrix(np.eye(5))

    def test_unitary_requires_square(self):
        with pytest.raises(ValueError):
            linalg.is_unitary(np.ones((2, 3)))

    def test_zero_matrix_is_psd(self):
        zero = np.zeros((2, 2))
        assert Povm(zero, zero, zero).psd_floor() == 0.0
        povm = build_povm(DiscriminationConfig(0.3, 0.2))
        np.testing.assert_allclose(sum(np.trace(m @ np.diag([1.0, 0.0])).real for m in povm.elements), 1.0, atol=1e-12)

    def test_indefinite_diag_is_not_psd(self):
        zero = np.zeros((2, 2))
        assert Povm(np.diag([1.0, -1.0]), zero, zero).psd_floor() == pytest.approx(-1.0, abs=1e-15)

    def test_inconclusive_element_is_psd(self):
        povm = build_povm(DiscriminationConfig(theta=math.pi / 12, phi=math.pi / 6 - math.pi / 12))
        assert povm.psd_floor() >= -1e-10

    def test_psd_rejects_non_hermitian(self):
        # eigvalsh reads one triangle only: without the check this element passes with floor 0.
        zero = np.zeros((2, 2))
        with pytest.raises(ValueError, match="Hermitian"):
            Povm(np.array([[0.0, 1.0], [0.0, 0.0]]), zero, zero).psd_floor()

    def test_psd_rejects_non_finite(self):
        zero = np.zeros((2, 2))
        with pytest.raises(ValueError, match="finite"):
            Povm(np.array([[math.nan, 0.0], [0.0, 1.0]]), zero, zero).psd_floor()
