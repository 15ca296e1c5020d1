import math

import numpy as np
import pytest

from fpbprobe import linalg
from fpbprobe.discrimination import DiscriminationConfig, build_povm
from fpbprobe.uncertainty import naimark_basis, overlap_matrix


class TestStructureChecks:
    """Matrix shapes through linalg; positivity of build_povm's operators through eigvalsh and the Born rule.

    Unitarity is checked where it is needed, in zeta_coefficients (tests/test_uncertainty.py).
    """

    def test_naimark_overlap_is_unitary(self, rng):
        for _ in range(5):
            gamma = rng.uniform(0.05, math.pi / 4)
            w = overlap_matrix(
                naimark_basis(gamma, rng.uniform(0, 2 * math.pi)),
                naimark_basis(gamma, rng.uniform(0, 2 * math.pi)),
            )
            assert np.abs(w.conj().T @ w - np.eye(3)).max() <= 1e-10

    def test_as_matrix_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            linalg.as_matrix(np.ones(3))
        with pytest.raises(ValueError, match="outside"):
            linalg.as_matrix(np.eye(5))

    def test_zero_matrix_is_psd(self):
        povm = build_povm(DiscriminationConfig(0.3, 0.2))
        np.testing.assert_allclose(sum(np.trace(m @ np.diag([1.0, 0.0])).real for m in povm), 1.0, atol=1e-12)

    def test_inconclusive_element_is_psd(self):
        povm = build_povm(DiscriminationConfig(theta=math.pi / 12, phi=math.pi / 6 - math.pi / 12))
        assert np.linalg.eigvalsh(povm).min() >= -1e-10

