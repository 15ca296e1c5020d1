"""Entropic uncertainty bounds for the three-outcome discrimination POVM.

The POVM is lifted to projective measurements on a qutrit via a family of
extensions carrying one free phase.  Overlap matrices between two
extensions yield measurement uncertainty bounds; optimizing the free
phases gives closed forms in eta = cos(2 gamma).  Submatrix spectral
norms of the optimized overlap matrix feed majorization bounds, and the
whole stack caps Eve's standard mutual information from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from .discrimination import OutcomeProbs, _measurement_vectors
from .entropy import (
    Distribution,
    Order,
    _float_or_array,
    binary_entropy,
    renyi_entropy,
    shannon_entropy,
)

TWO_PI = 2.0 * math.pi
DEFAULT_GRID = 720
DEFAULT_REFINE_TOL = 1e-8


@dataclass(frozen=True)
class NaimarkExtension:
    """Orthonormal qutrit basis whose first two coordinates carry the POVM.

    Rows of `basis` are the extended kets for the plus, minus, and
    inconclusive outcomes.  `phase` is the unitary freedom of the
    ancillary direction; it enters only the third components.
    """

    gamma: float
    phase: float
    basis: np.ndarray


@dataclass(frozen=True)
class MajorizationData:
    """Submatrix-norm coefficients and the probability vectors they induce.

    omega = (zeta_1, zeta_2 - zeta_1, ..., 1 - zeta_{d-1}) feeds the
    direct-sum bounds; omega_prime is built the same way from
    xi_k = (1 + zeta_k)^2 / 4 and feeds the tensor-product bounds.  For a
    stack of sequences zeta is an (..., d) array and the vectors stack too.
    """

    zeta: tuple[float, ...] | np.ndarray
    omega: Distribution
    omega_prime: Distribution


def _bases(gamma: float, phases) -> np.ndarray:
    """Extension bases at angle gamma over an array of phases, shape (..., 3, 3).

    Rows are (w_plus, w_minus, w_inconclusive); the phase enters only the
    third column, so a shift of both phases leaves every overlap modulus
    unchanged.
    """
    v, eta = _measurement_vectors(gamma)
    root = math.sqrt(1.0 + eta)
    e = np.exp(1j * np.asarray(phases, dtype=float))
    b = np.zeros(e.shape + (3, 3), dtype=complex)
    b[..., :2] = v / root
    b[..., :2, 2] = (math.sqrt(eta) / root) * e[..., None]
    b[..., 2, 2] = (-math.sqrt(1.0 - eta) / root) * e
    return b


def naimark_basis(gamma: float, phase: float = 0.0) -> NaimarkExtension:
    """Extension basis for the POVM at angle gamma, ancilla phase `phase`.

    gamma = 0 (eta = 1) is included so the eta grid can reach both ends.
    """
    if not (math.isfinite(gamma) and 0.0 <= gamma <= 0.25 * math.pi + 1e-12):
        raise ValueError(f"gamma {gamma} outside [0, pi/4]")
    if not math.isfinite(phase):
        raise ValueError("phase must be finite")
    phase = phase % TWO_PI
    return NaimarkExtension(gamma=gamma, phase=phase, basis=_bases(gamma, phase))


def overlap_matrix(e1: NaimarkExtension, e2: NaimarkExtension) -> np.ndarray:
    """Unitary matrix of overlaps <w_i(phase1)|w_j(phase2)>."""
    if abs(e1.gamma - e2.gamma) > 1e-12:
        raise ValueError("extensions must share the same gamma")
    return e1.basis.conj() @ e2.basis.T


def s_max(w) -> float:
    """Largest entry modulus."""
    return float(np.abs(linalg.as_matrix(w)).max())


def s_second(w) -> float:
    """Second largest entry modulus, duplicates counted."""
    mods = np.sort(np.abs(linalg.as_matrix(w)).ravel())
    if mods.size < 2:
        raise ValueError("s_second needs at least 2 entries")
    return float(mods[-2])


def optimize_s_max(
    eta: float,
    grid_points: int = DEFAULT_GRID,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> tuple[float, tuple[float, float]]:
    """Minimize the peak overlap over the two free extension phases.

    The overlap moduli depend only on the phase difference delta, so the
    search fixes the first phase at 0 and scans delta on grid_points
    points, then refines by 1-D descent down to a step of refine_tol.
    Returns the minimized peak overlap and the phase pair (0, delta*).
    The optimum certifies the closed form: it equals 1 / mu_factor(eta).
    """
    if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
        raise ValueError(f"eta {eta} outside [0, 1]")
    is_int = isinstance(grid_points, (int, np.integer)) and not isinstance(grid_points, bool)
    if not (is_int and grid_points >= 2):
        raise ValueError(f"grid_points must be an integer >= 2, got {grid_points!r}")
    if not (math.isfinite(refine_tol) and refine_tol > 0.0):
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol!r}")
    gamma = 0.5 * math.acos(min(eta, 1.0))
    origin = _bases(gamma, 0.0).conj()

    def peaks(deltas: np.ndarray) -> np.ndarray:
        overlaps = np.einsum("ik,njk->nij", origin, _bases(gamma, deltas))
        return np.abs(overlaps).max(axis=(1, 2))

    step = TWO_PI / grid_points
    grid = np.arange(grid_points) * step
    scan = peaks(grid)
    k = int(np.argmin(scan))
    best, best_val = float(grid[k]), float(scan[k])
    while step > refine_tol:
        trials = np.array([best + step, best - step])
        vals = peaks(trials)
        j = int(np.argmin(vals))
        if vals[j] < best_val - 1e-15:
            best, best_val = float(trials[j]), float(vals[j])
        else:
            step *= 0.5
    return best_val, (0.0, best % TWO_PI)


def _eta_array(eta) -> np.ndarray:
    e = np.asarray(eta, dtype=float)
    bad = ~(np.isfinite(e) & (e >= 0.0) & (e <= 1.0))
    if bad.any():
        raise ValueError(f"eta {e[bad][0]} outside [0, 1]")
    return e


def _mu(e: np.ndarray) -> np.ndarray:
    # Every branch is evaluated; the ones outside their range may divide by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            e <= 0.2,
            (1.0 + e) / (1.0 - e),
            np.sqrt(np.where(e <= 0.5, (2.0 - e) / (1.0 - e), (2.0 - e) / e)),
        )


def _zeta2(e: np.ndarray) -> np.ndarray:
    return np.where(
        e <= 0.2,
        np.sqrt(1.0 + 2.0 * e - 3.0 * e * e) / (1.0 + e),
        np.where(e <= 0.5, np.sqrt((2.0 - 2.0 * e) / (2.0 - e)), 1.0 / np.sqrt(2.0 - e)),
    )


def _zeta(e: np.ndarray) -> np.ndarray:
    return np.stack([1.0 / _mu(e), _zeta2(e), np.ones_like(e)], axis=-1)


def mu_factor(eta) -> float | np.ndarray:
    """Closed-form reciprocal of the optimized peak overlap.

    Three branches with knots at eta = 0.2 and eta = 0.5; adjacent
    branches agree at the knots.  Like every closed form in eta below,
    it accepts an array of eta values and returns an array.
    """
    return _float_or_array(_mu(_eta_array(eta)))


def mu_bound(eta) -> float | np.ndarray:
    """Lower bound 2 log2 mu_factor(eta) on conjugate-order entropy sums."""
    return _float_or_array(2.0 * np.log2(_mu(_eta_array(eta))))


def coles_piani_bound(eta) -> float | np.ndarray:
    """Improved Shannon-entropy lower bound for the POVM.

    log2 mu_factor(eta) plus a correction active only below eta = 0.2;
    the correction vanishes in the eta -> 0 limit and is taken as 0 at
    the knot itself.
    """
    e = _eta_array(eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = (e / (2.0 * (1.0 + e))) * np.log2((1.0 - e) / (4.0 * e))
    return _float_or_array(np.log2(_mu(e)) + np.where((e > 0.0) & (e < 0.2), correction, 0.0))


def zeta2_closed_form(eta) -> float | np.ndarray:
    """Closed form for the class-2 submatrix-norm coefficient."""
    return _float_or_array(_zeta2(_eta_array(eta)))


def zeta_closed_form(eta) -> tuple[float, float, float] | np.ndarray:
    """(zeta_1, zeta_2, zeta_3) of the phase-optimized overlap matrix.

    An array of eta values gives an (..., 3) array.
    """
    z = _zeta(_eta_array(eta))
    return tuple(z.tolist()) if z.ndim == 1 else z


@lru_cache(maxsize=None)
def _class_masks(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the r x r' submatrices with r + r' = k + 1, class by class.

    Returns an (n, d, d) boolean stack, classes k = 1..d in order, and
    the index where each class starts.  A submatrix zero-padded to d x d
    keeps its singular values, so one batched SVD covers every shape.
    """
    masks, starts = [], []
    for k in range(1, d + 1):
        starts.append(len(masks))
        for r in range(max(1, k + 1 - d), min(d, k) + 1):
            for rows in combinations(range(d), r):
                for cols in combinations(range(d), k + 1 - r):
                    m = np.zeros((d, d), dtype=bool)
                    m[np.ix_(rows, cols)] = True
                    masks.append(m)
    masks, starts = np.array(masks), np.array(starts)
    masks.flags.writeable = starts.flags.writeable = False  # shared by every caller
    return masks, starts


def zeta_coefficients(w, tol: float = 1e-8) -> np.ndarray:
    """Max spectral norm over submatrices of class k, for k = 1..d.

    Submatrices of class k are the r x r' blocks with r + r' = k + 1;
    enumeration is brute force (d <= 4) and all their norms come from
    one batched SVD.  Unitarity forces the last coefficient to 1.
    """
    mat = linalg.as_matrix(w)
    d = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("overlap matrix must be square")
    if not linalg.is_unitary(mat, tol=tol):
        raise ValueError("overlap matrix is not unitary within tolerance")
    masks, starts = _class_masks(d)
    norms = np.linalg.svd(np.where(masks, mat, 0.0), compute_uv=False)[:, 0]
    z = np.maximum.accumulate(np.minimum(np.maximum.reduceat(norms, starts), 1.0))
    if abs(z[-1] - 1.0) > tol:
        raise ValueError(f"zeta_d = {z[-1]} differs from 1; matrix not unitary enough")
    z[-1] = 1.0
    return z


def majorization_data(zeta) -> MajorizationData:
    """Probability vectors omega and omega_prime from a zeta sequence.

    A stack of sequences along the last axis gives stacked vectors.
    """
    z = np.asarray(zeta, dtype=float)
    if z.ndim < 1 or z.size < 1:
        raise ValueError("zeta must be a nonempty sequence")
    if not np.all(np.isfinite(z)):
        raise ValueError("zeta entries must be finite")
    if np.any(np.diff(z, axis=-1) < -1e-9):
        raise ValueError("zeta must be nondecreasing")
    last = np.abs(z[..., -1] - 1.0)
    if np.any(last > 1e-8):
        raise ValueError(f"last zeta must be 1, got {z[..., -1][last > 1e-8][0]}")
    z = np.minimum(np.maximum.accumulate(z, axis=-1), 1.0)
    z[..., -1] = 1.0
    omega = np.diff(z, axis=-1, prepend=0.0)
    xi = ((1.0 + z) ** 2) / 4.0
    omega_prime = np.diff(xi, axis=-1, prepend=0.0)
    return MajorizationData(
        zeta=tuple(z.tolist()) if z.ndim == 1 else z,
        omega=Distribution(omega),
        omega_prime=Distribution(omega_prime),
    )


def majorization_bound_tensor(md: MajorizationData, a) -> float | np.ndarray:
    """Tensor-product bound: half the Renyi entropy of omega_prime."""
    return 0.5 * renyi_entropy(md.omega_prime, a)


def majorization_bound_direct_sum(md: MajorizationData, a) -> float | np.ndarray:
    """Direct-sum bound on the POVM Renyi entropy.

    Half the entropy of omega for orders <= 1; for finite orders above 1
    the bound is log2(1/2 + sum(omega^alpha)/2) / (1 - alpha).  Its
    alpha -> inf limit is 0 (the argument of the log tends to 1/2 while
    the prefactor vanishes), so the infinite order returns 0.
    """
    o = Order.coerce(a)
    p = md.omega.probs
    if o.is_infinite:
        return _float_or_array(np.zeros(p.shape[:-1]))
    if o.is_shannon or o.value < 1.0:
        return 0.5 * renyi_entropy(md.omega, o)
    alpha = o.value
    powers = (p ** alpha).sum(axis=-1)
    return _float_or_array(np.log2(0.5 + 0.5 * powers) / (1.0 - alpha))


def majorization_entropy_bound(md: MajorizationData, a) -> float | np.ndarray:
    """Best applicable majorization bound at the given order.

    Orders <= 1 use half the entropy of omega.  Orders > 1 compare the
    tensor-product and direct-sum forms and return the larger; at the
    infinite order the direct-sum form degenerates to 0, leaving half the
    min-entropy of omega_prime.
    """
    o = Order.coerce(a)
    if o.is_shannon or (not o.is_infinite and o.value < 1.0):
        return 0.5 * renyi_entropy(md.omega, o)
    return _float_or_array(np.maximum(
        majorization_bound_tensor(md, o),
        majorization_bound_direct_sum(md, o),
    ))


def mutual_info_upper_bound(q: OutcomeProbs, eta) -> float | np.ndarray:
    """Upper bound on the standard mutual information of the (b', e') pair.

    H(E') minus the strongest Shannon-entropy lower bound for the POVM,
    where H(E') = 1 - Q_? + h(Q_?).  Valid whenever q and eta come from
    one discrimination configuration; array fields and an eta array of
    the same shape give an array.
    """
    qq = np.asarray(q.q_inconclusive, dtype=float)
    h_e = 1.0 - qq + binary_entropy(np.clip(qq, 0.0, 1.0))
    e = _eta_array(eta)
    md = majorization_data(_zeta(e))
    floor = np.maximum(coles_piani_bound(e), 0.5 * shannon_entropy(md.omega))
    return _float_or_array(h_e - floor)
