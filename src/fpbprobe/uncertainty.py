"""Entropic uncertainty bounds for the three-outcome discrimination POVM.

The POVM is lifted to projective measurements on a qutrit via a family of
extensions carrying one free phase.  Overlap matrices between two
extensions yield measurement uncertainty bounds; optimizing the free
phases gives closed forms in eta = cos(2 gamma).  Submatrix spectral
norms of the optimized overlap matrix feed majorization bounds, and the
whole stack caps Eve's standard mutual information from above.

bounds_table computes every bound in one pass; coles_piani_bound and
mutual_info_upper_bound are reads of its coles_piani and i_upper columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from ._checks import HUGE, real, scalar, trusted
from .discrimination import PHI_SLACK, QUARTER_PI, OutcomeProbs, _measurement_vectors
from .entropy import _LN2, Order, _checked, _float_or_array, _fold, _renyi, _shannon, closed_form_i_std

TWO_PI = 2.0 * math.pi
UNITARY_TOL = 1e-8


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
    xi_k = (1 + zeta_k)^2 / 4 and feeds the tensor-product bounds.  zeta
    is an (..., d) array, (d,) for one sequence, and the vectors stack
    along the same leading axes.  One built by hand has omega and
    omega_prime checked and normalized as probability vectors, as
    renyi_entropy checks its input; majorization_data builds it from a
    checked zeta without that second check.
    """

    zeta: np.ndarray
    omega: np.ndarray
    omega_prime: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", _checked(self.omega, "omega"))
        object.__setattr__(self, "omega_prime", _checked(self.omega_prime, "omega_prime"))


def naimark_basis(gamma: float, phase: float = 0.0) -> NaimarkExtension:
    """Extension basis for the POVM at angle gamma, ancilla phase `phase`.

    Rows are (w_plus, w_minus, w_inconclusive); the phase enters only the
    third column, so a shift of both phases leaves every overlap modulus
    unchanged.  gamma = 0 (eta = 1) is included so the eta grid can reach
    both ends.
    """
    gamma = scalar("gamma", gamma, 0.0, QUARTER_PI + PHI_SLACK)
    phase = scalar("phase", phase, -HUGE, HUGE) % TWO_PI
    v, eta = _measurement_vectors(gamma, 0.0)
    root = math.sqrt(1.0 + eta)
    b = np.zeros((3, 3), dtype=complex)
    b[:, :2] = v / root
    b[:, 2] = np.array([math.sqrt(eta), math.sqrt(eta), -math.sqrt(1.0 - eta)]) / root * np.exp(1j * phase)
    return NaimarkExtension(gamma=gamma, phase=phase, basis=b)


def overlap_matrix(e1: NaimarkExtension, e2: NaimarkExtension) -> np.ndarray:
    """Unitary matrix of overlaps <w_i(phase1)|w_j(phase2)>."""
    if abs(e1.gamma - e2.gamma) > 1e-12:
        raise ValueError("extensions must share the same gamma")
    return e1.basis.conj() @ e2.basis.T


def optimize_s_max(eta: float) -> tuple[float, tuple[float, float]]:
    """The smallest peak overlap over the two free extension phases, in closed form.

    The moduli depend only on the phase difference delta, so the first
    phase is 0.  With u = cos(delta) and (1 + eta)^2 |W_ij|^2 written L_ij:

        L_00 = L_11 = 1 + eta^2 + 2 eta u                   (rising)
        L_01 = L_10 = 2 eta^2 (1 - u)
        L_02 = L_12 = L_20 = L_21 = 2 eta (1 - eta) (1 - u)
        L_22 = 4 eta^2 + (1 - eta)^2 + 4 eta (1 - eta) u   (rising)

    The squared peak s^2 is their upper envelope, convex in u.  For
    eta <= 0.2 L_00 is the peak at u = -1 and rises, so delta* = pi and
    s^2 = ((1 - eta) / (1 + eta))^2.  Above, L_00 meets L_02 (eta <= 0.5,
    s^2 = (1 - eta) / (2 - eta)) and L_22 meets L_01 (eta >= 0.5,
    s^2 = eta / (2 - eta)) at the same u* = -(3 eta^2 - 2 eta + 1) / (2 eta (2 - eta)),
    where u* + 1 = (1 - eta)(5 eta - 1) / (2 eta (2 - eta)) >= 0.  Each s^2
    is mu_factor(eta)^-2.  Returns 1 / mu_factor(eta) and the phases
    (0, delta*), delta* = arccos(u*) in [0, pi].
    """
    eta = scalar("eta", eta, 0.0, 1.0)
    if eta <= 0.2:
        delta = math.pi
    else:  # u* from u* + 1 >= 0, which holds after rounding too
        delta = math.acos((1.0 - eta) * (5.0 * eta - 1.0) / (2.0 * eta * (2.0 - eta)) - 1.0)
    return 1.0 / mu_factor(eta), (0.0, delta)


def _eta_array(eta) -> np.ndarray:
    return np.asarray(real("eta", eta, 0.0, 1.0))


# The closed forms in eta, one helper each.  The public functions below
# and bounds_table share them; each takes a checked eta array.


def _mu(e: np.ndarray) -> np.ndarray:
    # Every branch is evaluated; the ones outside their range may divide by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            e <= 0.2,
            (1.0 + e) / (1.0 - e),
            np.sqrt(np.where(e <= 0.5, (2.0 - e) / (1.0 - e), (2.0 - e) / e)),
        )


def _zeta(e: np.ndarray, mu: np.ndarray) -> np.ndarray:
    zeta2 = np.where(
        e <= 0.2,
        np.sqrt(1.0 + 2.0 * e - 3.0 * e * e) / (1.0 + e),
        np.where(e <= 0.5, np.sqrt((2.0 - 2.0 * e) / (2.0 - e)), 1.0 / np.sqrt(2.0 - e)),
    )
    return np.stack([1.0 / mu, zeta2, np.ones_like(e)], axis=-1)


def mu_factor(eta) -> float | np.ndarray:
    """Closed-form reciprocal of the optimized peak overlap.

    Three branches with knots at eta = 0.2 and eta = 0.5; adjacent
    branches agree at the knots.  2 log2 mu_factor(eta) bounds the sum of
    two conjugate-order Renyi entropies of the POVM from below; `bounds`
    prints it as mu_bound.  Like every closed form in eta below, it
    accepts an array of eta values and returns an array.
    """
    return _float_or_array(_mu(_eta_array(eta)))


def coles_piani_bound(eta) -> float | np.ndarray:
    """Improved Shannon-entropy lower bound for the POVM.

    log2 mu_factor(eta) plus a correction active only below eta = 0.2;
    the correction vanishes in the eta -> 0 limit and is taken as 0 at
    the knot itself.  The coles_piani column of bounds_table.
    """
    return _float_or_array(bounds_table(eta)[..., 1])


def zeta_closed_form(eta) -> np.ndarray:
    """(zeta_1, zeta_2, zeta_3) of the phase-optimized overlap matrix, as an (..., 3) array.

    One eta gives a (3,) array, as zeta_coefficients does.  zeta_1 is
    1 / mu_factor(eta); zeta_2, the class-2 coefficient, has the same
    knots at eta = 0.2 and 0.5; zeta_3 is 1.
    """
    e = _eta_array(eta)
    return _zeta(e, _mu(e))


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


def zeta_coefficients(w) -> np.ndarray:
    """Max spectral norm over submatrices of class k, for k = 1..d.

    Submatrices of class k are the r x r' blocks with r + r' = k + 1;
    enumeration is brute force (d <= 4) and all their norms come from
    one batched SVD.  w must be square and unitary: every entry of
    w* w - I within UNITARY_TOL.  Unitarity forces the last coefficient
    to 1, and it is set to 1, which moves it by at most UNITARY_TOL / 2:
    each column of w is a class-d block whose norm is then within
    UNITARY_TOL / 2 of 1, and zeta is clipped at 1.
    """
    mat = linalg.as_matrix(w)
    d = mat.shape[0]
    if mat.shape[1] != d:
        raise ValueError("overlap matrix must be square")
    if not np.abs(mat.conj().T @ mat - np.eye(d)).max() <= UNITARY_TOL:
        raise ValueError("overlap matrix is not unitary within tolerance")
    masks, starts = _class_masks(d)
    norms = np.linalg.svd(np.where(masks, mat, 0.0), compute_uv=False)[:, 0]
    z = np.maximum.accumulate(np.minimum(np.maximum.reduceat(norms, starts), 1.0))
    z[-1] = 1.0
    return z


def _steps(x: np.ndarray) -> np.ndarray:
    """np.diff(x, axis=-1, prepend=0.0), one ufunc call per step.

    numpy would run one inner loop per stack member over the short last
    axis (see entropy._fold); slices give the same bits.
    """
    out = np.empty(x.shape)
    out[..., 0] = x[..., 0]  # x - 0.0 is x, -0.0 included
    for k in range(1, x.shape[-1]):
        np.subtract(x[..., k], x[..., k - 1], out=out[..., k])
    return out


def majorization_data(zeta) -> MajorizationData:
    """Probability vectors omega and omega_prime from a zeta sequence.

    A stack of sequences along the last axis gives stacked vectors.  The
    entries follow the package's policy for real arrays (_checks.real),
    each in [0, 1 + 1e-8]; each sequence must be nondecreasing within
    1e-9 and end within 1e-8 of 1.
    """
    z = np.asarray(real("zeta", zeta, 0.0, 1.0 + 1e-8))
    if z.ndim < 1 or z.size < 1:
        raise ValueError("zeta must be a nonempty sequence")
    if (_steps(z)[..., 1:] < -1e-9).any():
        raise ValueError("zeta must be nondecreasing")
    last = np.abs(z[..., -1] - 1.0)
    if (last > 1e-8).any():
        raise ValueError(f"last zeta must be 1, got {z[..., -1][last > 1e-8][0]}")
    return _majorization(z)


def _majorization(z: np.ndarray) -> MajorizationData:
    z = np.array(z)  # running maximum in place, max(previous, current) as np.maximum.accumulate takes it
    for k in range(1, z.shape[-1]):
        np.maximum(z[..., k - 1], z[..., k], out=z[..., k])
    np.minimum(z, 1.0, out=z)
    z[..., -1] = 1.0
    return trusted(MajorizationData, z, _steps(z), _steps(((1.0 + z) ** 2) / 4.0))


def majorization_bound_tensor(md: MajorizationData, a) -> float | np.ndarray:
    """Tensor-product bound: half the Renyi entropy of omega_prime."""
    return _float_or_array(0.5 * _renyi(md.omega_prime, Order.coerce(a)))


def majorization_bound_direct_sum(md: MajorizationData, a) -> float | np.ndarray:
    """Direct-sum bound on the POVM Renyi entropy.

    Half the entropy of omega for orders <= 1; for finite orders above 1
    the bound is log2(1/2 + sum(omega^alpha)/2) / (1 - alpha).  Its
    alpha -> inf limit is 0 (the argument of the log tends to 1/2 while
    the prefactor vanishes), so the infinite order returns 0.  The sum is
    2**((1 - alpha) R_alpha(omega)), and the argument of the log is
    1 + expm1(ln sum) / 2, so the bound keeps its relative accuracy as
    alpha nears 1, where it tends to H(omega) / 2.
    """
    o = Order.coerce(a)
    if o.is_infinite:
        return _float_or_array(np.zeros(md.omega.shape[:-1]))
    if o.value <= 1.0:
        return _float_or_array(0.5 * _renyi(md.omega, o))
    scale = (1.0 - o.value) * _LN2
    return _float_or_array(np.log1p(0.5 * np.expm1(scale * _renyi(md.omega, o))) / scale + 0.0)


def mutual_info_upper_bound(q: OutcomeProbs, eta) -> float | np.ndarray:
    """Upper bound on the standard mutual information of the (b', e') pair.

    H(E') minus the strongest Shannon-entropy lower bound for the POVM,
    where H(E') = 1 - Q_? + h(Q_?).  Valid whenever q and eta come from
    one discrimination configuration; array fields and an eta array that
    broadcast together give an array.  The i_upper column of bounds_table.
    """
    return _float_or_array(bounds_table(eta, q)[..., -1])


BOUNDS_COLUMNS = ("mu_bound", "coles_piani", "maj_shannon", "maj_alpha2_a", "maj_alpha2_b",
                  "rho_star_H", "rho_star_R2", "i_std", "i_upper")


def bounds_table(eta, q: OutcomeProbs | None = None) -> np.ndarray:
    """Every bound at each eta, one column per name in BOUNDS_COLUMNS.

    The columns are 2 log2 mu_factor, coles_piani_bound, half the Shannon entropy
    of omega, the tensor-product and direct-sum majorization bounds at
    order 2, and the Shannon and order-2 Renyi entropies of the maximally
    mixed state's outcomes (rho*).  With the outcome triples q of the
    configurations that give eta (fields that broadcast against eta), two
    more follow: closed_form_i_std(q) and the upper bound
    H(E') - max(coles_piani, maj_shannon), H(E') = 1 - Q_? + h(Q_?).
    eta is checked once and mu, zeta, omega and rho* are built once.
    coles_piani_bound and mutual_info_upper_bound read their columns from
    here; each other column has the bits of its own public function.
    Returns an array of the broadcast shape + (7,) or (9,).
    """
    e = _eta_array(eta)
    mu = _mu(e)
    log2_mu = np.log2(mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = (e / (2.0 * (1.0 + e))) * np.log2((1.0 - e) / (4.0 * e))
    coles_piani = log2_mu + np.where((e > 0.0) & (e < 0.2), correction, 0.0)
    md = _majorization(_zeta(e, mu))
    maj_shannon = majorization_bound_direct_sum(md, 1.0)
    half = 0.5 / (1.0 + e)  # rho*: the outcomes of I/2 under the phi = 0 measurement at eta
    rho = np.stack([half, half, e / (1.0 + e)], axis=-1)
    rho = rho / _fold(np.add, rho)[..., None]  # as renyi_entropy normalizes its input
    order2 = Order(2.0)
    columns = [
        2.0 * log2_mu,
        coles_piani,
        maj_shannon,
        majorization_bound_tensor(md, order2),
        majorization_bound_direct_sum(md, order2),
        _shannon(rho),
        _renyi(rho, order2),
    ]
    if q is not None:
        qq = np.asarray(q.q_inconclusive, dtype=float)
        h_e = 1.0 - qq + _shannon(np.stack([qq, 1.0 - qq], axis=-1))
        columns += [closed_form_i_std(q), h_e - np.maximum(coles_piani, maj_shannon)]
    return np.stack(np.broadcast_arrays(*columns), axis=-1)
