import numpy as np
import pytest


def haar_unitary(n, rng):
    """Haar-distributed n x n unitary via QR with phase correction."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def random_density(n, rng, rank=None):
    """Random density matrix from a Wishart-like construction."""
    k = rank or n
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_density(n, rng):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def renyi_bits(p, a):
    """Renyi entropy in bits over the last axis: Shannon at order 1 (0 log 0 = 0), min-entropy at inf."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if a == 1:
            return -np.where(p > 0, p * np.log2(p), 0.0).sum(axis=-1)
        if np.isinf(a):
            return -np.log2(p.max(axis=-1))
        return np.log2((p ** a).sum(axis=-1)) / (1 - a)


def alpha_mi_reference(table, a, variant):
    """R_a(X) - R_a(X|Y) in bits, rows X given columns Y, by the definitions in plain floats.

    Variant 1 averages the columns' conditional entropies, variant 2 is
    R_a(X, Y) - R_a(Y), and variant 4 averages inside the logarithm; at
    order 1 each is the mutual information.  Leading axes of `table` index
    a stack.  It is numpy only, so a module that uses it needs no mpmath,
    and it subtracts O(1) entropies, so it is a float-speed reference away
    from order 1 and for values that are not small; `oracle.measure` is
    the accurate one.
    """
    t = np.asarray(table, dtype=float)
    py = t.sum(axis=-2)
    hx = renyi_bits(t.sum(axis=-1), a)
    if variant == 2 and a != 1:
        return hx + renyi_bits(py, a) - renyi_bits(t.reshape(t.shape[:-2] + (-1,)), a)
    cond = np.swapaxes(t / np.where(py > 0, py, 1.0)[..., None, :], -1, -2)  # an empty column gives zeros
    if variant == 4 and a != 1:
        return hx - np.log2((py * (cond ** a).sum(axis=-1)).sum(axis=-1)) / (1 - a)
    with np.errstate(invalid="ignore"):  # 0 * inf at an empty column, which np.where drops
        return hx - np.where(py > 0, py * renyi_bits(cond, a), 0.0).sum(axis=-1)
