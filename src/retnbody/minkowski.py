"""Minkowski-space primitives: metric, four-vectors, boosts, field tensors.

Conventions used across the package:
  * metric signature (+, -, -, -), eta = diag(1, -1, -1, -1)
  * four-vectors are stored by their contravariant components v^mu
  * Faraday-type tensors are stored by their covariant components F_{mu nu}
    and must be antisymmetric
  * indices are raised/lowered with eta, which is its own inverse
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

# relative asymmetry above which a matrix is rejected as a field tensor
_ANTISYM_TOL = 1e-12


def _as_four(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("four-vector components must be finite")
    return arr


def _antisymmetric_part(matrix, shape) -> np.ndarray:
    """0.5 (m - m^T) of a 4x4 matrix or a stack of them, after checking
    shape (None for any length), finiteness and that each symmetric part
    is within _ANTISYM_TOL of its matrix's scale."""
    m = np.asarray(matrix, dtype=np.float64)
    # shape is (4, 4) or (None, 4, 4), a stack of any length
    if m.ndim != len(shape) or m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    m_t = m.swapaxes(-1, -2)
    # inf or NaN with any such entry (the maximum of a matrix is exact,
    # whatever the order of the reduction)
    scale = np.maximum.reduce(np.abs(m), axis=(-2, -1))
    if np.count_nonzero(np.isfinite(scale)) < scale.size:
        raise ValueError("tensor entries must be finite")
    if np.count_nonzero(np.maximum.reduce(np.abs(m + m_t), axis=(-2, -1))
                        > _ANTISYM_TOL * scale):
        raise ValueError("matrix is not antisymmetric")
    return 0.5 * (m - m_t)


@dataclass(frozen=True)
class FaradayTensor:
    """Covariant antisymmetric rank-2 tensor F_{mu nu}.

    The constructor rejects matrices whose symmetric part exceeds a
    small multiple of the matrix scale, so downstream force contractions
    are guaranteed to produce w.u = 0 identically.
    """

    matrix: np.ndarray

    def __post_init__(self):
        # store the exactly antisymmetric part so roundoff cannot accumulate
        object.__setattr__(self, "matrix", _antisymmetric_part(self.matrix, (4, 4)))

    def __array__(self, dtype=None):
        if dtype is None:
            return self.matrix
        return self.matrix.astype(dtype)

    @property
    def electric(self) -> np.ndarray:
        """E_k = F_{0k} in the stored covariant components."""
        return self.matrix[0, 1:]


@dataclass(frozen=True)
class Boost:
    """A pure Lorentz boost parameterized by the velocity ratio beta.

    beta is the 3-vector v/c of the boosted frame; |beta| < 1 is required.
    """

    beta: np.ndarray
    gamma: float = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=np.float64)
        if b.shape != (3,):
            raise ValueError(f"beta must be a 3-vector, got shape {b.shape}")
        b2 = float(b @ b)
        if b2 >= 1.0:
            raise ValueError("Superluminal beta")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", 1.0 / np.sqrt(1.0 - b2))

    def matrix(self) -> np.ndarray:
        """The 4x4 boost matrix acting on contravariant components.

        Applied to the rest four-velocity (1, 0, 0, 0) it yields
        (gamma, gamma*beta), i.e. the four-velocity of a particle moving
        with velocity beta*c.
        """
        b = self.beta
        b2 = float(b @ b)
        g = self.gamma
        lam = np.eye(4)
        lam[0, 0] = g
        lam[0, 1:] = g * b
        lam[1:, 0] = g * b
        if b2 > 0.0:
            lam[1:, 1:] += (g - 1.0) * np.outer(b, b) / b2
        return lam


def dot(a, b) -> float:
    """Minkowski scalar product a^mu eta_{mu nu} b^nu of two four-vectors."""
    av = _as_four(np.asarray(a))
    bv = _as_four(np.asarray(b))
    return float(av[0] * bv[0] - av[1:] @ bv[1:])


def dots(a, b) -> np.ndarray:
    """Minkowski products of the rows of two (M, 4) stacks, each with the
    bits dot gives that row (the spatial part is one np.vecdot call)."""
    return a[:, 0] * b[:, 0] - np.vecdot(a[:, 1:], b[:, 1:])


# eta's diagonal: lowering or raising an index multiplies by it
_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def lower(v) -> np.ndarray:
    """Lower the index: v_mu = eta_{mu nu} v^nu (flips the spatial sign)."""
    return np.asarray(v, dtype=np.float64) * _SIGNS


def raise_index(v) -> np.ndarray:
    """Raise the index; eta is its own inverse so this equals lower()."""
    return lower(v)
