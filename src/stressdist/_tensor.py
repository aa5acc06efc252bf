"""Small tensor-algebra and finite-difference helpers used across modules.

Conventions fixed here and relied on everywhere else:

* curl of a rank-2 field acts on rows: ``(curl A)_ij = eps_jkl d_k A_il``;
* ``row_cross(A, v)`` crosses each row of ``A`` with ``v`` on the right;
* ``col_cross(v, A)`` crosses each column of ``A`` with ``v`` on the left;
* the double-curl stress operator is ``curl((curl A)^T)``, the classical
  incompatibility form, symmetric and divergence-free for symmetric A.
"""

from __future__ import annotations

import numpy as np

# Levi-Civita symbol.
EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0

I3 = np.eye(3)

# 4th-order central first-derivative stencil: (-f2 + 8 f1 - 8 f-1 + f-2)/(12h).
CENTRAL_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
CENTRAL_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def cross_matrix(n):
    """Matrix N with N v = n x v, vectorized over leading axes of n."""
    n = np.asarray(n)
    out = np.zeros(n.shape[:-1] + (3, 3))
    out[..., 0, 1] = -n[..., 2]
    out[..., 0, 2] = n[..., 1]
    out[..., 1, 0] = n[..., 2]
    out[..., 1, 2] = -n[..., 0]
    out[..., 2, 0] = -n[..., 1]
    out[..., 2, 1] = n[..., 0]
    return out


def row_cross(A, v):
    """Tensor whose row i is (row_i A) x v. Batched over leading axes."""
    return np.einsum('...ik,...kl->...il', A, cross_matrix(v))


def col_cross(v, A):
    """Tensor whose column j is v x (column_j A). Batched over leading axes."""
    return np.einsum('...ik,...kj->...ij', cross_matrix(v), A)


def sym(A):
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def curl_from_gradient(grad):
    """Curl of a vector field from its gradient (..., 3, 3), grad[i,j]=d_j v_i."""
    return np.einsum('ijk,...kj->...i', EPS, grad)


def tensor_curl_rows_from_gradient(grad):
    """Row-wise curl of a rank-2 field from its gradient (..., 3, 3, 3).

    grad[..., i, l, k] = d_k A_il; result (..., i, j) = eps_jkl d_k A_il.
    """
    return np.einsum('jkl,...ilk->...ij', EPS, grad)


def fd_gradient(f, pts, h, value_shape=()):
    """4th-order central FD gradient of an arbitrary-rank field.

    f maps (N, 3) points to (N, *value_shape); returns (N, *value_shape, 3).
    """
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    out = np.empty((n,) + tuple(value_shape) + (3,))
    for ax in range(3):
        acc = 0.0
        for off, w in zip(CENTRAL_OFFSETS, CENTRAL_WEIGHTS):
            shifted = pts.copy()
            shifted[:, ax] += off * h
            acc = acc + w * np.asarray(f(shifted))
        out[..., ax] = acc / h
    return out


def fibonacci_sphere(n):
    """n quasi-uniform (theta, phi) points on the unit sphere (golden spiral)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = np.mod(golden * i, 2.0 * np.pi)
    return theta, phi


def halton(n, dim=3, skip=20):
    """Low-discrepancy Halton points in [0,1)^dim."""
    primes = [2, 3, 5, 7, 11][:dim]
    out = np.empty((n, dim))
    for d, p in enumerate(primes):
        idx = np.arange(skip, skip + n)
        frac = np.zeros(n)
        denom = 1.0
        ii = idx.copy()
        while np.any(ii > 0):
            denom *= p
            frac += (ii % p) / denom
            ii //= p
        out[:, d] = frac
    return out


def loglog_slope(x, y, floor=0.0):
    """Least-squares slope of log|y| vs log x, ignoring entries below floor."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    m = y > floor
    if np.count_nonzero(m) < 2:
        return float('nan')
    lx, ly = np.log(x[m]), np.log(y[m])
    A = np.vstack([lx, np.ones_like(lx)]).T
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(sol[0])
