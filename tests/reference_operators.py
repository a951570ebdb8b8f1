"""The grid operators assembled in full, every row from the 1-D stencils:
the oracle of the exact tests.

The package assembles each operator as its generator rows only and expands
them where a full operator is applied.  The functions here build every row,
from the same 1-D stencils (`elliptic.stencil`, `second_difference`) in the
same operation order, so the two agree bit for bit wherever the operator is
circulant; `mode_blocks` is the block matrix a mode-block solver factors,
built from a full operator.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from vortibc.elliptic import (expand_rows, generator_rows, pin_rows, second_difference,
                              stencil)
from vortibc.geometry import boundary_frame


def kron_sum(A1, A2, scale2=None):
    """A1 along axis 0 plus A2 along axis 1, the latter weighted per axis-0
    index by scale2 (None means 1)."""
    n1, n2 = A1.shape[0], A2.shape[0]
    S = sparse.identity(n1) if scale2 is None else sparse.diags(scale2)
    return (sparse.kron(A1, sparse.identity(n2)) + sparse.kron(S, A2)).tocsr()


def polar_operator(grid):
    """The full vector Laplacian in (u_r, u_theta) components with ghost BC
    rows, u_r rows emptied at the boundary nodes."""
    n1, n2 = grid.shape
    r = grid.c1
    h, k = grid.h1, grid.h2
    rp, rm = r + 0.5 * h, r - 0.5 * h
    s = 1.0 / rp + 1.0 / rm
    up = r[1:] / (h * h * rp[:-1])
    dn = r[:-1] / (h * h * rm[1:])
    up[0] = r[1] * s[0] / (h * h)
    dn[-1] = r[-2] * s[-1] / (h * h)
    R = stencil(n1, {-1: np.r_[0.0, dn], 0: -r * s / (h * h), 1: np.r_[up, 0.0]}, False)
    K = kron_sum(R, second_difference(n2, 1.0, True), 1.0 / (r * k) ** 2)
    C = sparse.kron(sparse.diags(2.0 / (r * r) / (2.0 * k)),
                    stencil(n2, {-1: -1.0, 1: 1.0}, True), format="csr")
    nodes = boundary_frame(grid).nodes
    return sparse.bmat([[pin_rows(K, nodes, 0.0), -pin_rows(C, nodes, 0.0)], [C, K]],
                       format="csr")


def cartesian_operator(grid):
    """The full componentwise Laplacian, with the channel-wall ghost rows
    and u_y rows emptied at the wall nodes."""
    n1, n2 = grid.shape
    h, k = grid.h1, grid.h2
    if grid.has_boundary():
        up, dn = np.full(n2, 1.0 / k**2), np.full(n2, 1.0 / k**2)
        up[0] = dn[-1] = 2.0 / k**2
        D2 = stencil(n2, {-1: dn, 0: -2.0 / k**2, 1: up}, False)
        nodes = boundary_frame(grid).nodes
    else:
        D2 = second_difference(n2, k, True)
        nodes = np.array([], dtype=int)
    K = kron_sum(second_difference(n1, h, True), D2)
    return sparse.block_diag([K, pin_rows(K, nodes, 0.0)], format="csr")


def velocity_operator(grid):
    return (polar_operator if grid.polar else cartesian_operator)(grid)


def fv_laplacian(grid):
    """The full weighted FV Laplacian -(G1^T T1 G1 + G2^T T2 G2), as CSC."""
    n1, n2 = grid.shape
    h1, h2 = grid.h1, grid.h2
    D1 = stencil(n1, {0: -1.0, 1: 1.0}, grid.periodic1)[:n1 if grid.periodic1 else n1 - 1]
    D2 = stencil(n2, {0: -1.0, 1: 1.0}, grid.periodic2)[:n2 if grid.periodic2 else n2 - 1]
    if grid.polar:
        r_face, r_node = grid.c1[:-1] + 0.5 * h1, grid.c1
    else:
        r_face, r_node = np.ones(D1.shape[0]), np.ones(n1)
    T1 = sparse.diags((r_face[:, None] * grid.w2 / h1).ravel())
    T2 = sparse.diags(np.repeat(grid.w1 / (r_node * h2), D2.shape[0]))
    G1 = sparse.kron(D1, sparse.identity(n2), format="csr")
    G2 = sparse.kron(sparse.identity(n1), D2, format="csr")
    A = -(G1.T @ T1 @ G1 + G2.T @ T2 @ G2).tocsc()
    A.sort_indices()
    return A


def dirichlet_laplacian(grid):
    """The full FD Laplacian of a bounded grid, before its wall rows are
    pinned."""
    h1, h2 = grid.h1, grid.h2
    if grid.polar:
        r = grid.c1
        R = stencil(grid.n1, {-1: 1.0 / h1**2 - 1.0 / (2.0 * h1 * r), 0: -2.0 / h1**2,
                              1: 1.0 / h1**2 + 1.0 / (2.0 * h1 * r)}, False)
        return kron_sum(R, second_difference(grid.n2, 1.0, True), 1.0 / (r * h2) ** 2)
    return kron_sum(second_difference(grid.n1, h1, grid.periodic1),
                    second_difference(grid.n2, h2, grid.periodic2))


def assert_same_sparse(M, ref, what=""):
    """M and ref store the same entries in the same order: equal indptr,
    indices and data."""
    assert M.format == ref.format, (what, M.format, ref.format)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(M, name), getattr(ref, name),
                                      err_msg=f"{what} {name}")


def check_circulant(M, grid):
    """Raise AssertionError unless M, a canonical CSR operator on fields of
    the grid stacked component-major, is exactly the circulant operator that
    its generator rows determine: every row equals the generator row of its
    non-periodic indices shifted by its periodic ones, bit for bit."""
    rows = generator_rows(grid, M.shape[0] // grid.nnodes)
    assert_same_sparse(expand_rows(M[rows], grid), M, "shift expansion")


def periodic_inverse(column, shape):
    """The inverse symbol of a doubly periodic circulant operator from its
    column 0, zero on its zero eigenvalues."""
    symbol = np.fft.rfft2(np.reshape(column, shape))
    nonzero = np.abs(symbol) > 1e-12 * np.abs(symbol).max()
    return np.divide(1.0, symbol, out=np.zeros_like(symbol), where=nonzero)


def mode_blocks(M, grid, pin=False):
    """The complex block-diagonal matrix, as CSC, of the mode blocks of an
    operator M circulant along the periodic axis of a bounded grid: block k
    is M's rows at periodic index 0 with each entry phased by the periodic
    index of its column; `pin` makes row 0 an identity row."""
    axis = 0 if grid.periodic1 else 1
    M0 = M.tocsr()[generator_rows(grid, M.shape[0] // grid.nnodes)]
    layout = (M0.shape[1] // grid.nnodes, *grid.shape)
    n, nr = grid.shape[axis], grid.shape[1 - axis]
    modes = np.arange(n // 2 + 1)[:, None]
    size = M0.shape[0]
    sub = M0.tocoo()
    c, i1, i2 = np.unravel_index(sub.col, layout)
    p, r = (i1, i2) if axis == 0 else (i2, i1)
    ps, which = np.unique(p, return_inverse=True)
    data = np.exp(2j * np.pi * ((modes * ps) % n) / n)[:, which]
    data *= sub.data
    B = sparse.csr_matrix(
        (data.ravel(), ((modes * size + sub.row).ravel(), (modes * size + c * nr + r).ravel())),
        shape=(modes.size * size,) * 2)
    if pin:
        B = pin_rows(B, [0])
    return B.tocsc()
