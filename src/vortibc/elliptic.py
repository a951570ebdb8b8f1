"""Neumann problems for the Poisson equation: pressure recovery, the
harmonic part of the Stokes decoupling, and the Solonnikov ratio.

The discretization is a node-centered finite-volume scheme whose summed
equations telescope exactly, so the discrete solvability condition is
precisely  sum(W * source) = sum(dS * flux)  with the grid's own quadrature
weights.  Mean mismatches below tolerance are repaired by a uniform shift
of the boundary flux (logged); larger mismatches raise IncompatibleData.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import (BCViolation, DegenerateInput, IncompatibleData, LinearSolveFailed,
                     SolverDiverged)
from .fields import (
    ScalarField,
    VectorField,
    Workspace,
    _advect,
    _block,
    _div,
    _frame,
    _pair,
    _scratch,
    boundary_rows,
    div,
    grad,
    l2,
    max_speed,
    normal_component,
    require_finite,
    surface_curl,
)
from .geometry import BoundaryFrame, Grid, boundary_frame, project, second_fundamental_form

log = logging.getLogger(__name__)

_RESIDUAL_TOL = 1e-10
# allowed |u_perp| relative to max(max|u|, 1) for a field with a kinematic condition
_BC_TOL = 1e-6


@dataclass
class NeumannProblem:
    """Poisson problem -sum of fluxes form: lap(phi) = source, d_nu phi = flux.

    `flux` is a list of per-boundary-component arrays ([] when the domain
    has no boundary).  `tol_compat` bounds the allowed compatibility
    defect |int(source) - oint(flux)| relative to the data size; the default
    1e-8 suits data given in closed form.
    """

    grid: Grid
    source: ScalarField
    flux: list | None = None
    tol_compat: float = 1e-8


def fd_tolerance(grid: Grid) -> float:
    """tol_compat for data assembled from finite differences (advection,
    divergence, transported vorticity): such data is compatible only to
    O(h^2), and well-posed runs must not crash on that mismatch."""
    h = max(grid.h1, grid.h2)
    return max(1e-8, 100.0 * h * h)


def splu(A):
    """scipy's sparse LU of A, imported on the first call: doubly periodic
    runs solve by FFT and never load scipy.sparse.linalg."""
    from scipy.sparse.linalg import splu as sparse_lu

    # one-column panels: the default of 10 makes SuperLU allocate a transient
    # panel_size x rows complex workspace, which set the stokes peak (a 192^2
    # velocity factorization lifted the process's high-water RSS by 18.5 MB,
    # 0.2 MB with panel_size=1) and factored slower; ordering, pivots and
    # fill are the same
    return sparse_lu(A, panel_size=1)


# ---------------------------------------------------------------------------
# Operators as Kronecker sums of 1-D stencils on the C-ordered (n1, n2) layout

def stencil(n: int, coefs: dict, periodic: bool):
    """n x n matrix whose row i holds coefs[o][i] in column i + o, wrapped
    when periodic and dropped past the ends otherwise.  A coefficient is a
    scalar or a length-n array."""
    i = np.arange(n)
    rows, cols, vals = [], [], []
    for o, c in coefs.items():
        keep = slice(None) if periodic else (i + o >= 0) & (i + o < n)
        rows.append(i[keep])
        cols.append((i + o)[keep] % n)
        vals.append(np.broadcast_to(c, (n,))[keep])
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n))


def second_difference(n: int, h: float, periodic: bool):
    """The (1, -2, 1) / h^2 stencil along one axis."""
    return stencil(n, {-1: 1.0 / h**2, 0: -2.0 / h**2, 1: 1.0 / h**2}, periodic)


def generator_index(grid: Grid) -> tuple:
    """Per grid axis, [0] when the axis is periodic and every index when it
    is not: the nodes at periodic index 0, whose rows (generator_rows)
    determine an operator circulant along the periodic axes."""
    return tuple([0] if p else slice(None) for p in (grid.periodic1, grid.periodic2))


def generator_rows(grid: Grid, ncomp: int = 1) -> np.ndarray:
    """Flat indices of the rows at index 0 along every periodic axis of an
    operator on ncomp fields stacked component-major, ordered by component,
    then by the index along a non-periodic axis: the radial rows at theta
    index 0 on polar grids, the rows at x index 0 on the channel, and row 0
    of each component on the torus.  Every grid operator is assembled as
    these rows, from which expand_rows builds the full operator."""
    flat = np.arange(ncomp * grid.nnodes).reshape(ncomp, *grid.shape)
    return flat[(slice(None), *generator_index(grid))].ravel()


def wall_rows(grid: Grid) -> np.ndarray:
    """Positions within generator_rows(grid) of the wall nodes.  The walls
    are whole periodic orbits, so pinning these rows of the generator rows
    pins those of the operator."""
    return np.flatnonzero(grid.wall_mask.ravel()[generator_rows(grid)])


def kron_sum(A1, A2, grid: Grid, scale2=None):
    """The generator rows (generator_rows) of A1 along axis 0 plus A2 along
    axis 1, the latter weighted per axis-0 index by scale2 (the polar 1/r^2
    metric; None means 1)."""
    s1, s2 = generator_index(grid)
    n1, n2 = A1.shape[0], A2.shape[0]
    S = sparse.identity(n1, format="csr") if scale2 is None else sparse.diags(scale2, format="csr")
    return (sparse.kron(A1[s1], sparse.identity(n2, format="csr")[s2])
            + sparse.kron(S[s1], A2[s2])).tocsr()


def expand_rows(M0, grid: Grid):
    """The full operator, as CSR, that is circulant along the periodic axes
    of the grid and has the generator rows (generator_rows) M0: each row is
    the generator row at its non-periodic index, shifted with its columns by
    its periodic indices."""
    n1, n2 = grid.shape
    size = M0.shape[1]
    layout = (size // grid.nnodes, n1, n2)
    sub = M0.tocoo()
    rc, r1, r2 = np.unravel_index(generator_rows(grid, layout[0])[sub.row], layout)
    c, c1, c2 = np.unravel_index(sub.col, layout)
    # one shift per periodic index, on leading axes before the entries
    d1 = np.arange(n1)[:, None, None] if grid.periodic1 else 0
    d2 = np.arange(n2)[:, None] if grid.periodic2 else 0

    def shifted(c, i1, i2):
        return (c * n1 + (i1 + d1) % n1) * n2 + (i2 + d2) % n2

    rows, cols = shifted(rc, r1, r2), shifted(c, c1, c2)
    data = np.broadcast_to(sub.data, rows.shape)
    return sparse.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(size, size))


def stencil_terms(M0, grid: Grid) -> list:
    """The scalar operator M with generator rows M0 as stencil terms
    (o1, o2, coef):  (M x)[i1, i2] = sum of coef[i1, i2] * x[i1 + o1, i2 + o2]
    over the terms, one per column offset.  Offsets along a periodic axis
    wrap and are taken in [-n/2, n/2); coef varies along the non-periodic
    axis only, with shape (n1, 1), (1, n2) or, on the torus, (1, 1), and is
    zero where a row has no entry at that offset."""
    periodic = (grid.periodic1, grid.periodic2)
    sub = M0.tocoo()
    rows = np.unravel_index(generator_rows(grid)[sub.row], grid.shape)
    cols = np.unravel_index(sub.col, grid.shape)
    offsets = [(c - r + n // 2) % n - n // 2 if p else c - r
               for r, c, n, p in zip(rows, cols, grid.shape, periodic)]
    keys, term = np.unique(np.stack(offsets, axis=1), axis=0, return_inverse=True)
    terms = []
    for k, (o1, o2) in enumerate(keys):
        coef = np.zeros(tuple(1 if p else n for p, n in zip(periodic, grid.shape)))
        # the generator rows sit at index 0 along the periodic axes
        coef[rows[0][term == k], rows[1][term == k]] = sub.data[term == k]
        terms.append((int(o1), int(o2), coef))
    return terms


def apply_terms(grid: Grid, terms: list, x, work: Workspace | None = None):
    """The operator of stencil_terms applied to each row of a (rows, n1, n2)
    stack x, as slices of one copy of x padded by the largest offsets:
    wrapped along periodic axes, zero along the others.  work lends the
    result, the padded copy and the scaled slices their blocks."""
    n1, n2 = grid.shape
    w1, w2 = (max(abs(t[axis]) for t in terms) for axis in (0, 1))
    out = _scratch(work, x.shape)
    with _frame(work):
        padded = _scratch(work, (len(x), n1 + 2 * w1, n2 + 2 * w2))
        padded[:, w1:w1 + n1, w2:w2 + n2] = x
        # axis 2 on every row first, so that the whole rows axis 1 then
        # copies carry their corners
        for axis, w, n, periodic in ((2, w2, n2, grid.periodic2), (1, w1, n1, grid.periodic1)):
            a = np.moveaxis(padded, axis, 0)
            if periodic:
                a[:w], a[w + n:] = a[n:n + w], a[w:2 * w]
            else:
                a[:w], a[w + n:] = 0.0, 0.0
        tmp = _scratch(work, x.shape)
        for k, (o1, o2, coef) in enumerate(terms):
            shifted = padded[:, w1 + o1:w1 + o1 + n1, w2 + o2:w2 + o2 + n2]
            if k == 0:
                np.multiply(shifted, coef, out=out)
            else:
                out += np.multiply(shifted, coef, out=tmp)
    return out


def pin_rows(A, rows, value: float = 1.0, cols=None):
    """Copy of A as CSR with `rows` replaced by value times unit rows whose
    one entry sits in `cols` (default `rows`: the identity rows); value 0
    empties them.  Stores no explicit zeros."""
    A = A.tocoo()
    keep = ~np.isin(A.row, rows)
    diag = np.asarray(rows if value else [], dtype=int)
    cols = diag if cols is None else np.asarray(cols if value else [], dtype=int)
    return sparse.csr_matrix(
        (np.concatenate([A.data[keep], np.full(diag.size, value)]),
         (np.concatenate([A.row[keep], diag]), np.concatenate([A.col[keep], cols]))),
        shape=A.shape)


def _fv_laplacian(grid: Grid):
    """Generator rows (generator_rows) of the weighted FV Laplacian
    -(G1^T T1 G1 + G2^T T2 G2): G holds the face differences along one axis,
    T the face transmissibilities."""
    n1, n2 = grid.shape
    h1, h2 = grid.h1, grid.h2
    D1 = stencil(n1, {0: -1.0, 1: 1.0}, grid.periodic1)[:n1 if grid.periodic1 else n1 - 1]
    D2 = stencil(n2, {0: -1.0, 1: 1.0}, grid.periodic2)[:n2 if grid.periodic2 else n2 - 1]
    # dual-cell face length over node spacing; polar faces carry the radius
    if grid.polar:
        r_face, r_node = grid.c1[:-1] + 0.5 * h1, grid.c1
    else:
        r_face, r_node = np.ones(D1.shape[0]), np.ones(n1)
    T1 = sparse.diags((r_face[:, None] * grid.w2 / h1).ravel())
    T2 = sparse.diags(np.repeat(grid.w1 / (r_node * h2), D2.shape[0]))
    I1, I2 = sparse.identity(n1, format="csr"), sparse.identity(n2, format="csr")
    G1 = sparse.kron(D1, I2, format="csr")
    G2 = sparse.kron(I1, D2, format="csr")
    # the generator rows of G^T = kron(D1^T, I) and kron(I, D2^T)
    s1, s2 = generator_index(grid)
    G1t = sparse.kron(D1.T.tocsr()[s1], I2[s2])
    G2t = sparse.kron(I1[s1], D2.T.tocsr()[s2])
    A0 = -(G1t @ T1 @ G1 + G2t @ T2 @ G2)
    # in column order, as ModeBlockSolve sums a row's entries of one mode block
    A0.sort_indices()
    return A0


class PeriodicSolve:
    """Solver for an operator K that is circulant along both axes of a doubly
    periodic grid, as every constant-coefficient stencil with wrap is.  Such
    a K is diagonal in the 2-D DFT with eigenvalues the rfft2 of its column
    0, which is its row 0 (its generator row) at negated indices.  It takes
    the generator rows M0 of an operator applying one K to each stacked
    field (the torus velocity's block_diag(K, K)) and reads K's row alone,
    so the assembled rows stay the one source of the coefficients.  A zero
    eigenvalue (the constants of the Neumann operator) maps its mode to
    zero, which gives the zero-sum solution."""

    def __init__(self, M0, grid: Grid):
        self.shape = grid.shape
        row = M0[0, :grid.nnodes].toarray()
        column = np.roll(np.flip(np.reshape(row, self.shape)), 1, axis=(0, 1))
        symbol = np.fft.rfft2(column)
        nonzero = np.abs(symbol) > 1e-12 * np.abs(symbol).max()
        self.inverse = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=nonzero)

    def solve(self, b, work: Workspace | None = None):
        """K^-1 b for one flat field, or for several stacked into one vector;
        work lends the transform and the result their blocks.  irfft2 is
        spelled out as its two passes, the first in place, because numpy
        2.4's irfft2 drops its out argument."""
        fields = b.reshape(-1, *self.shape)
        n1, n2 = self.shape
        x = _scratch(work, fields.shape)
        with _frame(work):
            bhat = np.fft.rfft2(fields, out=_scratch(work, (len(fields), n1, n2 // 2 + 1), complex))
            bhat *= self.inverse
            np.fft.ifft(bhat, n1, axis=-2, out=bhat)
            np.fft.irfft(bhat, n2, axis=-1, out=x)
        return x.reshape(b.shape)


class ModeBlockSolve:
    """Solver for an operator M that is circulant along the one periodic axis
    of a bounded grid (theta on polar grids, x on the channel) and acts on
    ncomp fields stacked component-major.  The rfft along that axis splits M
    into one banded (ncomp * n_radial)^2 block per mode; `factor`, the
    caller's sparse LU, factors their complex block-diagonal matrix once.
    The solver takes only M0 = M[generator_rows(grid, ncomp)], the rows at
    periodic index 0, as which every grid operator is assembled.  Block k is
    M0 with each entry phased by the periodic index of its column, so the
    assembled rows stay the one source of the coefficients; the entries of
    a row that meet in one block column are summed in M0's column order.
    `pin` gives radial node 0 of the k = 0 block an identity row and a zero
    rhs, which selects one solution of a Neumann operator (kernel: the
    constants).

    The block matrix is written straight into its CSC arrays, one mode at a
    time: every block has the pattern of M0's entries grouped by block
    column, so no entry list of all modes is ever formed."""

    def __init__(self, M0, grid: Grid, factor, pin: bool = False):
        axis = 0 if grid.periodic1 else 1
        self.layout = (M0.shape[1] // grid.nnodes, *grid.shape)
        self.axis = axis + 1           # the periodic axis of `layout`
        self.n = grid.shape[axis]
        self.pin = pin

        nr = grid.shape[1 - axis]
        nmodes = self.n // 2 + 1
        size = M0.shape[0]
        sub = M0.tocoo()                # row = c * nr + r
        c, i1, i2 = np.unravel_index(sub.col, self.layout)
        p, r = (i1, i2) if axis == 0 else (i2, i1)
        # the phases of the few distinct periodic indices, per mode
        ps, which = np.unique(p, return_inverse=True)
        phase = np.exp(2j * np.pi * ((np.arange(nmodes)[:, None] * ps) % self.n) / self.n)
        # the entries of one row in one block column form a group, the groups
        # in CSC order (by column, then row); each group's entries in M0's
        # column order, the first apart from the rest
        groups, group = np.unique((c * nr + r) * size + sub.row, return_inverse=True)
        order = np.argsort(group, kind="stable")
        lead = np.r_[True, np.diff(group[order]) != 0]
        first, rest = order[lead], order[~lead]
        grow, gcol = groups % size, groups // size

        def block(k, out):
            """The group sums of mode k into out, each summed from its first
            entry on (np.add.at adds in index order)."""
            np.take(phase[k], which[first], out=out)
            out *= sub.data[first]
            np.add.at(out, group[rest], phase[k, which[rest]] * sub.data[rest])

        # mode 0 keeps its groups off row 0 behind an identity entry when pinned
        keep = np.flatnonzero(grow != 0) if pin else np.arange(groups.size)
        head = int(pin) + keep.size
        data = np.empty(head + (nmodes - 1) * groups.size, complex)
        indices = np.empty(data.size, np.int32)
        mode0 = np.empty(groups.size, complex)
        block(0, mode0)
        data[int(pin):head], indices[int(pin):head] = mode0[keep], grow[keep]
        if pin:
            data[0], indices[0] = 1.0, 0
        for k, out in enumerate(data[head:].reshape(-1, groups.size), start=1):
            block(k, out)
        np.add(np.arange(1, nmodes)[:, None] * size, grow,
               out=indices[head:].reshape(-1, groups.size))
        counts = np.bincount(gcol, minlength=size)
        counts0 = np.bincount(gcol[keep], minlength=size)
        counts0[0] += int(pin)
        indptr = np.zeros(nmodes * size + 1, np.int32)
        np.cumsum(np.concatenate([counts0, np.tile(counts, nmodes - 1)]), out=indptr[1:])
        self.lu = factor(sparse.csc_matrix((data, indices, indptr), shape=(nmodes * size,) * 2))

    def solve(self, b, work: Workspace | None = None):
        """M^-1 b for one stacked vector, or for each row of a (rows, size)
        array through one multi-column backsolve; work lends the result its
        block."""
        axis = self.axis + 1           # behind the row axis
        fields = b.reshape(-1, *self.layout)
        # the transform goes straight into the mode-major layout that the
        # backsolve reads, so it is not copied there
        rows, *rest = (m for i, m in enumerate(fields.shape) if i != axis)
        bhat = np.empty((rows, self.n // 2 + 1, *rest), complex)
        np.fft.rfft(fields, axis=axis, out=np.moveaxis(bhat, 1, axis))
        rhs = bhat.reshape(rows, -1).T   # one column per row, mode-major
        if self.pin:
            rhs[0] = 0.0
        xhat = np.moveaxis(self.lu.solve(rhs).T.reshape(bhat.shape), 1, axis)
        x = np.fft.irfft(xhat, n=self.n, axis=axis,
                         out=_scratch(work, (len(xhat), *self.layout)))
        return x.reshape(b.shape)


def circulant_solver(M0, grid: Grid, factor, pin: bool = False):
    """The solver of the operator with generator rows M0: the 2-D FFT on the
    torus, else the mode blocks (pin: ModeBlockSolve), which the caller's
    sparse LU `factor` factors."""
    if not grid.has_boundary():
        return PeriodicSolve(M0, grid)
    return ModeBlockSolve(M0, grid, factor, pin)


def _assemble_neumann(grid: Grid):
    """Generator rows A0 of the weighted FV Laplacian A (symmetric, null
    space = constants) and a solver for compatible data (2-D FFT on the
    torus, else the mode blocks of A with the k = 0 block pinned)."""
    def build():
        A0 = _fv_laplacian(grid)
        return A0, circulant_solver(A0, grid, splu, pin=True)
    return grid.cached("neumann", build)


def _neumann_terms(grid: Grid) -> list:
    """The FV Laplacian as stencil terms, which only the residual test
    applies."""
    return grid.cached("neumann_terms",
                       lambda: stencil_terms(_assemble_neumann(grid)[0], grid))


def _solve_neumann_rows(grid: Grid, source, flux: list, rtol: float,
                        work: Workspace | None = None) -> np.ndarray:
    """The zero-mean solution of lap(phi) = source, d_nu phi = flux for
    each row of a (rows, n1, n2) source, as one stacked solve.

    `flux` holds one array per boundary component: (rows, m), or one (m,)
    row shared by all; on the torus it is empty.  Each row's compatibility
    defect may reach rtol times its data size: the weighted L1 size of the
    source plus the arc-length L1 size of the flux, floored at 1e-14.  Each
    row gets its own finiteness and compatibility test, flux repair (one log
    record per repaired row), residual test and zero-mean shift; the first
    row that fails a test raises.  Row i of the result equals the one-row
    solve of row i bit for bit.  work lends the source-sized temporaries
    and the result their blocks.
    """
    solver, frame = _assemble_neumann(grid)[1], boundary_frame(grid)
    # |source| is summed in place and freed before b is allocated
    with _frame(work):
        size = np.abs(source, out=_scratch(work, source.shape))
        size = np.sum(np.multiply(size, grid.weights, out=size), axis=(-2, -1))
    b = np.multiply(grid.weights, source, out=_scratch(work, source.shape))
    b = b.reshape(len(source), -1)
    if len(flux) != len(frame):
        raise ValueError("flux must supply one array per boundary component")
    for comp, g in zip(frame, flux):
        b[:, comp.nodes] -= comp.ds * g
        size = size + np.sum(comp.ds * np.abs(g), axis=-1)
    tol = rtol * np.maximum(size, 1e-14)
    defect = np.sum(b, axis=1)
    bad = np.flatnonzero(~np.isfinite(b).all(axis=1) | (np.abs(defect) > tol))
    if bad.size:
        i = bad[0]
        require_finite(SolverDiverged, "solve_neumann data", b[i])
        raise IncompatibleData(f"compatibility defect {defect[i]:.3e} exceeds "
                               f"tolerance {tol[i]:.3e}")
    repaired = np.flatnonzero(defect)
    if frame and repaired.size:
        per = frame.perimeter()
    for i in repaired:
        d = defect[i]
        if frame:
            # uniform shift of the boundary flux, by defect per unit arc length
            log.debug("repairing Neumann data: defect %.3e spread over boundary", d)
            for comp in frame:
                b[i, comp.nodes] -= comp.ds * (d / per)
        else:
            log.debug("repairing Neumann data: defect %.3e spread over volume", d)
            b[i] -= grid.weights.ravel() * (d / float(np.sum(grid.weights)))

    phi = solver.solve(b, work).reshape(source.shape)
    with _frame(work):
        residual = apply_terms(grid, _neumann_terms(grid), phi, work).reshape(b.shape)
        residual -= b
        for res, rhs in zip(residual, b):
            rnorm, bnorm = float(np.linalg.norm(res)), float(np.linalg.norm(rhs))
            # `not <=` so that a NaN residual fails as well
            if bnorm > 0 and not rnorm <= _RESIDUAL_TOL * bnorm:
                raise SolverDiverged(f"Neumann residual {rnorm:.3e} vs rhs norm {bnorm:.3e}")
    with _frame(work):
        weighted = np.multiply(grid.weights, phi, out=_scratch(work, phi.shape))
        mean = np.sum(weighted, axis=(-2, -1)) / float(np.sum(grid.weights))
    phi -= mean[:, np.newaxis, np.newaxis]
    return phi


def solve_neumann(prob: NeumannProblem) -> ScalarField:
    """Solve the Neumann problem; returns the zero-mean solution.

    Raises IncompatibleData when the discrete compatibility defect exceeds
    tolerance, SolverDiverged on non-finite data or when the linear residual
    misses 1e-10 relative.
    """
    grid = prob.grid
    return ScalarField(grid, _solve_neumann_rows(grid, prob.source.values[np.newaxis],
                                                 prob.flux, prob.tol_compat)[0])


# carrier rows per stacked transport solve.  The inviscid pressure and its
# gradient for the 101 carriers of the 64^2 Taylor-Green benchmark run took
# 0.62 ms per row one at a time, 0.39, 0.32 and 0.29 ms in chunks of 4, 8 and
# 16 rows, and 0.45 ms for all rows at once (2-vCPU VM, BLAS threads 1).
# Whole Picard solves were no faster at 16 rows than at 8, whose block
# temporaries stay near 0.5 MB.
_PRESSURE_ROWS = 8


def _check_normal_traces(u, u_bdry, frame, what):
    """Raise BCViolation unless max |u_perp| <= 1e-6 * max(max|u|, 1) on
    each row of the (rows, 2, n1, n2) block u, whose boundary values
    (boundary_rows) are u_bdry; without a boundary there is nothing to check."""
    if not frame:
        return
    worst = np.max([np.max(np.abs(p), axis=-1) for p in project(frame, u_bdry, "nu")], axis=0)
    bad = np.flatnonzero(worst > _BC_TOL * np.maximum(max_speed(u), 1.0))
    if bad.size:
        raise BCViolation(
            f"{what}: |u_perp| = {worst[bad[0]]:.3e} exceeds {_BC_TOL:.1e} * scale")


def check_normal_trace(u: VectorField, what):
    """Raise BCViolation unless max |u_perp| <= 1e-6 * max(max|u|, 1)."""
    frame = boundary_frame(u.grid)
    block = _block(u)[np.newaxis]
    _check_normal_traces(block, boundary_rows(block, frame), frame, what)


def solve_transport(grid: Grid, s, e=None, mu: float = 0.0, a=None,
                    work: Workspace | None = None) -> np.ndarray:
    """The Neumann problem behind every pressure-like scalar, for each row
    of the (rows, 2, n1, n2) blocks s and e:

        lap(q) = -div(s . grad e),  d_nu q = pi(s, e) - mu * da/ds,

    with one boundary vorticity a for all rows, allowing the O(h^2)
    compatibility defect of finite-difference data (fd_tolerance).  e = None
    solves for the pressure of s (e = s), which requires s_perp ~ 0 on the
    boundary: each row is checked first (BCViolation).  Returns the (rows, n1, n2)
    zero-mean solutions, solved _PRESSURE_ROWS rows at a time; each row
    equals its one-row solve bit for bit.  work lends the result and the
    block temporaries of each solve their blocks.
    """
    frame = boundary_frame(grid)
    rtol = fd_tolerance(grid)
    out = _scratch(work, (len(s), *grid.shape))
    for i in range(0, len(s), _PRESSURE_ROWS):
        rows = slice(i, i + _PRESSURE_ROWS)
        si = s[rows]
        ei = si if e is None else e[rows]
        s_bdry = boundary_rows(si, frame)
        if e is None:
            _check_normal_traces(si, s_bdry, frame, "pressure carrier")
        flux = second_fundamental_form(
            frame, s_bdry, s_bdry if e is None else boundary_rows(ei, frame))
        if mu != 0.0 and a is not None:
            flux = [g - mu * sk for g, sk in zip(flux, surface_curl(a, frame))]
        with _frame(work):
            source = None if work is None else work.block((len(si), *grid.shape))
            with _frame(work):
                adv = _advect(grid, si, ei, _pair(work, si.shape))
                source = _div(grid, adv[:, 0], adv[:, 1], work, source)
            out[rows] = _solve_neumann_rows(grid, np.negative(source, out=source), flux, rtol,
                                            work)
    return out


# The single-snapshot entries are the one-row case of solve_transport.

def solve_pressure_ns(u: VectorField, a, mu: float) -> ScalarField:
    """Pressure for the viscous problem with a prescribed boundary vorticity.

    Solves lap(p) = -div(u . grad u) with d_nu p = pi(u, u) - mu * da/ds,
    normalized to zero mean.  Requires u_perp ~ 0 on the boundary.
    """
    return ScalarField(u.grid, solve_transport(u.grid, _block(u)[np.newaxis], None, mu, a)[0])


def solve_pressure_euler(u: VectorField) -> ScalarField:
    """Pressure for the inviscid problem: the mu = 0 case."""
    return solve_pressure_ns(u, None, 0.0)


def solve_pressure_linearized(beta: VectorField, w: VectorField) -> ScalarField:
    """Pressure driving the linearized parabolic step.

    Solves lap(p) = -div(s . grad s) with d_nu p = pi(s, s) for s = beta + w,
    zero mean; requires s_perp ~ 0 on the boundary.
    """
    return solve_pressure_euler(beta + w)


def solve_divergence_coupling(beta: VectorField, w: VectorField, v: VectorField) -> ScalarField:
    """Auxiliary Neumann solve for the divergence diagnostics:
    lap(q) = -div(s . grad e), d_nu q = pi(s, e) with s = beta + w, e = beta - v."""
    s, e = beta + w, beta - v
    return ScalarField(s.grid, solve_transport(s.grid, _block(s)[np.newaxis],
                                               _block(e)[np.newaxis])[0])


def solve_harmonic_q(a, mu: float, frame: BoundaryFrame) -> ScalarField:
    """Harmonic part of the Stokes decoupling: lap(q) = 0 with
    d_nu q = -mu * da/ds, zero mean."""
    grid = frame.grid
    src = ScalarField.zeros(grid)
    if mu == 0.0:
        return src
    g = [-mu * sk for sk in surface_curl(a, frame)]
    # the closed-loop integral of da/ds telescopes to zero exactly, so the
    # defect is roundoff and a tolerance tighter than for given data holds
    return solve_neumann(NeumannProblem(grid, src, g, tol_compat=1e-10))


def solonnikov_ratio(f: VectorField) -> float:
    """||grad phi||_2 / ||f||_2 for the Neumann problem lap(phi) = div f,
    d_nu phi = <f, nu>; the continuous estimate bounds this by 1."""
    fnorm = l2(f)
    if fnorm == 0.0:
        raise DegenerateInput("solonnikov_ratio: f is identically zero")
    grid = f.grid
    flux = normal_component(f, boundary_frame(grid))
    # div f is a finite difference, compatible with <f, nu> only to O(h^2)
    phi = solve_neumann(NeumannProblem(grid, div(f), flux, fd_tolerance(grid)))
    return l2(grad(phi)) / fnorm


# ---------------------------------------------------------------------------
# Dirichlet helper shared with the streamfunction solver

def _dirichlet_laplacian(grid: Grid):
    """Generator rows (generator_rows) of the FD Laplacian of a bounded
    grid, before its wall rows are pinned."""
    h1, h2 = grid.h1, grid.h2
    if grid.polar:
        r = grid.c1
        R = stencil(grid.n1, {-1: 1.0 / h1**2 - 1.0 / (2.0 * h1 * r), 0: -2.0 / h1**2,
                              1: 1.0 / h1**2 + 1.0 / (2.0 * h1 * r)}, False)
        return kron_sum(R, second_difference(grid.n2, 1.0, True), grid, 1.0 / (r * h2) ** 2)
    return kron_sum(second_difference(grid.n1, h1, grid.periodic1),
                    second_difference(grid.n2, h2, grid.periodic2), grid)


def _assemble_dirichlet(grid: Grid):
    """The mode-block solver of the FD Laplacian with identity rows at the
    wall nodes, and the wall nodes in frame order."""
    def build():
        walls = wall_rows(grid)
        A0 = pin_rows(_dirichlet_laplacian(grid), walls, cols=generator_rows(grid)[walls])
        return circulant_solver(A0, grid, splu), [c.nodes for c in boundary_frame(grid)]
    return grid.cached("dirichlet", build)


def solve_dirichlet(grid: Grid, source: np.ndarray, bc_low, bc_high) -> np.ndarray:
    """Solve lap(phi) = source with Dirichlet data on the two walls.

    The walls are the boundary components in frame order (inner/bottom, then
    outer/top); bc_low / bc_high are per-node arrays or scalars.  Raises
    LinearSolveFailed when the solution is not finite, which non-finite data
    makes it.
    """
    solver, walls = _assemble_dirichlet(grid)
    vals = np.array(source, dtype=float)
    for nodes, bc in zip(walls, (bc_low, bc_high)):
        vals.flat[nodes] = bc
    phi = solver.solve(vals.ravel()).reshape(grid.shape)
    require_finite(LinearSolveFailed, "solve_dirichlet", phi)
    return phi
