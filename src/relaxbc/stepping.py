"""Discrete operators of the stiff solver's local time stepping (Osher &
Sanders, Math. Comp. 41, 1983) on a boundary-graded mesh: the time level of
each node with the base cell h of the finest step dt <= CFL h / rho(A1),
counted down from the bulk cell where that saves node updates; the sparse
matrix of one step, assembled once over the whole mesh; and the affine map
of one cycle of 2^K finest steps with its inflow solves and boundary traces,
the step matrix with the cycle's products spliced into its rows near the
boundary, which ``sim.solve_relaxation`` applies through ``csr_product``."""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .tolerances import MESH_ROUNDOFF_REL


def time_levels(dx: np.ndarray) -> tuple[np.ndarray, float]:
    """Time level of each node of a mesh with cells ``dx``, and the base cell
    h that sets the finest step dt <= CFL h / rho(A1).  Node i takes the
    largest k with 2^k h at most its smaller adjacent cell (up to
    round-off), so it meets its own CFL bound; the outflow node copies the
    update of its neighbour, so it shares that neighbour's level.

    Any h no larger than the smallest cell is admissible.  Two are tried:
    the smallest cell, and the bulk cell c, the largest but the last (which
    may be clipped or merged), halved K times for the least K that takes it
    to the smallest cell (up to round-off).  With the second, the bulk steps
    at the full Courant number instead of at c / (2^k h) of it.  A uniform
    or power-of-two mesh, where c / 2^K is the smallest cell up to
    round-off, keeps the smallest cell; otherwise the one with the lower
    node-step rate, sum_i 2^-k_i / h, is kept, and a tie keeps the
    smallest cell."""
    adjacent = np.minimum(np.append(dx, np.inf), np.insert(dx, 0, np.inf))

    def levels(h):
        level = np.floor(np.log2(adjacent / h * (1.0 + MESH_ROUNDOFF_REL))).astype(int)
        level[-1] = level[-2]
        return level, np.ldexp(1.0, -level).sum() / h

    smallest = dx.min()
    base = dx[:-1].max(initial=smallest)
    while base > smallest * (1.0 + MESH_ROUNDOFF_REL):
        base /= 2.0  # exact
    level, rate = levels(smallest)
    if base < smallest * (1.0 - MESH_ROUNDOFF_REL):
        bulk_level, bulk_rate = levels(base)
        if bulk_rate < rate:
            return bulk_level, float(base)
    return level, float(smallest)


def step_operator(lam, R, pos, neg, dx, dt, level, E, r):
    """One stiff step on the characteristic state chi = U R, flattened node by
    node (entry i * n + k is mode k at node i), as one CSR matrix: upwind
    transport, the zero-gradient extrapolation of outgoing characteristics
    at x_max, then the exact source P = R^T blockdiag(I, E) R at every node.
    Node i steps by dt[i] and takes the source E[level[i]] = exp(S dt[i] / eps)
    of its time level, so the row of each node is its own time step.

    Node 0 keeps its incoming characteristics; ``cycle_operator`` replaces
    them by the inflow solve.  The matrix is assembled in one pass over all
    nodes."""
    nx, n = dx.size + 1, lam.size
    i = np.arange(nx)
    # transport sends mode j at node i to
    # w[i, 0, j] chi[left[i, j], j] + w[i, 1, j] chi[left[i, j] + 1, j]
    left = np.repeat(i[:, None], n, axis=1)
    w = np.zeros((nx, 2, n))
    w[:, 0] = 1.0
    for k in pos:  # node i >= 1 upwinds from the cell on its left
        c = dt[1:] * lam[k] / dx
        left[1:, k] = i[:-1]
        w[1:, :, k] = np.column_stack([c, 1.0 - c])
    for k in neg:  # node nx - 1 copies the update of node nx - 2
        c = (dt[:-1] * lam[k] / dx)[np.minimum(i, nx - 2)]
        left[-1, k] = nx - 2
        w[:, :, k] = np.column_stack([1.0 + c, -c])
    used = np.zeros((nx, 2, n), dtype=bool)
    used[:, 0] = True
    used[1:, 1, pos] = True
    used[:, 1, neg] = True
    P = np.empty((len(E), n, n))
    for lev, E_lev in enumerate(E):
        source = np.eye(n)
        source[n - r :, n - r :] = E_lev
        P[lev] = R.T @ source @ R
    # row (i, k) is the sum over j of P[k, j] times the transport of mode j
    # at node i: entry (slot, j) is P[level[i], k, j] w[i, slot, j], where
    # used[i, slot, j], at column (left[i, j] + slot) n + j, so that the
    # columns of a row nearly ascend
    keep = np.broadcast_to(used[:, None], (nx, n, 2, n))
    cols = ((left[:, None, :] + np.arange(2)[:, None]) * n + np.arange(n)).astype(np.int32)
    data = (P[level][:, :, None, :] * w[:, None])[keep]
    indices = np.broadcast_to(cols[:, None], keep.shape)[keep]
    indptr = np.insert(np.cumsum(np.repeat(used.sum(axis=(1, 2)), n), dtype=np.int32), 0, 0)
    return sp.csr_matrix((data, indices, indptr), shape=(nx * n, nx * n))


def csr_product(C, x: np.ndarray, out: np.ndarray):
    """The product with a CSR matrix C of float64 entries from the vector
    ``x`` into the vector ``out``, as a function ``apply()`` that writes
    C x into ``out`` and returns ``out``.

    ``apply`` calls scipy's ``_sparsetools.csr_matvec``, the kernel that
    ``C @ x`` ends in, so its result is that of ``C @ x`` bit for bit.  The
    stiff time loop takes one product per cycle, and on the cycle matrices
    of a convergence study (1,600 to 12,000 rows) the argument checks,
    dispatch and output allocation of ``@`` add 7-30% to the product.  The
    kernel is private scipy and reads no shapes, so C, ``x`` and ``out`` are
    checked here, once: a loop that alternates two state buffers binds one
    ``apply`` each way.  A test pins the kernel against ``C @ x``."""
    if C.format != "csr" or C.dtype != np.float64:
        raise TypeError(f"expected a float64 CSR matrix, got {C.format} {C.dtype}")
    m, k = C.shape
    for name, v, size in (("x", x, k), ("out", out, m)):
        if v.shape != (size,) or v.dtype != np.float64 or not v.flags.c_contiguous:
            raise ValueError(f"C is {m} x {k}; {name} is {v.dtype} {v.shape}")
    if not out.flags.writeable or np.shares_memory(x, out):
        raise ValueError("out must be writeable and must not overlap x")
    kernel = functools.partial(
        _sparsetools.csr_matvec, m, k, C.indptr, C.indices, C.data, x, out
    )

    def apply():
        out.fill(0.0)  # the kernel adds C x to out
        kernel()
        return out

    return apply


def cycle_operator(A, level, pos, rest, inflow_b, inflow_rest, R):
    """One local-time-stepping cycle, the 2^K finest steps for K =
    level.max(), each followed by the inflow solve chi_+ = inflow_b b +
    inflow_rest chi_rest at node 0, as an affine map of the state chi at its
    start and of the boundary data beta = (b_0, ..., b_{2^K - 1}) of its
    finest steps.  ``A`` is the step matrix of ``step_operator``.

    Returns ``(C, H, G, step_nnz)``: the state at the end of the cycle is
    C chi plus H beta on its first H.shape[0] entries; the boundary traces
    at its 2^K finest steps, stacked, are G (chi[:g], beta) with
    g = G.shape[1] - H.shape[1]; step_nnz counts the nonzeros of ``A``.

    The scheme is linear, so the map is exact, and the inflow solve still
    follows the source, so B U(0, t) = b(t) holds after every finest step.
    Nodes at the top level update once, at the start of the cycle, so their
    rows of C are those of ``A``; only node 0, whose inflow solve follows
    every step, the nodes below the top level and the boundary data need
    products.  Those are formed densely on the rows of ``A`` at these nodes
    and their neighbours, whose rows read one node further, and C is ``A``
    with the rows below the top level spliced in."""
    n = R.shape[0]
    top = int(level.max())
    cycle = 2**top
    nb = pos.size

    def spread(nodes):  # node mask -> flat state indices
        return (np.flatnonzero(nodes)[:, None] * n + np.arange(n)).ravel()

    def widen(nodes):  # the nodes and their neighbours
        return nodes | np.append(nodes[1:], False) | np.insert(nodes[:-1], 0, False)

    low = level < top
    low[0] = True
    ext = widen(low)
    rows, cols = spread(ext), spread(widen(ext))
    ncol = cols.size
    head = A[rows]
    X = np.zeros((rows.size, ncol + cycle * nb))
    X[:, :ncol] = head[:, cols].toarray()
    within = head[:, rows]
    row_level = np.repeat(level[ext], n)
    active = [np.flatnonzero(row_level <= v) for v in range(top)]
    ops = [within[a] for a in active]
    G = np.empty((cycle * n, X.shape[1]))  # the traces, stacked
    # X holds the rows of ``rows``, of which node 0 is the first n
    for s in range(cycle):
        if s:  # the nodes of level <= v_2(s) advance from the current state
            v = (s & -s).bit_length() - 1
            X[active[v]] = ops[v] @ X
        X[pos] = inflow_rest @ X[rest]
        X[pos, ncol + s * nb : ncol + (s + 1) * nb] += inflow_b
        G[s * n : (s + 1) * n] = R @ X[:n]
    # the rows that changed: C takes their state columns, and H those that
    # the boundary data reach, up to the last
    low_rows, lows = spread(low), np.repeat(low[ext], n)
    Y = X[lows]
    del X, head, within, ops  # free the dense rows before C is made
    # C takes the nonzeros of Y in low_rows, in ascending column order, and
    # keeps the other rows of A, entries in order, copied a run of rows at a
    # time, so that no full-size temporary is made beside A and C
    nz_row, nz_col = np.nonzero(Y[:, :ncol])
    counts = np.diff(A.indptr)
    counts[low_rows] = np.bincount(nz_row, minlength=low_rows.size)
    indptr = np.insert(np.cumsum(counts, dtype=A.indptr.dtype), 0, 0)
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=A.indices.dtype)
    at = indptr[low_rows][nz_row] + np.arange(nz_row.size) - np.searchsorted(nz_row, nz_row)
    data[at], indices[at] = Y[nz_row, nz_col], cols[nz_col]
    stay = np.repeat(~low, n)
    for lo, hi in np.flatnonzero(np.diff(stay, prepend=False, append=False)).reshape(-1, 2):
        run, a, b = slice(indptr[lo], indptr[hi]), A.indptr[lo], A.indptr[hi]
        data[run], indices[run] = A.data[a:b], A.indices[a:b]
    C = sp.csr_matrix((data, indices, indptr), shape=A.shape)
    hit = np.any(Y[:, ncol:] != 0, axis=1)
    H = np.zeros((low_rows[hit].max(initial=-1) + 1, Y.shape[1] - ncol))
    H[low_rows[hit]] = Y[hit, ncol:]
    # the traces read the state up to the last column they touch
    hit = np.any(G[:, :ncol] != 0, axis=0)
    G_head = np.zeros((G.shape[0], cols[hit].max(initial=-1) + 1))
    G_head[:, cols[hit]] = G[:, :ncol][:, hit]
    return C, H, np.hstack([G_head, G[:, ncol:]]), A.nnz
