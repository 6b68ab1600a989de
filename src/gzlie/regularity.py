"""Centralizers, regularity, strong regularity and the differential
criterion for the partial chain-restriction map.

Tests that need only a dimension take the rank of a centralizer system;
nullspace bases are built only for callers that want the vectors.  A
system is written from the basis supports, so it makes no matrix product.
x is nsreg when z_k(x) = 0, the system of [y, x] = 0 over the basis of k
having rank dim k.  Strong regularity is nsreg at every chain level (see
is_sreg); chain_centralizers keeps its definition as the reference.  The
per-level tests read each level m with x_m from AlgebraContext.chain(x).

Differentials of characteristic coefficients are read off the auxiliary
matrices of the Faddeev-LeVerrier recurrence (the adjugate expansion), which
gives every gradient row from a single recurrence per chain level; the
Pfaffian row reads the Pfaffians of the cofactors of S*x, all from one memo
of sub-Pfaffians.  A gradient at a lower level is embedded into g once and
paired with the basis of g there: projection is v -> L v R and embedding
G -> R G L, so tr(G proj(v)) = tr(embed(G) v), and the basis is never
projected.  The pairing reads G through the basis supports:
tr(G b) is the sum of c * G[j][i] over the support (i, j, c) of b.
"""

from __future__ import annotations

from .scalars import ZERO
from .matrices import Mat, nullspace, rank_rows, char_poly_fl, sub_pfaffians
from .liealg import embed_from_subalgebra
from .invariants import generator_spec


def _ambient_basis(ctx, ambient):
    if ambient == "g":
        return ctx.basis, ctx.basis_supports
    if ambient == "k":
        return ctx.k_basis, ctx.k_supports
    raise ValueError("ambient must be 'g' or 'k'")


def _centralizer_system(ctx, mats, ambient):
    """Rows of the linear system [y, x] = 0 (x in mats) in the coordinates
    of the ambient basis, and that basis.  [E_ij, x] is row j of x placed
    in row i minus column i of x placed in column j, so each column is
    written from the support of its basis vector and the nonzero cells of
    the rows and columns of x, read once per x."""
    basis, supports = _ambient_basis(ctx, ambient)
    size = ctx.n
    rows = []
    for x in mats:
        row_cells = [[(q, v) for q, v in enumerate(r) if v] for r in x.a]
        col_cells = [[] for _ in range(size)]
        for p, cells in enumerate(row_cells):
            for q, v in cells:
                col_cells[q].append((p, v))
        row_neg = [[(q, -v) for q, v in cells] for cells in row_cells]
        col_neg = [[(p, -v) for p, v in cells] for cells in col_cells]
        block = [[ZERO] * len(basis) for _ in range(size * size)]
        for k, support in enumerate(supports):
            for i, j, c in support:
                src, dst = ((row_cells, col_neg) if c == 1
                            else (row_neg, col_cells))
                cells = [(i * size + q, v) for q, v in src[j]]
                cells += [(p * size + j, v) for p, v in dst[i]]
                for cell, v in cells:
                    row = block[cell]
                    row[k] = v if row[k] is ZERO else row[k] + v
        rows.extend(block)
    return rows, basis


def _centralizer_rank(ctx, mats, ambient="g"):
    """Rank of the joint centralizer system: dim ambient - dim centralizer."""
    rows, basis = _centralizer_system(ctx, mats, ambient)
    return rank_rows(rows, len(basis))


def joint_centralizer(ctx, mats, ambient="g"):
    """Basis of {y in ambient : [y, x] = 0 for all x in mats}."""
    rows, basis = _centralizer_system(ctx, mats, ambient)
    ns = nullspace(Mat(rows)) if rows else []
    return [sum((c * b for c, b in zip(coeffs, basis) if c),
                Mat.zeros(basis[0].n)) for coeffs in ns]


def centralizer_dims(ctx, mat):
    """dim z_{g_m}(x_m) = dim g_m - rank, for every chain level m from the
    floor up."""
    return [lvl.dim - _centralizer_rank(lvl, [xm])
            for lvl, xm in ctx.chain(mat)][::-1]


def nsreg_intersection(ctx, mat):
    """Basis of z_k(x) = {y in k : [y, x] = 0}, which is
    z_k(x_k) intersect z_g(x)."""
    return joint_centralizer(ctx, [mat], "k")


def is_nsreg(ctx, mat):
    """z_k(x) = 0: Ad(K) x has dimension dim k."""
    return _centralizer_rank(ctx, [mat], "k") == ctx.k_dim()


def _pfaffian_gradient(x):
    """G with d pf(S x)(V) = tr(G V) for x, V in so(m); S x is x with its
    rows reversed.  The derivative of pf(A) in a_ij (i < j) is
    (-1)^(i+j+1) pf(A without rows and columns i, j), and
    (S V)_ij = V_(m-1-i)j, so that cofactor Pfaffian sits at (j, m-1-i).
    Every cofactor is a sub-Pfaffian of the same S x, so all of them read
    one memo."""
    m = x.n
    pf = sub_pfaffians(x.a[::-1])
    grad = Mat.zeros(m)
    for i in range(m):
        for j in range(i + 1, m):
            v = pf(tuple(k for k in range(m) if k != i and k != j))
            grad.a[j][m - 1 - i] = v if (i + j) % 2 else -v
    return grad


def _basis_pairing(g, supports, sign):
    """[sign * tr(G b) for each basis vector b], G given by its rows g:
    tr(G b) is the sum of c * G[j][i] over the support (i, j, c) of b.  A
    sum that cancels is the shared ZERO."""
    row = []
    for support in supports:
        s = ZERO
        for i, j, c in support:
            v = g[j][i]
            if v:
                v = v if c == sign else -v
                if s is ZERO:
                    s = v
                else:
                    s = s + v
                    s = s if s else ZERO
        row.append(s)
    return row


def _level_gradient_rows(ctx, lvl, xm):
    """Gradient rows (one per generator of the chain level lvl, at the
    projection xm of x there) against the basis of g: each gradient matrix
    is embedded into g and paired with the basis there through the basis
    supports."""
    spec = generator_spec(lvl)
    _, aux = char_poly_fl(xm)          # aux[j-1] = M_j, d b_j = -tr(M_j V)
    grads = [(-sign, aux[j - 1]) for j, sign in spec.coeffs]
    if spec.pfaffian:
        grads.append((1, _pfaffian_gradient(xm)))
    return [_basis_pairing(embed_from_subalgebra(ctx, grad, lvl.n).a,
                           ctx.basis_supports, sign)
            for sign, grad in grads]


def partial_map_jacobian(ctx, mat):
    """Jacobian of the two-level restriction map in algebra coordinates:
    rows are generator gradients of levels n-1 and n, columns the basis of
    g."""
    return (_level_gradient_rows(ctx, ctx.child, ctx.down(mat))
            + _level_gradient_rows(ctx, ctx, mat))


def kostant_jacobian_rank(ctx, mat):
    return rank_rows(partial_map_jacobian(ctx, mat), ctx.dim)


def full_map_jacobian_rank(ctx, mat):
    return rank_rows([row for lvl, xm in ctx.chain(mat)
                      for row in _level_gradient_rows(ctx, lvl, xm)],
                     ctx.dim)


def chain_centralizers(ctx, mat):
    """For every chain level, the centralizer of the projection, embedded
    back into the top algebra; returned as {level: list of flattened rows}."""
    return {lvl.n: [embed_from_subalgebra(ctx, z, lvl.n).flatten()
                    for z in joint_centralizer(lvl, [xm])]
            for lvl, xm in ctx.chain(mat)}


def is_sreg(ctx, mat):
    """Strong regularity: consecutive chain centralizers intersect
    trivially.  g_(m-1) is the theta-fixed k of g_m, so the intersection at
    (m-1, m) is the nsreg intersection of x_m (Kostant-Wallach's centralizer
    criterion): x is sreg iff it is nsreg at every level above the floor.
    (This also forces every projection to be regular.)"""
    return all(is_nsreg(lvl, xm) for lvl, xm in ctx.chain(mat)
               if lvl.child is not None)
