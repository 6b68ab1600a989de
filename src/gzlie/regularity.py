"""Centralizers, regularity, strong regularity and the differential
criterion for the partial chain-restriction map.

Every reader here takes x through its Gaussian-integer image
(matrices.ZiMatrix) and the chain through AlgebraContext.walk, one
integer step per level, and its systems stay over Z[i] to the rank.

Tests that need only a dimension take the rank of a centralizer system;
nullspace bases are built only for callers that want the vectors.  One
writer, _centralizer_system, writes every system: from the column
supports and the nonzero cells of the image's integers, so it makes no
matrix product, each row made primitive by the kernel's one row
normalizer (matrices._kernel_rows, which every Q(i) row also goes
through), and in the coordinates of g: [y, x] lies in g, so each x gives
one row per basis position of g (n(n-1)/2 rows on so(n), not n^2).  x is
nsreg when z_k(x) = 0, the system of [y, x] = 0 over the basis of k
having rank dim k: a yes/no question that matrices.full_rank_zi_rows
answers row by row, True at the (dim k)-th pivot and False once the
pivots plus the rows left fall below dim k, leaving the other rows
uneliminated.  Strong regularity is nsreg at every chain level above the
floor, each level decided the same way (see is_sreg); chain_centralizers
keeps its definition as the reference.
Readers of both ranks at every level (centralizer dimensions and the
analysis report) write the top system once, in coordinates adapted to the
whole chain (_chain_data), and eliminate it once, its rows going in one
level at a time from the floor up: after level m the pivots left
of dim g_m and of dim g_(m-1) are the two ranks of that level (see
chain_centralizer_ranks).  That elimination runs mod p first, and the
exact one only when a level's modular ranks miss their proven bounds
(see _chain_ranks).

Kostant's criterion (Amer. J. Math. 85, 1963) asks whether the generators
of the invariants are linearly independent at x, and any generating set
gives the same answer.  The Jacobian rank readers (kostant_jacobian_rank,
full_map_jacobian_rank and docio.analysis_report) therefore read the
power sums p_j = tr(x^j), whose gradient pairs V with j x^(j-1)
(_power_gradients).  Newton's identities make each coefficient b_j of
det(t*I - x) equal to -p_j / j plus a polynomial in p_1..p_(j-1), so the
change from the coefficient generators
to the power sums is triangular with a constant nonzero diagonal, and at
every x both sets of gradients span the same space.  On so(m) the odd p_j
and b_j vanish identically, and so do their gradients along so(m): the
odd powers x, x^3, ... stand for the coefficients, each one product from
the last through x^2, and on even so the Pfaffian row stays as it is.
The powers are those of invariants._level_powers, the level's one power
recurrence, from which the generator values are read too (Newton's
identities, invariants._char_coeffs), so the analysis report forms each
level's powers once for its values and its Jacobian rows.
partial_map_jacobian reads the exact coefficient gradients
(_coefficient_gradients) off the same powers: the auxiliary matrix
M_j = b_0 X^(j-1) + ... + b_(j-1) I of the adjugate expansion sums them
with the integer coefficients b_i(X) of Newton's identities, the odd
powers alone on so, with no product.  The Pfaffian row reads the
Pfaffians of the cofactors of S*X, all from one memo of sub-Pfaffians on
the integers X = d*x_m.

_level_gradient_rows is the one pairing and lifting step, and the rows
stay over Z[i] from the gradient matrices to the rank, since a row scaled
by a nonzero constant spans the same line: a row is the pairing of an
integer matrix G (M_j(X), X^(j-1) or the cofactors of S*X) with the
basis supports of g_m (tr(G b) is the sum of c * G[j][i] over the
support (i, j, c) of b).  Each row is lifted to the basis of g through
AlgebraContext.down_coords of every level above
(tr(G down(b_k)) is a weighted sum of the pairings with the child's
basis), so no basis matrix is projected and no gradient embedded.  Every
row carries its scale: d^(j-1), times -sign on a coefficient row, or
d^((m-2)/2), the degree of the cofactors, on the Pfaffian row, then times
s^e for e steps through even so, where s = 2.  The Jacobian ranks
eliminate the integer rows directly (matrices.rank_zi_rows), and
partial_map_jacobian divides by the scales.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import gcd

from .matrices import (rank_zi_rows, full_rank_zi_rows,
                       nested_pivots_zi_rows, nullspace_zi_rows, zi_matrix,
                       _kernel_rows, _mod_pivots, _qi)
from .liealg import embed_from_subalgebra
from .invariants import (generator_spec, pfaffian_minors, _level_powers,
                         _newton_ints, _reduced)


def _bracket_block(ctx, a, supports):
    """block[r][k]: coordinate r (basis position r of g) of [b_k, A] for
    the int matrix A and the basis vector b_k with the k-th support.
    [E_ij, A] is row j of A placed in row i minus column i of A placed in
    column j, so each column is written from its support and the nonzero
    cells of the rows and columns of A, read once; a cell off the basis
    positions is skipped."""
    at = ctx.position_index
    row_cells = [[(q, v) for q, v in enumerate(r) if v] for r in a]
    col_cells = [[] for _ in a]
    for p, cells in enumerate(row_cells):
        for q, v in cells:
            col_cells[q].append((p, v))
    block = [[0] * len(supports) for _ in range(ctx.dim)]
    for k, support in enumerate(supports):
        for i, j, c in support:
            at_i = at[i]
            for q, v in row_cells[j]:
                r = at_i[q]
                if r is not None:
                    block[r][k] += c * v
            for p, v in col_cells[i]:
                r = at[p][j]
                if r is not None:
                    block[r][k] -= c * v
    return block


def _centralizer_system(ctx, images, supports):
    """Rows of the linear system [y, x] = 0 (x of each ZiMatrix in images),
    one column per vector of ``supports``, in the kernel's form: pairs
    [re, im] of int lists, im None when real.  supports is the basis of g
    or of k.

    The system is homogeneous, so it is written for d*x, the image's
    integers, and each row is divided by its integer content; zero rows
    are left out (matrices._kernel_rows).  [y, x] lies in g, so its
    coordinates fix it: each x gives one row per basis position of g
    (ctx.position_index), n(n-1)/2 rows on so(n) and n^2 on gl(n).  On
    so(n) the other cells repeat these up to sign (the cell
    (n-1-j, n-1-i) holds minus the cell (i, j)) or are zero (the
    antidiagonal), so the row space is that of all n^2 cells: ranks and
    pivot columns are the same, and so are nullspaces, read off the unique
    reduced form."""
    rows = []
    for re, im, _ in images:
        block_re = _bracket_block(ctx, re, supports)
        block_im = (_bracket_block(ctx, im, supports) if im is not None
                    else [None] * len(block_re))
        rows += _kernel_rows(zip(block_re, block_im))
    return rows


def _centralizer_basis(ctx, images, supports):
    """Basis of {y : [y, x] = 0 for x of each ZiMatrix in images} in the
    span of the vectors with the given supports (of g or of k), each
    written through those supports (AlgebraContext.from_coordinates)."""
    ns = nullspace_zi_rows(_centralizer_system(ctx, images, supports),
                           len(supports))
    return [ctx.from_coordinates(coeffs, supports) for coeffs in ns]


def joint_centralizer(ctx, mats):
    """Basis of {y in g : [y, x] = 0 for all x in mats}."""
    return _centralizer_basis(ctx, [zi_matrix(x.a) for x in mats],
                              ctx.basis_supports)


def chain_centralizer_ranks(ctx, mat):
    """(rank of the k-system, rank of the g-system) of [y, x_m] = 0 at every
    chain level m, top first: dim k_m - dim z_(k_m)(x_m) and
    dim g_m - dim z_(g_m)(x_m), all from one nested elimination of the
    top system (_chain_ranks)."""
    return _chain_ranks(ctx, zi_matrix(mat.a))


def _chain_ranks(ctx, image):
    """chain_centralizer_ranks of the x whose ZiMatrix is image.

    The system is written once, over the columns of _chain_data(ctx): the
    coordinates of [c, x] for every column c, d*x being the image's
    integers (_bracket_block).  Level m's rows are its recipes read on
    them.  For c in (the image of) g_m, a recipe of level m or below reads
    a coordinate of the step down of [c, x] to g_m, which is [c, x_m]:
    g_(m-1) is the theta-fixed k of g_m, the step down reads k and kills
    p, and [k, p] lies in p.  The recipes of the
    levels up to m read a basis of the dual of g_m there, so on the first
    d_m = dim g_m columns those rows are the centralizer system of x_m, and
    on the first d_(m-1) (spanning k_m = g_(m-1)) its k-system.

    The levels go to the kernel one block at a time, floor first: after
    level m the pivots left of column d_m are the g-rank of level m and
    those left of d_(m-1) its k-rank, since a forward pass pivots column by
    column from the left and the rows of the lower levels, read through the
    step down, lie in the span of level m's.  The k-rank of the floor is 0
    (k is 0 there).

    Each rank has a proven upper bound: the k-rank of level m is at most
    d_(m-1) = dim k_m, its column count, and the g-rank at most
    d_m - rank g_m, since a centralizer in a reductive g_m has dimension at
    least its rank (Kostant, Amer. J. Math. 85, 1963).  The blocks first go
    through the modular filter (matrices._mod_pivots), whose ranks are
    lower bounds; when every level reaches both bounds, the bounds are the
    ranks.  Otherwise the exact pass (matrices.nested_pivots_zi_rows) runs
    on the same blocks."""
    columns, recipes, dims = _chain_data(ctx)
    re, im, _ = image
    block_re = _bracket_block(ctx, re, columns)
    block_im = None if im is None else _bracket_block(ctx, im, columns)
    blocks = [_kernel_rows(
        (_read_recipe(block_re, terms),
         None if block_im is None else _read_recipe(block_im, terms))
        for terms in level) for level in recipes]

    def read(nested):
        ranks, lower = [], 0
        for dim, pivots in zip(dims, nested):
            ranks.append((bisect_left(pivots, lower),
                          bisect_left(pivots, dim)))
            lower = dim
        return ranks

    bounds = [(lower, dim - lvl.invariant_rank()) for lvl, lower, dim
              in zip(ctx.levels[::-1], (0,) + dims, dims)]
    ranks = read(_mod_pivots(blocks, ctx.dim))
    if ranks != bounds:
        ranks = read(nested_pivots_zi_rows(blocks, ctx.dim))
    return ranks[::-1]


@lru_cache(maxsize=None)
def _chain_data(ctx):
    """(columns, recipes, dims): the chain of ctx in coordinates adapted to
    every level, built once per context from the child's and the int cells
    of one step (AlgebraContext._up_cells and down_coords), with no Q(i)
    product:

    - columns: elements of g as int supports (i, j, c), one per nonzero
      cell: the floor basis, then the completion vectors of each level above
      it (AlgebraContext.completion_supports), each carried up to g by the
      integer step up and divided by the gcd of its entries;
    - recipes: one list per level, floor first, of functionals on g as
      terms (basis position r of g, int weight) divided by their gcd: the
      positions of the level's completion vectors (every position at the
      floor), each read through the composite step down;
    - dims: dim g_m per level, floor first.

    The first dims[k] columns span level k; the recipes of the levels up to
    k read a basis of its dual on them.  On gl the data is a permutation;
    on so a column has at most four entries and a recipe two terms."""
    at = ctx.position_index
    columns = [tuple(sup) for sup in ctx.completion_supports]
    recipes = [((at[i][j], 1),) for (i, j, _), *_ in ctx.completion_supports]
    if ctx.child is None:
        return columns, (recipes,), (ctx.dim,)
    below_columns, below_recipes, below_dims = _chain_data(ctx.child)
    # a child cell (i, j) -> the cells ((p, q), w) of the step up reading
    # it; a child position l -> the terms (k, w) of coordinate l of down(z)
    up_reads = {}
    for p, crow in enumerate(ctx._up_cells):
        for q, terms in enumerate(crow):
            for i, j, w in terms:
                up_reads.setdefault((i, j), []).append(((p, q), w))
    down_reads = [[] for _ in range(ctx.child.dim)]
    for k, pairs in enumerate(ctx.down_coords):
        for l, w in pairs:
            down_reads[l].append((k, w))
    return ([tuple((p, q, c) for (p, q), c in
                   _compose((((i, j), c) for i, j, c in column), up_reads))
             for column in below_columns] + columns,
            tuple([_compose(terms, down_reads) for terms in level]
                  for level in below_recipes) + (recipes,),
            below_dims + (ctx.dim,))


def _compose(terms, reads):
    """The terms (key, c) read through reads (key -> terms (key', w)): the
    terms (key', sum of c * w) with a nonzero sum, in key order, divided by
    the gcd of the sums."""
    acc = {}
    for key, c in terms:
        for key2, w in reads[key]:
            acc[key2] = acc.get(key2, 0) + c * w
    items = sorted((key, v) for key, v in acc.items() if v)
    g = gcd(*(v for _, v in items))
    return tuple((key, v // g) for key, v in items)


def _read_recipe(block, terms):
    """The sum of w * block[r] over the terms (r, w) of a recipe, as a new
    list."""
    (r, w), *rest = terms
    row = [w * v for v in block[r]] if w != 1 else block[r][:]
    for r, w in rest:
        for k, v in enumerate(block[r]):
            if v:
                row[k] += w * v
    return row


def nsreg_intersection(ctx, mat):
    """Basis of z_k(x) = {y in k : [y, x] = 0}, which is
    z_k(x_k) intersect z_g(x)."""
    return _centralizer_basis(ctx, [zi_matrix(mat.a)], ctx.k_supports)


def is_nsreg(ctx, mat):
    """z_k(x) = 0: Ad(K) x has dimension dim k."""
    return _nsreg(ctx, zi_matrix(mat.a))


def _nsreg(ctx, image):
    """is_nsreg of the x whose ZiMatrix is image."""
    return full_rank_zi_rows(
        _centralizer_system(ctx, [image], ctx.k_supports), ctx.k_dim())


def _pfaffian_gradient(minors, m):
    """(re, im), the Gaussian-integer G with d pf(S X)(V) = tr(G V) for
    X = d x in so(m) and V in so(m), im None when real, from minors, the
    sub-Pfaffian memo of S X (invariants.pfaffian_minors).  The derivative
    of pf(A) in a_ij (i < j) is (-1)^(i+j+1) pf(A without rows and columns
    i, j), and (S V)_ij = V_(m-1-i)j, so that cofactor Pfaffian sits at
    (j, m-1-i).  Each cofactor has degree (m-2)/2, so G over d^((m-2)/2)
    is the gradient of pf(S x).  The cofactors with i = 0 are the minors of
    the expansion of pf(S X) along its first row, so once G is built
    minors reads pf(S X) with m - 1 products."""
    re = [[0] * m for _ in range(m)]
    im = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            u, v = minors(tuple(k for k in range(m) if k != i and k != j))
            if (i + j) % 2 == 0:
                u, v = -u, -v
            re[j][m - 1 - i], im[j][m - 1 - i] = u, v
    return re, (im if any(map(any, im)) else None)


def _pair_with_basis(g, supports):
    """[tr(G b) for each basis vector b] for an int matrix G given by its
    rows g: tr(G b) is the sum of c * G[j][i] over the support (i, j, c)
    of b."""
    row = []
    for support in supports:
        v = 0
        for i, j, c in support:
            v += g[j][i] if c == 1 else -g[j][i]
        row.append(v)
    return row


def _lift(vals, down_coords):
    """A row against the basis of a child, read against the basis of its
    parent: entry k is the sum of w * vals[l] over down_coords[k], that is
    down_scale times the pairing with down(b_k)."""
    out = []
    for pairs in down_coords:
        v = 0
        for l, w in pairs:
            v += w * vals[l]
        out.append(v)
    return out


def _level_gradient_rows(ctx, lvl, grads):
    """Gradient rows of the chain level lvl against the basis of g, as pairs
    ([re, im], scale): re + i*im is a Gaussian-integer row (im None when
    real) and the gradient is that row divided by the nonzero int scale.
    grads are the level's gradient matrices as pairs ((re, im), scale),
    G = re + i*im with the gradient tr(G V) / scale at x_m, from
    _coefficient_gradients or _power_gradients.

    Each gradient matrix is paired with the basis of g_m through its
    supports, then lifted level by level through down_coords: projection
    is v -> PD v TD, so the pairing of G with down(b_k) is the sum of the
    weights of down(b_k) times the pairings with the child's basis, and
    each level above multiplies the scale by its down_scale."""
    supports = lvl.basis_supports
    rows = []
    for (re, im), scale in grads:
        row_re = _pair_with_basis(re, supports)
        row_im = None if im is None else _pair_with_basis(im, supports)
        for upper in reversed(ctx.levels[:ctx.n - lvl.n]):
            row_re = _lift(row_re, upper.down_coords)
            if row_im is not None:
                row_im = _lift(row_im, upper.down_coords)
            scale *= upper.down_scale
        rows.append(([row_re, row_im if row_im and any(row_im) else None],
                     scale))
    return rows


def _power_gradients(lvl, powers, minors, d):
    """Gradient matrices for _level_gradient_rows from the level's powers of
    X = d*x_m (invariants._level_powers) and the sub-Pfaffian memo minors
    of X (invariants.pfaffian_minors): for each (j, sign) of
    generator_spec(lvl).coeffs X^(j-1) over d^(j-1), the gradient of
    p_j / j, then the Pfaffian row over d^((m-2)/2) unless minors is None."""
    return ([(powers[j - 1], d ** (j - 1))
             for j, _ in generator_spec(lvl).coeffs]
            + ([] if minors is None else [(_pfaffian_gradient(minors, lvl.n),
                                           d ** ((lvl.n - 2) // 2))]))


def _zi_combination(terms):
    """The sum of c * P over the terms (c, P), c a Gaussian integer (re, im)
    and P a square matrix (re, im) of int rows, im None when real."""
    m = len(terms[0][1][0])
    zero = [[0] * m] * m
    re, im = [], []                      # real terms (c, int matrix)
    for (c_re, c_im), (p_re, p_im) in terms:
        re += [(c_re, p_re), (-c_im, p_im or zero)]
        im += [(c_im, p_re), (c_re, p_im or zero)]
    re, im = ([[sum(c * p[i][k] for c, p in part) for k in range(m)]
               for i in range(m)] for part in (re, im))
    return re, (im if any(map(any, im)) else None)


def _coefficient_gradients(lvl, powers, minors, d):
    """The power gradients with each X^(j-1) replaced by the auxiliary
    matrix M_j = b_0 X^(j-1) + ... + b_(j-1) I, b_i = b_i(X) from
    invariants._newton_ints, and its scale by -sign times it:
    d b_j = -tr(M_j V) / d^(j-1).  On so the odd b_i are checked to vanish
    first (ValueError, as in level_values), so M_j sums odd powers alone."""
    spec = generator_spec(lvl)
    b = _newton_ints(lvl, powers)
    _reduced(spec, [_qi(re, im, 1) for re, im in b[1:]])
    grads = _power_gradients(lvl, powers, minors, d)
    return [(_zi_combination([(b[i], powers[j - 1 - i])
                              for i in range(0, j, 1 + spec.even)]),
             -sign * scale) for (j, sign), (_, scale)
            in zip(spec.coeffs, grads)] + grads[len(spec.coeffs):]


def _gradients_at(gradients, lvl, image):
    """gradients(lvl, powers, minors, d) read off the ZiMatrix of x_m."""
    return gradients(lvl, _level_powers(lvl, image),
                     pfaffian_minors(lvl, image), image.d)


def _partial_rows(ctx, mat, gradients):
    """The gradient rows of levels n-1 and n, with their scales, each
    level's gradient matrices built by gradients off its ZiMatrix."""
    image = zi_matrix(mat.a)
    return [row for lvl, img in ((ctx.child, ctx.down_zi(image)),
                                 (ctx, image))
            for row in _level_gradient_rows(
                ctx, lvl, _gradients_at(gradients, lvl, img))]


def partial_map_jacobian(ctx, mat):
    """Jacobian of the two-level restriction map in algebra coordinates:
    rows are generator gradients of levels n-1 and n, columns the basis of
    g; each is its Gaussian-integer row divided by its scale."""
    return [[_qi(x, 0, scale) for x in re] if im is None else
            [_qi(x, y, scale) for x, y in zip(re, im)]
            for (re, im), scale in _partial_rows(ctx, mat,
                                                 _coefficient_gradients)]


def kostant_jacobian_rank(ctx, mat):
    """Rank of partial_map_jacobian, from the power gradient rows."""
    return rank_zi_rows([row for row, _ in
                         _partial_rows(ctx, mat, _power_gradients)],
                        ctx.dim)


def full_map_jacobian_rank(ctx, mat):
    """Rank of the Jacobian of the generators of every chain level, from
    the power gradient rows."""
    return rank_zi_rows([row for lvl, image in ctx.walk(zi_matrix(mat.a))
                         for row, _ in _level_gradient_rows(
                             ctx, lvl,
                             _gradients_at(_power_gradients, lvl, image))],
                        ctx.dim)


def chain_centralizers(ctx, mat):
    """For every chain level, the centralizer of the projection, embedded
    back into the top algebra; returned as {level: list of flattened rows}."""
    return {lvl.n: [embed_from_subalgebra(ctx, z, lvl.n).flatten()
                    for z in _centralizer_basis(lvl, [image],
                                                lvl.basis_supports)]
            for lvl, image in ctx.walk(zi_matrix(mat.a))}


def is_sreg(ctx, mat):
    """Strong regularity: consecutive chain centralizers intersect
    trivially.  g_(m-1) is the theta-fixed k of g_m, so the intersection at
    (m-1, m) is the nsreg intersection of x_m (Kostant-Wallach's centralizer
    criterion): x is sreg iff it is nsreg at every level above the floor.
    (This also forces every projection to be regular.)"""
    return all(_nsreg(lvl, image) for lvl, image in ctx.walk(zi_matrix(mat.a))
               if lvl.child is not None)
