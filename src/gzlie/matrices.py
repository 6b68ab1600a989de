"""Dense exact matrices over Q(i).

The exact kernel works on Gaussian integers held as pairs of Python ints;
rationals appear only at its boundary.  ``zi_matrix`` is the one reader of
numerators and denominators: it takes Q(i) rows to a ZiMatrix (re, im, d)
over their least common denominator.  A Q(i) row enters the kernel as a
row of that ZiMatrix shaped by ``_kernel_rows``, the one row normalizer:
divided by the gcd of its integer parts, so primitive, and left out when
zero (``_zi_rows``).  Results leave the kernel through ``_qi``
(``qi_matrix`` for a whole matrix).  Rows already over Z[i], such as the
centralizer systems of gzlie.regularity, pass through ``_kernel_rows``
too and enter through ``rank_zi_rows``, ``full_rank_zi_rows``,
``nested_pivots_zi_rows`` and ``nullspace_zi_rows``.

Rank, nullspace, solve, inverse, row-space membership and the polynomial
gcd of gzlie.polys all read one fraction-free row update, ``_update``: a
row with entry f under pivot p becomes p*row - f*prow (p and f first
divided by their common integer factor); when it was scaled, its integer
parts are then divided by their gcd, the row content, and a row with an
imaginary part also by the gcd in Z[i] of its entries.  That keeps
entries small without the fractions of Gauss-Jordan elimination.  Two
forward passes apply it, and both return only their pivot columns.

rank, rank_rows, rank_zi_rows, full_rank_zi_rows and nested_pivots_zi_rows
return only the rank, whether it is full, or the pivot columns, which
depend only on the row space, not on the order of elimination (Dumas,
Pernet and Sultan, J. Symbolic Comput. 83, 2017).  They take the
row-by-row (left-looking) pass, ``_forward_rows``, over their rows sorted
by size (``_row_size``, the sum of the absolute values of the integer
parts), smallest first, so that small rows become the pivots and more
updates find a pivot that divides their entry and take the unscaled path:
each row is reduced against the pivot rows kept so far and kept if it
leaves a nonzero entry in the first ``ncols`` columns.  The pass stops
once all ``ncols`` columns have pivots, and full_rank_zi_rows answers
False once the pivots plus the rows left fall below ncols.
nested_pivots_zi_rows carries its kept rows from block to block without
eliminating them again; row_space_contains and intersection_dim read it: a
vector is in a span when it adds no pivot after the span's rows.

nullspace, solve, inverse and last_rref_row take the column-by-column
pass, ``_echelon``, over the rows in the order given, with a fixed
pivoting rule: the first nonzero entry, scanning columns left to right and
rows top to bottom.  nullspace, solve and inverse read the reduced row
echelon form, dividing by each pivot once at the end; that form is unique,
so their results do not depend on the order of elimination, nor on the
scaling or order of the rows.  The gcd reads only its last nonzero row
(``last_rref_row``): the last pivot row of the forward pass divided by its
pivot, since that row is zero left of its pivot and no later pivot would
clear it.  On augmented rows whose rank exceeds that of their first
``ncols`` columns that row depends on the order of elimination, so
last_rref_row keeps the column-by-column pass.

det is (-1)^n times the last Faddeev-LeVerrier coefficient (below), not an
elimination; the package decides invertibility by rank.

char_poly_fl runs Faddeev-LeVerrier on X = d*A, d the least common
denominator of A, over Z[i], where its division by k is exact, and rescales
the coefficients by d^k; it takes A as a Mat or as its ZiMatrix, the form
in which a chain level arrives from gzlie.liealg.AlgebraContext.walk.  An
n x n run takes n - 2 matrix products: X M_1 is X, and at k = n only the
trace of X M_n is read.  Its auxiliary matrices stay the recurrence's
integers M_k(X) (AuxMatrices): the Jacobian rows of gzlie.regularity read
them with d and never leave Z[i]; the Q(i) matrices are
M_k(A) = M_k(X)/d^(k-1).
``zi_sub_pfaffians`` is the one Pfaffian expansion: a memo of the
sub-Pfaffians of an antisymmetric Gaussian-integer matrix, which the
generator values, the Jacobian rows and the analysis report read, and
``pfaffian`` reads it on the integers of a Q(i) matrix.

No code path of the package uses jets.  tests/qi_reference.py keeps a
ring-generic Pfaffian and Faddeev-LeVerrier loop, which it runs on
first-order jets, next to the Q(i) Gauss-Jordan references.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import mul as _mul

from .scalars import QI, ZERO, ONE, _mpq

_Q0 = ZERO.re


class Mat:
    __slots__ = ("m", "n", "a")

    def __init__(self, rows):
        self.a = [list(r) for r in rows]
        self.m = len(self.a)
        self.n = len(self.a[0]) if self.a else 0
        for r in self.a:
            if len(r) != self.n:
                raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, m, n=None):
        if n is None:
            n = m
        return cls([[ZERO] * n for _ in range(m)])

    @classmethod
    def identity(cls, n):
        z = cls.zeros(n, n)
        for k in range(n):
            z.a[k][k] = ONE
        return z

    # sums, differences and multiples leave an entry as it is when the other
    # operand is zero: chain projections of sparse matrices are mostly zeros
    def __add__(self, other):
        return Mat([[x + y if y else x for x, y in zip(r, s)]
                    for r, s in zip(self.a, other.a)])

    def __sub__(self, other):
        return Mat([[x - y if y else x for x, y in zip(r, s)]
                    for r, s in zip(self.a, other.a)])

    def __neg__(self):
        return Mat([[-x for x in r] for r in self.a])

    @classmethod
    def _raw(cls, rows):
        s = object.__new__(cls)
        s.a = rows
        s.m = len(rows)
        s.n = len(rows[0]) if rows else 0
        return s

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.n != other.m:
                raise ValueError("shape mismatch")
            b = other.a
            out = [[ZERO] * other.n for _ in range(self.m)]
            for i, row in enumerate(self.a):
                oi = out[i]
                for k, x in enumerate(row):
                    if x:
                        for j, y in enumerate(b[k]):
                            if y:
                                v = oi[j]
                                oi[j] = x * y if v is ZERO else v + x * y
                # a sum that cancelled is the shared ZERO; entries never
                # written are ZERO already and are not tested
                for j, v in enumerate(oi):
                    if v is not ZERO and not v:
                        oi[j] = ZERO
            return Mat._raw(out)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def scale(self, c):
        return Mat([[c * x if x else x for x in r] for r in self.a])

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.m == other.m
                and self.n == other.n and self.a == other.a)

    def is_zero(self):
        return all(not x for r in self.a for x in r)

    def flatten(self):
        return [x for r in self.a for x in r]

    def __repr__(self):
        return "Mat(%r)" % (self.a,)


def bracket(x, y):
    return x * y - y * x


# --- the exact kernel over Z[i] ---------------------------------------------
#
# A row of Q(i) scalars enters the kernel as a Gaussian-integer row: a pair
# [re, im] of int lists (im is None while the row is real), read off
# zi_matrix and divided by the gcd of its integer parts (_kernel_rows).
# Results leave it through _qi.


def _zi_rows(rows):
    """The kernel's rows of Q(i) rows: the integers of their zi_matrix,
    each row primitive, the zero rows left out (_kernel_rows)."""
    re, im, _ = zi_matrix(rows)
    return _kernel_rows(zip(re, im or [None] * len(re)))


def _kernel_rows(pairs):
    """The pairs (re, im) of int rows, im None or all zero when real, in
    the kernel's form: each divided by the gcd of its integer parts, and
    the zero rows left out."""
    rows = []
    for r, s in pairs:
        if s is not None and not any(s):
            s = None
        g = gcd(*r, *(s or ()))
        if not g:
            continue
        if g > 1:
            r = [v // g for v in r]
            if s is not None:
                s = [v // g for v in s]
        rows.append([r, s])
    return rows


# (re, im, d): the matrix (re + i*im) / d with re and im int rows (im None
# when every entry is real) over one common denominator d
ZiMatrix = namedtuple("ZiMatrix", "re im d")


def zi_matrix(rows):
    """The ZiMatrix of Q(i) rows, any iterable of them, over their least
    common denominator d.  One loop over the entries collects the
    denominators and whether any imaginary part is nonzero; at d = 1 the
    numerators are the integers."""
    rows = list(rows)
    dens = set()
    gaussian = False
    for r in rows:
        for z in r:
            if z is not ZERO:
                dens.add(z.re.denominator)
                if z.im:
                    gaussian = True
                    dens.add(z.im.denominator)
    d = lcm(*dens)
    if d == 1:
        re = [[0 if z is ZERO else z.re.numerator for z in r] for r in rows]
        im = ([[0 if z is ZERO else z.im.numerator for z in r] for r in rows]
              if gaussian else None)
    else:
        re = [[0 if z is ZERO else z.re.numerator * (d // z.re.denominator)
               for z in r] for r in rows]
        im = ([[0 if z is ZERO else z.im.numerator * (d // z.im.denominator)
                for z in r] for r in rows] if gaussian else None)
    return ZiMatrix(re, im, d)


def qi_matrix(re, im, d):
    """The Q(i) matrix (re + i*im) / d of int rows, im None when real."""
    if im is None:
        return Mat._raw([[_qi(x, 0, d) for x in r] for r in re])
    return Mat._raw([[_qi(x, y, d) for x, y in zip(r, s)]
                     for r, s in zip(re, im)])


def _qi(x, y, p, q=0):
    """(x + i*y) / (p + i*q) for Gaussian integers, as a Q(i) scalar."""
    if not (x or y):
        return ZERO
    if q:
        x, y, p = x * p + y * q, y * p - x * q, p * p + q * q
    return QI._raw(_mpq(x, p), _mpq(y, p) if y else _Q0)


def _zi_content(re, im):
    """A gcd (p, q), p + i*q, in Z[i] of the entries re[c] + i*im[c], not
    all zero: Euclid with nearest-integer quotients from the integer gcd of
    their norms, which it divides, stopping at (1, 0) on a unit."""
    p = q = 0
    for a, b in zip(re, im):
        p = gcd(p, a * a + b * b)
    if p == 1:
        return 1, 0
    for a, b in zip(re, im):
        while a or b:
            n = a * a + b * b
            x, y = p * a + q * b, q * a - p * b       # (p + iq)(a - ib)
            u, v = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
            p, q, a, b = a, b, p - u * a + v * b, q - u * b - v * a
        if p * p + q * q == 1:
            return 1, 0
    return p, q


def _pivot(row, pc):
    """What _update reads of the pivot row ``row`` (a kernel row, zero left
    of its pivot column pc): (pc, p, q, re, im, qim, live), p + i*q its
    pivot, qim its imaginary parts (zeros when im is None), live its
    nonzero columns."""
    re, im = row
    if im is None:
        return (pc, re[pc], 0, re, None, [0] * len(re),
                [c for c in range(pc, len(re)) if re[c]])
    return (pc, re[pc], im[pc], re, im, im,
            [c for c in range(pc, len(re)) if re[c] or im[c]])


def _update(row, pivot, start):
    """The one fraction-free row update, in place: ``row``, whose entry
    f + i*h in the pivot column is nonzero, becomes p'*row - f'*prow for
    the pivot row prow with pivot p + i*q (see _pivot), where p' and f' are
    p and f divided by the gcd of their integer parts (signed so that a
    negative integer pivot gives p' > 0).  When p' is not 1 the row is then
    divided by the gcd g of its integer parts and, if it still has an
    imaginary part, by its gcd c in Z[i] (without which a factor such as
    1 + i would stay and grow).  The row stays a nonzero multiple of the
    row that elimination over Q(i) would give.  Both rows are zero left of
    column ``start``, or the pivot row alone is (then start is 0)."""
    pc, p, q, pre, pim, qim, live = pivot
    re, im = row
    f = re[pc]
    h = im[pc] if im is not None else 0
    g = gcd(p, q, f, h)
    if p < 0 and not q:
        g = -g
    a, b, f, h = p // g, q // g, f // g, h // g
    if pim is None and im is None:
        if a == 1:
            for c in live:
                re[c] -= f * pre[c]
            return
        re[start:] = [a * x - f * u
                      for x, u in zip(re[start:], pre[start:])]
        g = gcd(*re)
        if g > 1:
            re[:] = [x // g for x in re]
        return
    if im is None:
        im = row[1] = [0] * len(re)
    if a == 1 and not b:
        for c in live:
            u, v = pre[c], qim[c]
            re[c] -= f * u - h * v
            im[c] -= f * v + h * u
    else:
        re, im = ([a * x - b * y - f * u + h * v
                   for x, y, u, v in zip(re, im, pre, qim)],
                  [a * y + b * x - f * v - h * u
                   for x, y, u, v in zip(re, im, pre, qim)])
        g = gcd(*re, *im)
        if g > 1:
            re = [x // g for x in re]
            im = [y // g for y in im]
        c, e = _zi_content(re, im) if any(im) else (1, 0)
        if e or c != 1:
            n = c * c + e * e
            re, im = ([(x * c + y * e) // n for x, y in zip(re, im)],
                      [(y * c - x * e) // n for x, y in zip(re, im)])
        row[0] = re
    row[1] = im if any(im) else None


def _echelon(rows, ncols, reduced=False):
    """Fraction-free elimination of Gaussian-integer rows (see _zi_rows) in
    place, column by column; returns the pivot columns.

    The pivot is the first nonzero entry, scanning the first ``ncols``
    columns left to right and rows top to bottom.  Every row with a nonzero
    entry in the pivot column takes the one update (_update) by the pivot
    row; rows with a zero there are not touched, and each row stays a
    nonzero multiple of the row that elimination over Q(i) would give, so
    the pivots are the same.  The forward pass clears below each pivot;
    with ``reduced`` it clears above as well, and row k divided by its
    pivot is row k of the reduced row echelon form.  Row operations run
    across the whole row, so an augmented block comes along.
    """
    pivots = []
    nrows = len(rows)
    for pc in range(ncols):
        pr = len(pivots)
        if pr == nrows:
            break
        for r in range(pr, nrows):
            re, im = rows[r]
            if re[pc] or (im is not None and im[pc]):
                break
        else:
            continue
        rows[pr], rows[r] = rows[r], rows[pr]
        pivots.append(pc)
        pivot = _pivot(rows[pr], pc)
        start = 0 if reduced else pc
        for r in range(0 if reduced else pr + 1, nrows):
            re, im = row = rows[r]
            if (re[pc] or (im is not None and im[pc])) and r != pr:
                _update(row, pivot, start)
    return pivots


def _row_size(row):
    """Sort key of a kernel row (see rank_zi_rows): the sum of the absolute
    values of its integer parts."""
    re, im = row
    if im is None:
        return sum(map(abs, re))
    return sum(map(abs, re)) + sum(map(abs, im))


def rank(mat):
    return rank_zi_rows(_zi_rows(mat.a), mat.n)


def rank_rows(row_vectors, ncols):
    return rank_zi_rows(_zi_rows(row_vectors), ncols)


def _forward_rows(rows, ncols, kept, need=0):
    """The row-by-row forward pass: each of ``rows`` (kernel rows, in the
    order given) is reduced against ``kept``, the pivot rows so far (pivot
    column -> _pivot), scanning its first ``ncols`` columns left to right:
    a nonzero entry in a pivot column takes the update (_update) by that
    pivot row, and the first nonzero entry in any other column makes the
    row the pivot row of that column; a row left zero there is dropped.
    Each kept row is zero left of its pivot, so the kept rows are in
    echelon form and span the rows so far, and their pivot columns are
    those of the column-by-column pass, which depend only on that span.
    The pass stops once every column has a pivot, and once the pivots plus
    the rows left fall below ``need``.  Returns kept.  The rows are
    consumed."""
    left = len(rows)
    for row in rows:
        if len(kept) == ncols or len(kept) + left < need:
            break
        left -= 1
        re, im = row
        for c in range(ncols):
            if re[c] or (im is not None and im[c]):
                pivot = kept.get(c)
                if pivot is None:
                    kept[c] = _pivot(row, c)
                    break
                _update(row, pivot, c)
                re, im = row
    return kept


def rank_zi_rows(rows, ncols):
    """Rank of rows already in the kernel's form, pairs [re, im] of int
    lists (im None while the row is real), on their first ``ncols``
    columns, from the row-by-row pass over the rows sorted by size
    (_forward_rows).  The rows are consumed."""
    return len(_forward_rows(sorted(rows, key=_row_size), ncols, {}))


def full_rank_zi_rows(rows, ncols):
    """Do rows in the kernel's form (see rank_zi_rows) have rank ``ncols``
    on their first ``ncols`` columns?  The row-by-row pass answers True at
    the ncols-th pivot and False as soon as the pivots plus the rows left
    fall below ncols, eliminating no further row.  The rows are
    consumed."""
    return len(_forward_rows(sorted(rows, key=_row_size), ncols, {},
                             ncols)) == ncols


def nested_pivots_zi_rows(blocks, ncols):
    """For blocks of rows in the kernel's form (see rank_zi_rows), yields
    after each block the pivot columns, in increasing order, of the forward
    pass over the rows of that block and every block before it.  The
    pivots left of column c are the rank of the first c columns, since the
    pivot columns are those of a pass that clears them column by column
    from the left.  One row-by-row pass (_forward_rows) runs over the
    blocks in turn, each sorted by size, and its pivot rows carry over
    from block to block without being eliminated again.  The rows are
    consumed."""
    kept = {}
    for block in blocks:
        _forward_rows(sorted(block, key=_row_size), ncols, kept)
        yield sorted(kept)


def last_rref_row(rows, ncols):
    """The last nonzero row of the reduced row echelon form of Q(i) rows,
    eliminating on the first ``ncols`` columns; [] at rank 0."""
    zi = _zi_rows(rows)
    pivots = _echelon(zi, ncols)
    if not pivots:
        return []
    pc = pivots[-1]
    re, im = zi[len(pivots) - 1]
    if im is None:
        return [_qi(x, 0, re[pc]) for x in re]
    return [_qi(x, y, re[pc], im[pc]) for x, y in zip(re, im)]


def nullspace(mat):
    """Deterministic basis of the right kernel, one vector (length-n list)
    per free column, 1 at that column and 0 at the other free columns."""
    return nullspace_zi_rows(_zi_rows(mat.a), mat.n)


def nullspace_zi_rows(rows, ncols):
    """nullspace of the matrix with ``ncols`` columns whose rows, in the
    kernel's form (see rank_zi_rows), span its row space; no rows is the
    zero matrix.  The vectors are Q(i) lists, read off the reduced row
    echelon form, which depends only on that row space.  The rows are
    consumed."""
    pivots = _echelon(rows, ncols, reduced=True)
    free = sorted(set(range(ncols)) - set(pivots))
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for (re, im), pc in zip(rows, pivots):
            if im is None:
                vec[pc] = _qi(-re[fc], 0, re[pc])
            else:
                vec[pc] = _qi(-re[fc], -im[fc], re[pc], im[pc])
        basis.append(vec)
    return basis


def det(mat):
    """Determinant: (-1)^n b_n, the last coefficient of det(t*I - A) from
    char_poly_fl; ONE at size 0."""
    if mat.m != mat.n:
        raise ValueError("determinant of non-square matrix")
    coeffs, _ = char_poly_fl(mat)
    if not coeffs:
        return ONE
    return -coeffs[-1] if mat.n % 2 else coeffs[-1]


def solve(mat, rhs):
    """Solve mat * X = rhs for a matrix rhs; None if inconsistent.
    Free coordinates are set to 0."""
    if rhs.m != mat.m:
        raise ValueError("shape mismatch")
    n = mat.n
    rows = _zi_rows([list(r) + list(s) for r, s in zip(mat.a, rhs.a)])
    pivots = _echelon(rows, n + rhs.n, reduced=True)
    if pivots and pivots[-1] >= n:
        return None
    out = [[ZERO] * rhs.n for _ in range(n)]
    for (re, im), pc in zip(rows, pivots):
        if im is None:
            p = re[pc]
            out[pc] = [_qi(x, 0, p) for x in re[n:]]
        else:
            p, q = re[pc], im[pc]
            out[pc] = [_qi(x, y, p, q) for x, y in zip(re[n:], im[n:])]
    return Mat._raw(out)


def inverse(mat):
    if mat.m != mat.n:
        raise ValueError("inverse of non-square matrix")
    x = solve(mat, Mat.identity(mat.n))
    if x is None:
        raise ValueError("singular matrix")
    return x


def _imatmul(a, b):
    """Product of int matrices (lists of rows)."""
    cols = list(zip(*b))
    return [[sum(map(_mul, row, col)) for col in cols] for row in a]


def _itrace(a, b):
    """tr(a b) of square int matrices, without forming the product."""
    return sum(sum(map(_mul, row, col)) for row, col in zip(a, zip(*b)))


# the auxiliary matrices of one Faddeev-LeVerrier run on X = d*A, held as
# the recurrence's Gaussian integers: ints[k] is the pair (re, im) of int
# rows of M_(k+1)(X) = d^k M_(k+1)(A), im None while X is real.  Readers
# must not mutate ints.
AuxMatrices = namedtuple("AuxMatrices", "d ints")


def char_poly_fl(mat):
    """Faddeev-LeVerrier over Q(i).  Returns (coeffs, aux) where
    det(t*I - A) = t^n + b[0]*t^(n-1) + ... + b[n-1]
    and aux holds the matrices M_{k+1} with directional derivative
    d b[k](A; V) = -trace(M_{k+1} * V).

    The recurrence M_1 = I, b_k = -tr(X M_k)/k, M_(k+1) = X M_k + b_k I runs
    on the Gaussian-integer matrix X = d*A, d the least common denominator
    of the entries; there the division by k is exact.  Then
    b_k(A) = b_k(X)/d^k and M_k(A) = M_k(X)/d^(k-1).  It forms n - 2
    products (four real ones each for a Gaussian X): X M_1 is a copy of X,
    and at k = n, where only b_n is read, tr(X M_n) is the sum of
    X_ij (M_n)_ji (_itrace) and X M_n is not formed.  aux is an
    AuxMatrices (d, ints): the recurrence's own integers, which the
    Jacobian rows of gzlie.regularity read without leaving Z[i].
    ``mat`` is a Mat, or already the ZiMatrix of A over that d (a chain
    level's image, see AlgebraContext.walk).
    """
    xre, xim, d = mat if isinstance(mat, ZiMatrix) else zi_matrix(mat.a)
    n = len(xre)
    if n == 0:
        return [], AuxMatrices(1, [])
    mre = [[int(i == j) for j in range(n)] for i in range(n)]
    mim = None
    coeffs, ints = [], []
    dk = 1                               # d^(k-1)
    for k in range(1, n + 1):
        ints.append((mre, mim))
        dk *= d
        if k == n:
            # only b_n is read: tr(X M_n), no product
            tr_re = _itrace(xre, mre)
            tr_im = 0
            if xim is not None:
                tr_im = _itrace(xim, mre)
                if mim is not None:
                    tr_re -= _itrace(xim, mim)
                    tr_im += _itrace(xre, mim)
            coeffs.append(_qi(-tr_re // k, -tr_im // k, dk))
            break
        if k == 1:                       # X M_1 = X
            are = [list(r) for r in xre]
            aim = [list(r) for r in xim] if xim is not None else None
        elif xim is None:
            are, aim = _imatmul(xre, mre), None
        else:
            are, aim = _imatmul(xre, mre), _imatmul(xim, mre)
            if mim is not None:
                are = [[x - y for x, y in zip(r, s)]
                       for r, s in zip(are, _imatmul(xim, mim))]
                aim = [[x + y for x, y in zip(r, s)]
                       for r, s in zip(aim, _imatmul(xre, mim))]
        br = -sum(are[i][i] for i in range(n)) // k
        bi = -sum(aim[i][i] for i in range(n)) // k if aim else 0
        coeffs.append(_qi(br, bi, dk))
        for i in range(n):
            are[i][i] += br
            if aim:
                aim[i][i] += bi
        mre, mim = are, aim
    return coeffs, AuxMatrices(d, ints)


def char_poly(mat):
    """Monic characteristic polynomial of A, low degree first:
    det(t*I - A) as a coefficient list [c0, ..., 1]."""
    coeffs, _ = char_poly_fl(mat)
    return coeffs[::-1] + [ONE]


def pfaffian(mat):
    """Pfaffian of an antisymmetric Q(i) matrix A of even size n: the
    sub-Pfaffian memo (zi_sub_pfaffians) of X = d*A, d the least common
    denominator, read at all n indices and divided by d^(n/2)."""
    n = mat.n
    if n % 2 != 0:
        raise ValueError("pfaffian needs even size")
    re, im, d = zi_matrix(mat.a)
    return _qi(*zi_sub_pfaffians(re, im)(tuple(range(n))), d ** (n // 2))


def zi_sub_pfaffians(re, im):
    """pf(idx): the Pfaffian (p, q), p + i*q, of the rows and columns idx
    (an increasing tuple of even length) of the antisymmetric
    Gaussian-integer matrix re + i*im (im None when real), by expansion
    along the first index.  One memo serves every call of the returned pf,
    so the Pfaffians of many principal submatrices share their minors;
    real and Gaussian matrices share this path.  Raises ValueError unless
    the matrix is square and antisymmetric."""
    for part in (re,) if im is None else (re, im):
        if [[-v for v in col] for col in zip(*part)] != part:
            raise ValueError("matrix is not antisymmetric")
    memo = {}

    def pf(idx):
        if not idx:
            return 1, 0
        got = memo.get(idx)
        if got is not None:
            return got
        i = idx[0]
        rest = idx[1:]
        row_re = re[i]
        row_im = im[i] if im is not None else None
        p = q = 0
        for t, j in enumerate(rest):
            a = row_re[j]
            b = row_im[j] if row_im is not None else 0
            if not (a or b):
                continue
            if t % 2 == 1:
                a, b = -a, -b
            u, v = pf(rest[:t] + rest[t + 1:])
            p += a * u - b * v
            q += a * v + b * u
        memo[idx] = p, q
        return p, q

    return pf


def row_space_contains(basis_rows, vec, ncols):
    """Is vec in the row span of basis_rows?  Exact: vec goes into one
    forward pass after the basis rows (nested_pivots_zi_rows), and it is
    in their span when it adds no pivot.  The two blocks are converted
    apart, since _zi_rows leaves zero rows out: a zero vec adds no pivot,
    so it is in every span."""
    before, after = nested_pivots_zi_rows(
        [_zi_rows(basis_rows), _zi_rows([vec])], ncols)
    return len(before) == len(after)


def intersection_dim(rows_a, rows_b, ncols):
    """dim(span A  intersect  span B) for row-vector collections: rank A +
    rank B - rank (A, B), the first and last from one nested pass."""
    ra, rab = map(len, nested_pivots_zi_rows(
        [_zi_rows(rows_a), _zi_rows(rows_b)], ncols))
    return ra + rank_rows(rows_b, ncols) - rab
