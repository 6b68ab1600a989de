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
entries small without the fractions of Gauss-Jordan elimination.

One forward pass applies it, the row-by-row (left-looking)
``_forward_rows``, over the rows sorted by size (``_row_size``, the sum of
the absolute values of the integer parts), smallest first, so that small
rows become the pivots and more updates find a pivot that divides their
entry and take the unscaled path: each row is reduced against the pivot
rows kept so far and kept if it leaves a nonzero entry in the first
``ncols`` columns.  The pass stops once all ``ncols`` columns have
pivots, and full_rank_zi_rows answers False once the pivots plus the rows
left fall below ncols.  Its pivot columns, and the reduced row echelon
form, depend only on the row space, not on the order of elimination
(Dumas, Pernet and Sultan, J. Symbolic Comput. 83, 2017).

rank, rank_rows, rank_zi_rows, full_rank_zi_rows and nested_pivots_zi_rows
read the pivot columns.  nested_pivots_zi_rows carries its kept rows from
block to block without eliminating them again; row_space_contains and
intersection_dim read it: a vector is in a span when it adds no pivot
after the span's rows.  nullspace, solve and inverse read the reduced row
echelon form (``_reduced_rows``): the pass, then one back-substitution
from the last pivot up, dividing by each pivot once at the end.  The gcd
reads only its last nonzero row (``last_rref_row``), which needs no
back-substitution.

A rank with a proven upper bound may first go through the modular filter
(``_mod_pivots``, ``_certified_rank``): the same row-by-row pass over F_p,
p = 32749, with i sent to a square root of -1 mod p, a ring map
Z[i] -> F_p.  A minor nonzero mod p is nonzero, so the modular rank of any
column prefix is a lower bound of the exact one, and when it reaches the
caller's upper bound it is the exact rank: a filter with a proof.  When
it does not, the exact pass runs on the same rows, so the exact kernel
stays the only source of an uncertified answer.  Its readers are the
chain ranks of gzlie.regularity, the Jacobian rank of the analysis report
and polys.gcd_degree; full_rank_zi_rows and the kostant ranks stay exact.

det is (-1)^n times the last Faddeev-LeVerrier coefficient (below), not an
elimination; the package decides invertibility by rank.

char_poly_fl runs Faddeev-LeVerrier over Z[i] on X = d*A, d the least
common denominator of A, in n - 2 products of ``_zi_matmul``, the one
Gaussian-integer product, and returns the coefficients alone, keeping no
auxiliary matrix.  It is the general-matrix routine, read only by
char_poly and det.  Every chain reader (generator values, coincidence
count, Jacobian rows and ranks) reads one power recurrence per level
instead (gzlie.invariants._level_powers, whose products are ``_zi_matmul``
too, with the coefficients from Newton's identities on power sums that
``_zi_trace`` reads as tr(a b) without the product).
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
from operator import add as _add, mul as _mul, sub as _sub

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
    echelon form and span the rows so far, and their pivot columns depend
    only on that span.  The pass stops once every column has a pivot, and
    once the pivots plus the rows left fall below ``need``.  Returns kept.
    The rows are consumed."""
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
    kept rows are in echelon form.  One row-by-row pass (_forward_rows)
    runs over the blocks in turn, each sorted by size, and its pivot rows
    carry over from block to block without being eliminated again.  The
    rows are consumed."""
    kept = {}
    for block in blocks:
        _forward_rows(sorted(block, key=_row_size), ncols, kept)
        yield sorted(kept)


# p = 32749 is the largest prime below 2^15 and is 1 mod 4, s^2 = -1 mod p,
# and a product of two residues fits one 30-bit digit of a CPython int
_P, _S = 32749, 15645


def _mod_pivots(blocks, ncols):
    """nested_pivots_zi_rows over F_p: the row-by-row pass of _forward_rows
    on each kernel row converted afresh (i -> _S), each pivot row scaled to
    pivot 1 and carried from block to block, each update only over the
    pivot row's live columns.  Left of any column the count of its pivots
    is at most the exact rank there, since a minor nonzero mod p is
    nonzero.  The rows are not consumed."""
    kept = {}
    for block in blocks:
        for re, im in block:
            if len(kept) == ncols:
                break
            row = ([x % _P for x in re] if im is None else
                   [(x + _S * y) % _P for x, y in zip(re, im)])
            for c in range(ncols):
                f = row[c]
                if f:
                    pivot = kept.get(c)
                    if pivot is None:
                        inv = pow(f, -1, _P)
                        row = [x * inv % _P for x in row]
                        kept[c] = row, [k for k in range(c, len(row))
                                        if row[k]]
                        break
                    prow, live = pivot
                    for k in live:
                        row[k] = (row[k] - f * prow[k]) % _P
        yield sorted(kept)


def _certified_rank(rows, ncols, bound):
    """rank_zi_rows of rows whose rank is known to be at most ``bound``: the
    modular rank (_mod_pivots) when it reaches bound, since it is then
    exact, and otherwise the exact pass.  The rows are consumed only by the
    exact pass."""
    (pivots,) = _mod_pivots([rows], ncols)
    return bound if len(pivots) == bound else rank_zi_rows(rows, ncols)


def _reduced_rows(rows, ncols):
    """(pivots, rows) of the reduced row echelon form of rows in the
    kernel's form (see rank_zi_rows) on their first ``ncols`` columns: the
    pivot columns in increasing order and, for each, its pivot row, which
    divided by its pivot is that row of the reduced form.  The row-by-row
    pass (_forward_rows) runs over the rows sorted by size; then one
    back-substitution, from the last pivot to the second, updates every
    earlier row nonzero in that pivot's column by the pivot row (_update),
    whose pivot data are read afresh (_pivot): the earlier updates have
    changed the row since the forward pass kept it.  The rows are
    consumed."""
    kept = _forward_rows(sorted(rows, key=_row_size), ncols, {})
    pivots = sorted(kept)
    rows = [list(kept[pc][3:5]) for pc in pivots]
    for k in range(len(pivots) - 1, 0, -1):
        pc = pivots[k]
        pivot = _pivot(rows[k], pc)
        for row in rows[:k]:
            re, im = row
            if re[pc] or (im is not None and im[pc]):
                _update(row, pivot, 0)
    return pivots, rows


def last_rref_row(rows):
    """The last nonzero row of the reduced row echelon form of Q(i) rows;
    [] at rank 0.  It needs no back-substitution: the forward pass's pivot
    row of the largest pivot column is zero left of that column, and the
    row space holds one such row up to a factor, so that row divided by
    its pivot is the answer."""
    zi = _zi_rows(rows)
    if not zi:
        return []
    kept = _forward_rows(sorted(zi, key=_row_size), len(zi[0][0]), {})
    pc, _, _, re, im, _, _ = kept[max(kept)]
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
    pivots, rows = _reduced_rows(rows, ncols)
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
    """Determinant: (-1)^n b_n, the constant term of char_poly (ONE at
    size 0)."""
    if mat.m != mat.n:
        raise ValueError("determinant of non-square matrix")
    b_n = char_poly(mat)[0]
    return -b_n if mat.n % 2 else b_n


def solve(mat, rhs):
    """Solve mat * X = rhs for a matrix rhs; None if inconsistent.
    Free coordinates are set to 0."""
    if rhs.m != mat.m:
        raise ValueError("shape mismatch")
    n = mat.n
    rows = _zi_rows([list(r) + list(s) for r, s in zip(mat.a, rhs.a)])
    pivots, rows = _reduced_rows(rows, n + rhs.n)
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


def _zi_matmul(a, b):
    """The product of Gaussian-integer matrices held as pairs (re, im) of
    int rows, im None when real: one _imatmul per pair of parts."""
    (ar, ai), (br, bi) = a, b
    re = _imatmul(ar, br)
    if bi is None:
        return re, None if ai is None else _imatmul(ai, br)
    im = _imatmul(ar, bi)
    if ai is not None:
        for r, s, t, u in zip(re, _imatmul(ai, bi), im, _imatmul(ai, br)):
            r[:] = map(_sub, r, s)
            t[:] = map(_add, t, u)
    return re, im


def _itrace(a, b):
    """tr(a b) of square int matrices, without forming the product."""
    return sum(sum(map(_mul, row, col)) for row, col in zip(a, zip(*b)))


def _zi_trace(a, b):
    """tr(a b), (re, im), of Gaussian-integer matrices held as pairs
    (re, im) of int rows, im None when real: one _itrace per pair of
    parts, no product formed."""
    (ar, ai), (br, bi) = a, b
    re, im = _itrace(ar, br), 0
    if ai is not None:
        im = _itrace(ai, br)
    if bi is not None:
        im += _itrace(ar, bi)
        if ai is not None:
            re -= _itrace(ai, bi)
    return re, im


def char_poly_fl(mat):
    """Faddeev-LeVerrier over Q(i): the coefficients b[0..n-1] of
    det(t*I - A) = t^n + b[0]*t^(n-1) + ... + b[n-1].

    The recurrence M_1 = I, b_k = -tr(X M_k)/k, M_(k+1) = X M_k + b_k I runs
    on the Gaussian-integer matrix X = d*A, d the least common denominator
    of the entries; there the division by k is exact.  Then
    b_k(A) = b_k(X)/d^k.  Every tr(X M_k) is the sum of X_ij (M_k)_ji
    (_zi_trace), and X M_1 is a copy of X, so it forms n - 2 products
    (_zi_matmul), X M_k for 1 < k < n.  ``mat`` is a Mat, or already the
    ZiMatrix of A over that d.
    """
    *x, d = mat if isinstance(mat, ZiMatrix) else zi_matrix(mat.a)
    n = len(x[0])
    m = [[int(i == j) for j in range(n)] for i in range(n)], None
    coeffs = []
    for k in range(1, n + 1):
        tr_re, tr_im = _zi_trace(x, m)
        b = (-tr_re // k, -tr_im // k)
        coeffs.append(_qi(*b, d ** k))
        if k < n:                        # M_(k+1) = X M_k + b_k I
            m = [part and [[v + c * (i == j) for j, v in enumerate(row)]
                           for i, row in enumerate(part)]
                 for part, c in zip(_zi_matmul(x, m) if k > 1 else x, b)]
    return coeffs


def char_poly(mat):
    """Monic characteristic polynomial of A, low degree first:
    det(t*I - A) as a coefficient list [c0, ..., 1]."""
    return char_poly_fl(mat)[::-1] + [ONE]


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
