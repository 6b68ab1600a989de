"""Dense exact matrices over Q(i) (and first-order jets where noted).

Rank, nullspace, determinant, solve and inverse all read one exact
elimination, ``_echelon``, with a fixed pivoting rule: the first nonzero
entry, scanning columns left to right and rows top to bottom.  Rank and
determinant take its forward pass; nullspace, solve and inverse read the
reduced row echelon form, which is unique, so their results do not depend
on the order of elimination.
"""

from __future__ import annotations

from .scalars import QI, ZERO, ONE, Jet


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

    @classmethod
    def from_ints(cls, rows):
        return cls([[QI(v) for v in r] for r in rows])

    def copy(self):
        return Mat(self.a)

    def __getitem__(self, ij):
        return self.a[ij[0]][ij[1]]

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
                                oi[j] = oi[j] + x * y
            return Mat._raw(out)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def scale(self, c):
        return Mat([[c * x if x else x for x in r] for r in self.a])

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.m == other.m
                and self.n == other.n and self.a == other.a)

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.a))

    def is_zero(self):
        return all(not x for r in self.a for x in r)

    def transpose(self):
        return Mat([list(c) for c in zip(*self.a)])

    def trace(self):
        t = ZERO
        for k in range(min(self.m, self.n)):
            t = t + self.a[k][k]
        return t

    def flatten(self):
        return [x for r in self.a for x in r]

    def __repr__(self):
        return "Mat(%r)" % (self.a,)

    def pretty(self):
        cells = [[str(x) for x in r] for r in self.a]
        w = max((len(c) for r in cells for c in r), default=1)
        return "\n".join("[" + "  ".join(c.rjust(w) for c in r) + "]"
                         for r in cells)


def bracket(x, y):
    return x * y - y * x


def _echelon(rows, ncols, reduced=False):
    """Eliminate in place; returns (pivot columns, row swaps).

    Pivots are sought in the first ``ncols`` columns, and every row
    operation runs across the whole row, so an augmented block comes along.
    The forward pass clears below each pivot.  With ``reduced`` each pivot
    is scaled to one and cleared above as well (reduced row echelon form).
    """
    pivots = []
    swaps = 0
    nrows = len(rows)
    for pc in range(ncols):
        pr = len(pivots)
        if pr == nrows:
            break
        for r in range(pr, nrows):
            if rows[r][pc]:
                break
        else:
            continue
        if r != pr:
            rows[pr], rows[r] = rows[r], rows[pr]
            swaps += 1
        pivots.append(pc)
        prow = rows[pr]
        live = [c for c in range(pc, len(prow)) if prow[c]]
        inv = ONE / prow[pc]
        if reduced:
            for c in live:
                prow[c] = prow[c] * inv
        for r in range(0 if reduced else pr + 1, nrows):
            f = rows[r][pc]
            if not f or r == pr:
                continue
            if not reduced:
                f = f * inv
            rr = rows[r]
            for c in live:
                rr[c] = rr[c] - f * prow[c]
    return pivots, swaps


def rank(mat):
    return len(_echelon([list(r) for r in mat.a], mat.n)[0])


def rank_rows(row_vectors, ncols):
    return len(_echelon([list(r) for r in row_vectors], ncols)[0])


def nullspace(mat):
    """Deterministic basis of the right kernel, one vector (length-n list)
    per free column, 1 at that column and 0 at the other free columns."""
    rows = [list(r) for r in mat.a]
    pivots, _ = _echelon(rows, mat.n, reduced=True)
    free = sorted(set(range(mat.n)) - set(pivots))
    basis = []
    for fc in free:
        vec = [ZERO] * mat.n
        vec[fc] = ONE
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def det(mat):
    if mat.m != mat.n:
        raise ValueError("determinant of non-square matrix")
    rows = [list(r) for r in mat.a]
    _, swaps = _echelon(rows, mat.n)
    # below full rank the last row is zero, and so is the product
    d = -ONE if swaps % 2 else ONE
    for k, row in enumerate(rows):
        d = d * row[k]
    return d


def solve(mat, rhs):
    """Solve mat * X = rhs for a matrix rhs; None if inconsistent.
    Free coordinates are set to 0."""
    if rhs.m != mat.m:
        raise ValueError("shape mismatch")
    n = mat.n
    rows = [list(r) + list(s) for r, s in zip(mat.a, rhs.a)]
    pivots, _ = _echelon(rows, n + rhs.n, reduced=True)
    if pivots and pivots[-1] >= n:
        return None
    out = [[ZERO] * rhs.n for _ in range(n)]
    for row, pc in zip(rows, pivots):
        out[pc] = row[n:]
    return Mat._raw(out)


def inverse(mat):
    if mat.m != mat.n:
        raise ValueError("inverse of non-square matrix")
    x = solve(mat, Mat.identity(mat.n))
    if x is None:
        raise ValueError("singular matrix")
    return x


def char_poly_fl(mat):
    """Faddeev-LeVerrier.  Returns (coeffs, aux) where
    det(t*I - A) = t^n + b[0]*t^(n-1) + ... + b[n-1]
    and aux[k] is the matrix M_{k+1} with directional derivative
    d b[k](A; V) = -trace(M_{k+1} * V).

    Works over Q(i) and over jets (division only by integers).
    """
    n = mat.n
    if n == 0:
        return [], []
    ident = Mat.identity(n)
    aux = [ident]
    coeffs = []
    mk = ident
    for k in range(1, n + 1):
        am = mat * mk
        bk = -(am.trace() / QI(k))
        coeffs.append(bk)
        if k < n:
            mk = am + bk * ident
            aux.append(mk)
    return coeffs, aux


def char_poly(mat):
    """Monic characteristic polynomial of A, low degree first:
    det(t*I - A) as a coefficient list [c0, ..., 1]."""
    coeffs, _ = char_poly_fl(mat)
    n = mat.n
    p = [ZERO] * (n + 1)
    p[n] = ONE
    for k, b in enumerate(coeffs):
        p[n - 1 - k] = b
    return p


def pfaffian(mat):
    """Pfaffian of an antisymmetric matrix by memoized expansion along the
    first remaining row.  Entries may be QI or Jet."""
    n = mat.n
    if n % 2 != 0:
        raise ValueError("pfaffian needs even size")
    for p in range(n):
        for q in range(p, n):
            if mat.a[p][q] != -mat.a[q][p]:
                raise ValueError("matrix is not antisymmetric")
    a = mat.a
    memo = {}

    def pf(idx):
        if not idx:
            return ONE
        got = memo.get(idx)
        if got is not None:
            return got
        i = idx[0]
        rest = idx[1:]
        s = None
        for t, j in enumerate(rest):
            v = a[i][j]
            if not v:
                continue
            term = v * pf(rest[:t] + rest[t + 1:])
            if t % 2 == 1:
                term = -term
            s = term if s is None else s + term
        if s is None:
            s = a[i][rest[0]] - a[i][rest[0]]  # ring zero
        memo[idx] = s
        return s

    return pf(tuple(range(n)))


def row_space_contains(basis_rows, vec, ncols):
    """Is vec in the row span of basis_rows?  Exact."""
    r0 = rank_rows(basis_rows, ncols)
    r1 = rank_rows(list(basis_rows) + [vec], ncols)
    return r0 == r1


def intersection_dim(rows_a, rows_b, ncols):
    """dim(span A  intersect  span B) for row-vector collections."""
    ra = rank_rows(rows_a, ncols)
    rb = rank_rows(rows_b, ncols)
    rab = rank_rows(list(rows_a) + list(rows_b), ncols)
    return ra + rb - rab


def jet_mat(point, direction):
    """Matrix of jets point + eps*direction."""
    return Mat([[Jet(p, d) for p, d in zip(rp, rd)]
                for rp, rd in zip(point.a, direction.a)])
