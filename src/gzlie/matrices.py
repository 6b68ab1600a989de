"""Dense exact matrices over Q(i) (and first-order jets where noted).

Rank and nullspace use pivoted exact Gaussian elimination with a fixed
pivoting rule (first nonzero entry scanning columns left to right, rows top
to bottom), so nullspace bases are deterministic.
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


def _echelon(rows, ncols):
    """In-place forward elimination; returns list of pivot columns."""
    pivots = []
    pr = 0
    nrows = len(rows)
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        pivots.append(pc)
        inv = ONE / rows[pr][pc]
        prow = rows[pr]
        for r in range(pr + 1, nrows):
            f = rows[r][pc]
            if not f:
                continue
            f = f * inv
            rr = rows[r]
            for c in range(pc, ncols):
                if prow[c]:
                    rr[c] = rr[c] - f * prow[c]
        pr += 1
        if pr == nrows:
            break
    return pivots


def rank(mat):
    rows = [list(r) for r in mat.a]
    return len(_echelon(rows, mat.n))


def rank_rows(row_vectors, ncols):
    rows = [list(r) for r in row_vectors]
    return len(_echelon(rows, ncols))


def nullspace(mat):
    """Deterministic basis of the right kernel, one vector (length-n list)
    per free column, free coordinate set to 1."""
    rows = [list(r) for r in mat.a]
    pivots = _echelon(rows, mat.n)
    pivot_set = set(pivots)
    free = [c for c in range(mat.n) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [ZERO] * mat.n
        vec[fc] = ONE
        # back substitution over the pivot rows
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = ZERO
            row = rows[r]
            for c in range(pc + 1, mat.n):
                if row[c] and vec[c]:
                    s = s + row[c] * vec[c]
            vec[pc] = -s / row[pc]
        basis.append(vec)
    return basis


def det(mat):
    if mat.m != mat.n:
        raise ValueError("determinant of non-square matrix")
    rows = [list(r) for r in mat.a]
    n = mat.n
    sign = 1
    d = ONE
    for pc in range(n):
        pivot_row = None
        for r in range(pc, n):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != pc:
            rows[pc], rows[pivot_row] = rows[pivot_row], rows[pc]
            sign = -sign
        p = rows[pc][pc]
        d = d * p
        inv = ONE / p
        for r in range(pc + 1, n):
            f = rows[r][pc]
            if not f:
                continue
            f = f * inv
            for c in range(pc, n):
                if rows[pc][c]:
                    rows[r][c] = rows[r][c] - f * rows[pc][c]
    return d if sign > 0 else -d


def solve(mat, rhs):
    """Solve mat * x = rhs (rhs a length-m list); None if inconsistent.
    Free coordinates are set to 0."""
    rows = [list(r) + [v] for r, v in zip(mat.a, rhs)]
    pivots = _echelon(rows, mat.n + 1)
    if mat.n in pivots:
        return None
    vec = [ZERO] * mat.n
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        row = rows[r]
        s = row[mat.n]
        for c in range(pc + 1, mat.n):
            if row[c] and vec[c]:
                s = s - row[c] * vec[c]
        vec[pc] = s / row[pc]
    return vec


def inverse(mat):
    if mat.m != mat.n:
        raise ValueError("inverse of non-square matrix")
    n = mat.n
    rows = [list(r) + [ONE if k == c else ZERO for c in range(n)]
            for k, r in enumerate(mat.a)]
    pivots = _echelon(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    # back substitution to reduced form
    for r in range(n - 1, -1, -1):
        inv = ONE / rows[r][r]
        rows[r] = [x * inv for x in rows[r]]
        for rr in range(r):
            f = rows[rr][r]
            if not f:
                continue
            rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
    return Mat([r[n:] for r in rows])


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
