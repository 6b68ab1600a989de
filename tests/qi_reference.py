"""Slow references for the exact kernels of gzlie.matrices, the gradient
rows and centralizer systems of gzlie.regularity, the chain step and the
readings of the involution theta in gzlie.liealg and gzlie.korbits.

These are the routines the fast paths replaced, kept to pin them:
Gauss-Jordan elimination directly on Q(i) scalars, the ring-generic
Faddeev-LeVerrier loop and Pfaffian expansion (which also run on
first-order jets, the dual numbers Jet), the generator values of a chain
level read from its Q(i) matrix with them, the Jacobian of the
chain-restriction map computed one jet
pass per basis direction of g, projected down the chain, the gradient
rows traced densely against every basis matrix, with one Pfaffian
expansion per cofactor, the chain step as the dense products PD x TD and
TD y PD, the centralizer system written on Q(i) scalars and built from
dense brackets, the nsreg system of z_k(x) from the theta-split pair
(x_k, x_p), the fixed subalgebra k as the nullspace of Theta - id, the
data of theta_Q read off
conjugated Cartan and root vectors, the Borel basis Ad(v)b of an
orbit K.vB with the codimension read off k meet Ad(v)b, and polynomial
arithmetic over Q(i) with the gcd by the Euclidean algorithm, and the
scalar parser that read each rational part through Fraction(text).  aux_qi
reads the auxiliary integers of gzlie.matrices.char_poly_fl as the Q(i)
matrices of the reference loop.

The last section holds the constructors and checks that only the tests
read: scalar and matrix constructors, membership, basis and Cartan
coordinates, the form test of a group element, the Levi degeneration of a
theta-stable parabolic and the centralizer dimensions of every chain level.
"""

import re as _re
from bisect import bisect_left
from fractions import Fraction

from gzlie.scalars import QI, ZERO, ONE, rat, _coerce, _mpq
from gzlie.matrices import (Mat, bracket, det, intersection_dim, qi_matrix,
                            zi_matrix, nested_pivots_zi_rows)
from gzlie.liealg import project_to_subalgebra, root_vector
from gzlie.invariants import generator_spec, level_values, _signed
from gzlie.korbits import _act, _in_levi
from gzlie.regularity import _centralizer_system, chain_centralizer_ranks
from gzlie.polys import normalize, degree


class Jet:
    """Dual number a + b*eps over Q(i); eps**2 = 0.  Used for exact
    directional derivatives of polynomial maps."""

    __slots__ = ("val", "eps")

    def __init__(self, val, eps=ZERO):
        self.val = val if isinstance(val, QI) else _coerce(val)
        self.eps = eps if isinstance(eps, QI) else _coerce(eps)

    def __add__(self, other):
        other = _jcoerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.val + other.val, self.eps + other.eps)

    __radd__ = __add__

    def __sub__(self, other):
        other = _jcoerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.val - other.val, self.eps - other.eps)

    def __rsub__(self, other):
        other = _jcoerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(other.val - self.val, other.eps - self.eps)

    def __mul__(self, other):
        other = _jcoerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.val * other.val,
                   self.val * other.eps + self.eps * other.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _jcoerce(other)
        if other is NotImplemented:
            return NotImplemented
        v = self.val / other.val
        return Jet(v, (self.eps - v * other.eps) / other.val)

    def __neg__(self):
        return Jet(-self.val, -self.eps)

    def __eq__(self, other):
        other = _jcoerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.val == other.val and self.eps == other.eps

    def __bool__(self):
        return bool(self.val) or bool(self.eps)

    def __repr__(self):
        return "Jet(%s, %s)" % (self.val, self.eps)


def _jcoerce(v):
    if isinstance(v, Jet):
        return v
    c = _coerce(v)
    if c is NotImplemented:
        return NotImplemented
    return Jet(c, ZERO)


def echelon(rows, ncols, reduced=False):
    """Eliminate Q(i) rows in place; returns (pivot columns, row swaps).
    Pivot rule: first nonzero entry, columns left to right, rows top to
    bottom.  With ``reduced`` the result is the reduced row echelon form."""
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
    return len(echelon([list(r) for r in mat.a], mat.n)[0])


def nullspace(mat):
    rows = [list(r) for r in mat.a]
    pivots, _ = echelon(rows, mat.n, reduced=True)
    basis = []
    for fc in sorted(set(range(mat.n)) - set(pivots)):
        vec = [ZERO] * mat.n
        vec[fc] = ONE
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def det(mat):
    rows = [list(r) for r in mat.a]
    _, swaps = echelon(rows, mat.n)
    d = -ONE if swaps % 2 else ONE
    for k, row in enumerate(rows):
        d = d * row[k]
    return d


def solve(mat, rhs):
    n = mat.n
    rows = [list(r) + list(s) for r, s in zip(mat.a, rhs.a)]
    pivots, _ = echelon(rows, n + rhs.n, reduced=True)
    if pivots and pivots[-1] >= n:
        return None
    out = [[ZERO] * rhs.n for _ in range(n)]
    for row, pc in zip(rows, pivots):
        out[pc] = row[n:]
    return Mat(out)


def inverse(mat):
    x = solve(mat, Mat.identity(mat.n))
    if x is None:
        raise ValueError("singular matrix")
    return x


def char_poly_fl(mat):
    """Faddeev-LeVerrier in the entries' own ring (Q(i) or jets over it):
    det(t*I - A) = t^n + b[0]*t^(n-1) + ... + b[n-1], and aux[k] = M_{k+1}
    with d b[k](A; V) = -trace(M_{k+1} * V)."""
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


def aux_qi(aux):
    """The Q(i) matrices M_(k+1)(A) = M_(k+1)(X) / d^k of the AuxMatrices
    (d, ints) of gzlie.matrices.char_poly_fl, in the order of aux above."""
    return [qi_matrix(re, im, aux.d ** k)
            for k, (re, im) in enumerate(aux.ints)]


def sub_pfaffians(a):
    """pf(idx): the Pfaffian of the rows and columns idx (an increasing
    tuple of even length) of the antisymmetric rows a, by expansion along
    the first index, in the entries' own ring (Q(i) or jets over it).  One
    memo serves every call of the returned pf."""
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

    return pf


def pfaffian(mat):
    """Pfaffian of an antisymmetric matrix of even size in the entries' own
    ring, by memoized expansion along the first remaining row."""
    n = mat.n
    if n % 2 != 0:
        raise ValueError("pfaffian needs even size")
    for p in range(n):
        for q in range(p, n):
            if mat.a[p][q] != -mat.a[q][p]:
                raise ValueError("matrix is not antisymmetric")
    return sub_pfaffians(mat.a)(tuple(range(n)))


def pfaffian_generator(ctx, mat):
    """pf(S x) on so(even): the Pfaffian of x with its rows reversed."""
    if ctx.kind != "so" or ctx.n % 2 != 0:
        raise ValueError("pfaffian generator needs so(even)")
    return pfaffian(Mat(mat.a[::-1]))


def coefficients(mat):
    """b_1..b_m of det(t*I - x) = t^m + b_1 t^(m-1) + ... + b_m, by the
    ring-generic Faddeev-LeVerrier loop."""
    return char_poly_fl(mat)[0]


def level_values_qi(ctx_m, mat_m):
    """Generator values of one chain level from its Q(i) matrix x_m:
    coefficients and the ring-generic Pfaffian, checked by level_values."""
    pf = (pfaffian_generator(ctx_m, mat_m)
          if generator_spec(ctx_m).pfaffian else None)
    return level_values(ctx_m, coefficients(mat_m), pf)


def jet_mat(point, direction):
    """Matrix of jets point + eps*direction."""
    return Mat([[Jet(p, d) for p, d in zip(rp, rd)]
                for rp, rd in zip(point.a, direction.a)])


def _eps(v):
    """The eps part of a jet.  A plain QI is a zero jet: products and sums
    of jet matrices leave an entry as the QI ZERO where every term is 0."""
    return v.eps if isinstance(v, Jet) else ZERO


def partial_map_jacobian_jet(ctx, mat, levels=None):
    """Gradient rows of the generators of the given chain levels (default:
    n-1 and n, the partial map) against the basis of g, one jet pass per
    basis direction d: the generator values of x_m + eps*d_m at level m."""
    rows = []
    for m in (ctx.n - 1, ctx.n) if levels is None else levels:
        lvl, xm = ctx.level(m), project_to_subalgebra(ctx, mat, m)
        spec = generator_spec(lvl)
        zero = [ZERO] * (len(spec.coeffs) + bool(spec.pfaffian))
        cols = []
        for d in ctx.basis:
            dm = project_to_subalgebra(ctx, d, m)
            if dm.is_zero():             # the derivative along 0 is 0
                cols.append(zero)
                continue
            jm = jet_mat(xm, dm)
            b, _ = char_poly_fl(jm)
            vals = [_signed(sign, b[j - 1]) for j, sign in spec.coeffs]
            if spec.pfaffian:
                vals.append(pfaffian(lvl.form * jm))
            cols.append([_eps(v) for v in vals])
        rows.extend(list(r) for r in zip(*cols))
    return rows


def chain_down_dense(ctx, x):
    """One step down the chain as the dense product PD x TD."""
    return ctx.chain_PD * x * ctx.chain_TD


def chain_up_dense(ctx, y):
    """One step up the chain as the dense product TD y PD."""
    return ctx.chain_TD * y * ctx.chain_PD


def trace_against(m_aux, v):
    """trace(M * V), scanning every entry of V."""
    s = ZERO
    for q, row in enumerate(v.a):
        for p, x in enumerate(row):
            if x:
                s = s + m_aux.a[p][q] * x
    return s


def pfaffian_gradient_by_cofactors(sx):
    """G with d pf(S x)(V) = tr(G V), one Pfaffian expansion (with its own
    memo) per cofactor of sx = S x."""
    m = sx.n
    grad = Mat.zeros(m)
    for i in range(m):
        for j in range(i + 1, m):
            rest = [k for k in range(m) if k != i and k != j]
            pf = pfaffian(Mat([[sx.a[p][q] for q in rest] for p in rest]))
            grad.a[j][m - 1 - i] = pf if (i + j) % 2 else -pf
    return grad


def level_gradient_rows_by_trace(ctx, x, m):
    """Gradient rows of the generators of level m against the basis of g:
    x projected by dense chain products, each gradient embedded by dense
    products and traced against every basis matrix of g."""
    chain, xm, lvl = [], x, ctx
    while lvl.n > m:
        chain.append(lvl)
        xm, lvl = chain_down_dense(lvl, xm), lvl.child
    spec = generator_spec(lvl)
    _, aux = char_poly_fl(xm)
    grads = [(-sign, aux[j - 1]) for j, sign in spec.coeffs]
    if spec.pfaffian:
        grads.append((1, pfaffian_gradient_by_cofactors(lvl.form * xm)))
    rows = []
    for sign, grad in grads:
        for step in reversed(chain):
            grad = chain_up_dense(step, grad)
        rows.append([_signed(sign, trace_against(grad, v))
                     for v in ctx.basis])
    return rows


def centralizer_system_by_brackets(ctx, mats, ambient):
    """Rows of [y, x] = 0 (x in mats), one flattened dense bracket [b, x]
    per ambient basis vector b."""
    basis = ctx.basis if ambient == "g" else ctx.k_basis
    rows = []
    for x in mats:
        cols = [bracket(b, x).flatten() for b in basis]
        for r in range(ctx.n * ctx.n):
            rows.append([c[r] for c in cols])
    return rows


def centralizer_system_qi(ctx, mats, supports):
    """Rows of [y, x] = 0 (x in mats) over Q(i), one column per vector of
    ``supports`` and one row per basis position of g: the writer that
    gzlie.regularity._centralizer_system replaced, which writes the same
    system on the Gaussian integers of each x, row by row divided by its
    content.  [E_ij, x] is row j of x placed in row i minus column i of x
    placed in column j; a cell off the basis positions is skipped."""
    size = ctx.n
    at = ctx.position_index
    ncols = len(supports)
    rows = []
    for x in mats:
        row_cells = [[(q, v) for q, v in enumerate(r) if v] for r in x.a]
        row_neg = [[(q, -v) for q, v in cells] for cells in row_cells]
        col_cells = [[] for _ in range(size)]
        col_neg = [[] for _ in range(size)]
        for p, (cells, negs) in enumerate(zip(row_cells, row_neg)):
            for (q, v), (_, w) in zip(cells, negs):
                col_cells[q].append((p, v))
                col_neg[q].append((p, w))
        block = [[ZERO] * ncols for _ in range(ctx.dim)]
        for k, support in enumerate(supports):
            for i, j, c in support:
                src, dst = ((row_cells, col_neg) if c == 1
                            else (row_neg, col_cells))
                at_i = at[i]
                for q, v in src[j]:
                    r = at_i[q]
                    if r is not None:
                        row = block[r]
                        row[k] = v if row[k] is ZERO else row[k] + v
                for p, v in dst[i]:
                    r = at[p][j]
                    if r is not None:
                        row = block[r]
                        row[k] = v if row[k] is ZERO else row[k] + v
        rows.extend(block)
    return rows


def chain_centralizer_ranks_per_level(ctx, x):
    """(rank of the k-system, rank of the g-system) of [y, x_m] = 0 at every
    chain level m, top first, as gzlie.regularity.chain_centralizer_ranks
    read them before its nested elimination: one integer step down per
    level, and one forward pass per level over the k basis completed to a
    basis of g (k_supports, then completion_supports), whose pivots in
    the first dim k columns are the k-rank and all of whose pivots are the
    g-rank."""
    ranks = []
    for lvl, image in ctx.walk(zi_matrix(x.a)):
        supports = lvl.k_supports + lvl.completion_supports
        pivots = next(nested_pivots_zi_rows(
            [_centralizer_system(lvl, [image], supports)], lvl.dim))
        ranks.append((bisect_left(pivots, lvl.k_dim()), len(pivots)))
    return ranks


def theta_fixed_part(ctx, x):
    """x_k = (x + theta x) / 2, the theta-fixed part of x."""
    return (x + ctx.theta(x)).scale(rat(1, 2))


def k_system_by_theta_split(ctx, x):
    """Rows of [y, x_k] = [y, x_p] = 0 for y in k, x_p = x - x_k: the
    theta-split system of z_k(x) (about half of its rows are zero)."""
    xk = theta_fixed_part(ctx, x)
    return centralizer_system_by_brackets(ctx, [xk, x - xk], "k")


def nsreg_intersection_by_theta_split(ctx, x):
    """Basis of z_k(x) from the nullspace of the theta-split system."""
    rows = k_system_by_theta_split(ctx, x)
    return [sum((c * b for c, b in zip(v, ctx.k_basis) if c),
                Mat.zeros(ctx.n))
            for v in nullspace(Mat(rows))]


def k_basis_by_nullspace(ctx):
    """The fixed subalgebra of theta: the nullspace of Theta - id in basis
    coordinates, Theta read off t*b*t for every basis matrix b."""
    t = ctx.theta_mat
    cols = [coordinates(ctx, t * b * t) for b in ctx.basis]
    m = Mat.zeros(ctx.dim)
    for j, c in enumerate(cols):
        for i in range(ctx.dim):
            m.a[i][j] = c[i]
    for k in range(ctx.dim):
        m.a[k][k] = m.a[k][k] - ONE
    out = [ctx.from_coordinates(v) for v in nullspace(m)]
    if ctx.kind == "gl":
        # k is the gl(n-1) block; drop the corner coordinate
        out = [b for b in out if not b.a[ctx.n - 1][ctx.n - 1]]
    return out


def theta_q_data_by_conjugation(ctx, v, v_inv):
    """Signed coordinate action and compactness signs of
    theta_Q = Ad(v^-1) theta Ad(v), by conjugating every Cartan basis
    vector and every imaginary root vector with the matrix theta_Q."""
    tq = v_inv * ctx.theta_mat * v
    tq_inv = tq  # theta_Q is involutive
    cols = []
    for a in range(ctx.l):
        img = tq * ctx.cartan_basis[a] * tq_inv
        col = []
        for p in range(ctx.l):
            e = img.a[p][p]
            if e.im != 0 or e.re.denominator != 1:
                raise AssertionError("theta_Q does not act integrally on h")
            col.append(int(e.re))
        # verify img really is the diagonal Cartan element with these coords
        rebuilt = Mat.zeros(ctx.n)
        for c, hb in zip(col, ctx.cartan_basis):
            if c:
                rebuilt = rebuilt + rat(c) * hb
        if rebuilt != img:
            raise AssertionError("theta_Q does not normalize the Cartan")
        cols.append(tuple(col))
    action = tuple(cols)
    signs = []
    for r in ctx.positive_roots:
        if _act(action, r) == r.coords:
            e = root_vector(ctx, r)
            img = tq * e * tq_inv
            if img == e:
                signs.append((r.coords, 1))
            elif img == -e:
                signs.append((r.coords, -1))
            else:
                raise AssertionError("imaginary root space not preserved")
    return action, tuple(sorted(signs))


def borel_basis_by_conjugation(ctx, v, v_inv):
    """Ad(v) of the standard Borel basis, two dense products per vector:
    the basis of the Borel of the orbit K.vB."""
    return [v * b * v_inv for b in ctx.borel_basis]


def orbit_codim_by_intersection(ctx, v):
    """Codimension of K.vB in the flag variety: flag_dim - dim K.vB with
    dim K.vB = dim k - dim(k meet Ad(v)b), the meet by three ranks on
    flattened rows."""
    borel = borel_basis_by_conjugation(ctx, v, inverse(v))
    meet = intersection_dim([b.flatten() for b in ctx.k_basis],
                            [b.flatten() for b in borel], ctx.n * ctx.n)
    return ctx.flag_dim() - (ctx.k_dim() - meet)


# --- polynomials over Q(i), coefficient lists low degree first ------------

def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    res = list(a)
    for k in range(len(b)):
        res[k] = res[k] + b[k]
    return normalize(res)


def sub(a, b):
    return add(a, [-c for c in b])


def scale(a, c):
    if not c:
        return []
    return [c * x for x in a]


def mul(a, b):
    if not a or not b:
        return []
    res = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            res[i + j] = res[i + j] + ai * bj
    return normalize(res)


def divmod_exact(a, b):
    """Field division with remainder: a = q*b + r, deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [ZERO] * max(len(a) - len(b) + 1, 0)
    db = degree(b)
    lead = b[-1]
    while len(normalize(r)) - 1 >= db:
        r = normalize(r)
        k = len(r) - 1 - db
        c = r[-1] / lead
        q[k] = c
        for j in range(len(b)):
            r[k + j] = r[k + j] - c * b[j]
        r = r[:-1]
    return normalize(q), normalize(r)


def monic(p):
    if not p:
        return []
    lead = p[-1]
    if lead == ONE:
        return list(p)
    return [c / lead for c in p]


def gcd(a, b):
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    a, b = normalize(list(a)), normalize(list(b))
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    return monic(a)


# --- the scalar grammar, each rational part read by Fraction(text) --------

_RAT = r"[+-]?\d+(?:/0*[1-9]\d*)?"
_SCALAR_RE = _re.compile(
    r"^\s*(?:(?P<re>%(r)s)(?=\s*(?:[+-]|$)))?\s*"
    r"(?:(?P<im>%(r)s)\s*\*\s*i|(?P<imsign>[+-]?)\s*i)?\s*$" % {"r": _RAT},
    _re.ASCII)


def parse_scalar(text):
    """gzlie.scalars.parse_scalar with each rational part parsed twice:
    by Fraction's own pattern, then converted by _mpq."""
    m = _SCALAR_RE.match(text)
    if m is None or (m.group("re") is None and m.group("im") is None
                     and m.group("imsign") is None):
        raise ValueError("bad scalar syntax: %r" % text)
    re_part = _mpq(Fraction(m.group("re"))) if m.group("re") else _mpq(0)
    if m.group("im") is not None:
        im_part = _mpq(Fraction(m.group("im")))
    elif m.group("imsign") is not None:
        im_part = _mpq(-1 if m.group("imsign") == "-" else 1)
    else:
        im_part = _mpq(0)
    if not (re_part or im_part):
        return ZERO
    return QI._raw(re_part, im_part)


# --- constructors and checks that only the tests read ---------------------

def qi(re=0, im=0):
    return QI(re, im)


def is_rational(z):
    return z.im == 0


def as_fraction(z):
    if z.im != 0:
        raise ValueError("not a rational number: %s" % z)
    return Fraction(int(z.re.numerator), int(z.re.denominator))


def from_ints(rows):
    return Mat([[QI(v) for v in r] for r in rows])


def mat_copy(mat):
    return Mat(mat.a)


def transpose(mat):
    return Mat([list(c) for c in zip(*mat.a)])


def contains(ctx, mat):
    """mat lies in the algebra of ctx."""
    return not ctx.membership_violations(mat)


def coordinates(ctx, mat):
    """The coordinates of mat over ctx.basis (inverse of
    ctx.from_coordinates on the algebra)."""
    return [mat.a[i][j] for (i, j) in ctx.basis_positions]


def cartan_coordinates(ctx, h_mat):
    coords = [h_mat.a[a][a] for a in range(ctx.l)]
    # verify the element is actually in the Cartan
    rebuilt = Mat.zeros(ctx.n)
    for c, hb in zip(coords, ctx.cartan_basis):
        rebuilt = rebuilt + c * hb
    if rebuilt != h_mat:
        raise ValueError("element is not in the diagonal Cartan")
    return coords


def preserves_form(ctx, g):
    """g^T S g = S and det g = 1 (exact)."""
    if ctx.kind == "gl":
        return bool(det(g))
    return (transpose(g) * ctx.form * g == ctx.form
            and det(g) == ONE)


def degenerate_to_levi(ctx, mat, i):
    """Linear projection r -> levi killing the nilradical: the limit of the
    one-parameter contraction by the center of the Levi.  Requires x in r."""
    coords = coordinates(ctx, mat)
    for r in ctx.roots:
        k = ctx.root_index[r.coords]
        if coords[k] and not _in_levi(r, i):
            if not r.is_positive():
                raise ValueError("element is not in the parabolic")
            coords[k] = ZERO
    return ctx.from_coordinates(coords)


def centralizer_dims(ctx, mat):
    """dim z_{g_m}(x_m) = dim g_m - rank, for every chain level m from the
    floor up."""
    return [lvl.dim - grank for lvl, (_, grank) in
            zip(ctx.levels, chain_centralizer_ranks(ctx, mat))][::-1]
