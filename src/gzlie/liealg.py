"""Matrix realizations of gl(n) and so(n) with their subalgebra chains.

so(n) is taken with respect to the bilinear form S_n with ones on the
antidiagonal, so membership reads Z^T S + S Z = 0 and the diagonal Cartan
is diag[a_1..a_l, (0,) -a_l..-a_1].  The involution at each level is
conjugation by a diagonal sign matrix (odd n) or by the permutation swapping
the two middle basis vectors (even n), applied as a signed relabeling of
entries (monomial_pairs); its fixed subalgebra is identified with the
standard realization one size down by an exact rational change of basis, so
the whole chain g_2 < g_3 < ... < g_n lives over Q(i).  One step
down the chain is x -> PD x TD and one step up y -> TD y PD, with the two
rectangular matrices chain_PD and chain_TD of each context; the step down
needs no projection onto the fixed part first (see AlgebraContext.down).
Both steps are read from index lists: PD and TD have at most two nonzero
entries per row and column, so each entry of PD x TD or TD y PD is a sum
of at most four weighted entries of x or y, and no matrix product is made.
One evaluator, _step_zi, takes both steps on Gaussian-integer images
(re, im, d): the weights are ints over one scale (2 on even so, the 1/2
of PD; 1 otherwise).  down_zi steps an image down, and walk(image) takes
it down the whole chain on integers: one image per level, which the
centralizer systems, Faddeev-LeVerrier and the sub-Pfaffian memo of
gzlie.regularity and gzlie.docio read.  down, up, chain(x),
project_to_subalgebra and embed_from_subalgebra are Q(i) views of those
integer steps, converting once at each end.  The step down is also stored
once per context in basis coordinates: down_coords[k] lists the int
weights of down(b_k) over the child's basis, all over down_scale, so a row
against the child's basis is read against this basis with no matrix at
all.

Basis matrices are built from their supports and share storage: every
all-zero row of a basis matrix of size n is one read-only list, and every
-1 entry one scalar.

Roots are recorded in epsilon-coordinates (integer tuples of length l).
"""

from __future__ import annotations

from itertools import islice
from math import gcd

from .scalars import QI, ZERO, ONE, rat
from .matrices import (Mat, ZiMatrix, bracket, inverse, zi_matrix,
                       qi_matrix)

HALF = rat(1, 2)
TWO = rat(2)
MINUS_ONE = -ONE

# the lowest level of each chain: gl(1) < gl(2) < ... and so(2) < so(3) < ...
CHAIN_FLOOR = {"gl": 1, "so": 2}
# a context stores O(n^3) basis data per level; larger n is refused
# before anything is built
MAX_N = 16


class Root:
    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(int(c) for c in coords)

    def __neg__(self):
        return Root(tuple(-c for c in self.coords))

    def __eq__(self, other):
        return isinstance(other, Root) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def is_positive(self):
        for c in self.coords:
            if c:
                return c > 0
        return False

    def __repr__(self):
        return "Root%r" % (self.coords,)


def _opposite(p, q):
    """p == -q for reduced rationals, read off their parts."""
    return p.numerator == -q.numerator and p.denominator == q.denominator


class AlgebraContext:
    """One algebra in the chain, plus the link to the next one down.

    A context is read-only once built: make_algebra shares one context per
    (kind, n) across the process, and every context's ``child`` is that
    shared context one size down.  ``levels`` is this context and every one
    below it, top first: levels[k] is level n - k.  ``walk(image)`` takes a
    Gaussian-integer image of x down them once, and ``chain(x)`` is its Q(i)
    view.  Callers must not mutate its matrices."""

    def __init__(self, kind, n):
        if kind not in CHAIN_FLOOR:
            raise ValueError("kind must be 'gl' or 'so'")
        if not CHAIN_FLOOR[kind] <= n <= MAX_N:
            raise ValueError("%s(n) needs %d <= n <= %d"
                             % (kind, CHAIN_FLOOR[kind], MAX_N))
        self.kind = kind
        self.n = n
        self.l = n // 2 if kind == "so" else n
        self._build_basis()
        self._build_theta()
        self._build_chain_maps()
        self.child = (make_algebra(kind, n - 1)
                      if n > CHAIN_FLOOR[kind] else None)
        self.levels = (self,) + (self.child.levels if self.child else ())
        self._build_down_coords()

    # --- basis and roots ---------------------------------------------------

    def _bar(self, j):
        return self.n - 1 - j

    def _build_basis(self):
        # basis vector k has the entry c = +-1 at (i, j) for each (i, j, c)
        # in basis_supports[k]; the supports are disjoint
        n, kind = self.n, self.kind
        if kind == "gl":
            supports = [[(i, j, 1)] for i in range(n) for j in range(n)]
        else:
            supports = []
            for i in range(n):
                for j in range(n):
                    mirror = (self._bar(j), self._bar(i))
                    if j != self._bar(i) and (i, j) < mirror:
                        supports.append([(i, j, 1), mirror + (-1,)])
        self.basis_supports = supports
        self.basis = [_from_support(n, sup) for sup in supports]
        self.basis_positions = [sup[0][:2] for sup in supports]
        # position_index[i][j]: the k with basis_positions[k] == (i, j),
        # None off the basis positions
        self.position_index = [[None] * n for _ in range(n)]
        for k, (i, j) in enumerate(self.basis_positions):
            self.position_index[i][j] = k
        self.dim = len(self.basis)
        self.cartan_basis = [b for b, (i, j) in
                             zip(self.basis, self.basis_positions) if i == j]

        # epsilon-weight of each matrix position
        def eps_of(p):
            w = [0] * self.l
            if kind == "gl":
                w[p] = 1
            elif p < self.l:
                w[p] = 1
            elif p >= self.n - self.l:
                w[self._bar(p)] = -1
            return w

        self.roots = []
        self.root_index = {}
        for k, (i, j) in enumerate(self.basis_positions):
            if i == j:
                continue
            wi, wj = eps_of(i), eps_of(j)
            coords = tuple(a - b for a, b in zip(wi, wj))
            if all(c == 0 for c in coords):
                continue
            r = Root(coords)
            self.roots.append(r)
            self.root_index[r.coords] = k
        self.positive_roots = [r for r in self.roots if r.is_positive()]
        # the standard Borel: upper triangular (gl, in basis order); the
        # Cartan, then the positive root vectors (so)
        if kind == "gl":
            self.borel_basis = [b for b, (i, j) in zip(
                self.basis, self.basis_positions) if i <= j]
        else:
            self.borel_basis = self.cartan_basis + [
                self.basis[self.root_index[r.coords]]
                for r in self.positive_roots]

        # simple roots
        self.simple_roots = []
        if kind == "gl":
            for a in range(n - 1):
                c = [0] * n
                c[a], c[a + 1] = 1, -1
                self.simple_roots.append(Root(c))
        else:
            l = self.l
            for a in range(l - 1):
                c = [0] * l
                c[a], c[a + 1] = 1, -1
                self.simple_roots.append(Root(c))
            c = [0] * l
            if n % 2 == 1:
                c[l - 1] = 1                      # short root e_l
            else:
                if l >= 2:
                    c[l - 2] = 1
                c[l - 1] = 1                      # e_{l-1} + e_l
            if l >= 1 and (n % 2 == 1 or l >= 2):
                self.simple_roots.append(Root(c))

    def _build_theta(self):
        n, kind = self.n, self.kind
        t = Mat.identity(n)
        if kind == "gl":
            t.a[n - 1][n - 1] = -ONE
        elif n % 2 == 1:
            for j in range(n):
                t.a[j][j] = ONE if j == n // 2 else -ONE
        else:
            l = n // 2
            t.a[l - 1][l - 1] = ZERO
            t.a[l][l] = ZERO
            t.a[l - 1][l] = ONE
            t.a[l][l - 1] = ONE
        self.theta_mat = t  # involutive: t == t^{-1}
        pairs = monomial_pairs(t)
        perm = self._theta_perm = [q for q, _ in pairs]
        neg = self._theta_neg = [s == -ONE for _, s in pairs]

        # theta permutes the basis up to sign (see theta); k is spanned by
        # the fixed basis vectors and b + theta(b) for each swapped pair, at
        # the pair's larger index: the nullspace of Theta - id, in its order.
        # The basis vectors at the other indices (the smaller index of each
        # swapped pair, the negated vectors and the gl corner) complete the
        # k basis to a basis of g: completion_supports lists them, in basis
        # order.  At the floor k is 0 and they are the whole basis.
        owner = {(i, j): (k, c) for k, sup in enumerate(self.basis_supports)
                 for i, j, c in sup}
        self.k_supports = []
        completion = []
        for k, sup in enumerate(self.basis_supports):
            i, j, _ = sup[0]             # the entry +1
            k2, c2 = owner[perm[i], perm[j]]
            sign = -c2 if neg[i] != neg[j] else c2
            # (n-1, n-1) is a basis position of gl only, where k is the
            # gl(n-1) block without that fixed corner
            if k2 == k and sign == 1 and (i, j) != (n - 1, n - 1):
                self.k_supports.append(sup)
            elif k2 < k:
                self.k_supports.append(
                    sup + [(p, q, sign * e)
                           for p, q, e in self.basis_supports[k2]])
            else:
                completion.append(sup)
        self.k_basis = [_from_support(n, sup) for sup in self.k_supports]
        self.completion_supports = completion

    def _build_chain_maps(self):
        """TD (n x n-1) and PD (n-1 x n) with PD TD = I: down(x) = PD x TD
        and up(y) = TD y PD identify the theta-fixed subalgebra with the
        standard realization one size down.  gl and odd so drop the last
        (middle) basis vector; even so keeps e_(l-1) + e_l, with the first
        l-1 coordinates scaled by 2 in TD and by 1/2 in PD so that the
        induced form is exactly the standard one in size n-1.

        Both steps are read from the nonzero (index, weight) terms of the
        rows of PD and the columns of TD (for down), and of the rows of TD
        and the columns of PD (for up): at most two terms each, of weight 1
        except the even-so scalings 2 and 1/2.  chain_TD and chain_PD stay
        as the data those terms are read from.  A term's weight is stored as
        an int over the step's one scale, the product of the common
        denominators of PD and TD (see _product_cells): 2 on even so and 1
        otherwise, for either step, and with the weights it has gcd 1.
        _step_zi takes both on Gaussian-integer images; down and up are
        their Q(i) views."""
        n, kind = self.n, self.kind
        self.chain_TD = self.chain_PD = self._line = None
        self._down_cells = self._up_cells = None
        self.down_scale = self._up_scale = None
        if n == CHAIN_FLOOR[kind]:
            return
        l = n // 2
        td, pd = Mat.zeros(n, n - 1), Mat.zeros(n - 1, n)
        for a in range(n - 1):
            b = a if kind == "gl" or a < l else a + 1
            td.a[b][a] = pd.a[a][b] = ONE
        if kind == "so" and n % 2 == 0:
            for a in range(l - 1):
                td.a[a][a], pd.a[a][a] = TWO, HALF
            td.a[l][l - 1] = ONE
            pd.a[l - 1][l - 1] = pd.a[l - 1][l] = HALF
        self.chain_TD, self.chain_PD = td, pd
        self._line = Mat.identity(n) - td * pd
        self._down_cells, self.down_scale = _product_cells(pd, td)
        self._up_cells, self._up_scale = _product_cells(td, pd)

    def _build_down_coords(self):
        """down_coords[k]: the int pairs (l, w) with down(b_k) = sum of
        w * b'_l / down_scale over the basis b' of the child, l increasing.
        down(b_k) lies in the child, so its coordinates are its entries at
        the child's basis positions; they are read from the integer cells
        of the step down and the supports of b_k, with no matrix product."""
        self.down_coords = None
        if self.child is None:
            return
        at = self.child.position_index
        # (i, j) -> (l, weight) for each child basis position l whose cell
        # reads x[i][j]
        reads = {}
        for p, crow in enumerate(self._down_cells):
            for q, terms in enumerate(crow):
                l = at[p][q]
                if l is not None:
                    for i, j, w in terms:
                        reads.setdefault((i, j), []).append((l, w))
        coords = []
        for support in self.basis_supports:
            acc = {}
            for i, j, c in support:
                for l, w in reads.get((i, j), ()):
                    acc[l] = acc.get(l, 0) + c * w
            coords.append(tuple(sorted((l, w) for l, w in acc.items() if w)))
        self.down_coords = coords

    # --- element services --------------------------------------------------

    def from_coordinates(self, coords, supports=None):
        """sum c_k b_k over the vectors with the given disjoint supports."""
        m = Mat.zeros(self.n)
        for c, sup in zip(coords, supports or self.basis_supports):
            if c:
                for i, j, e in sup:
                    m.a[i][j] = c if e == 1 else -c
        return m

    def membership_violations(self, mat):
        """One message per entry (i, j) of mat that breaks Z^T S + S Z = 0
        on so(n): the entry must be minus its mirror (bar j, bar i).  The
        parts are compared as reduced numerators and denominators, with no
        scalar arithmetic."""
        if mat.m != self.n or mat.n != self.n:
            return ["shape %dx%d, expected %dx%d"
                    % (mat.m, mat.n, self.n, self.n)]
        if self.kind == "gl":
            return []
        a = mat.a
        top = self.n - 1
        out = []
        for i, row in enumerate(a):
            for j, lhs in enumerate(row):
                mirror = a[top - j][top - i]
                if ((lhs is ZERO and mirror is ZERO)
                        or (_opposite(lhs.re, mirror.re)
                            and _opposite(lhs.im, mirror.im))):
                    continue
                out.append("entry (%d,%d)=%s violates Z^T S + S Z = 0 "
                           "against (%d,%d)=%s"
                           % (i + 1, j + 1, lhs, top - j + 1, top - i + 1,
                              mirror))
        return out

    def theta(self, mat):
        """t x t as a signed relabeling (see monomial_pairs): entry (p, q)
        is x[pi p][pi q], negated when t[p][pi p] and t[q][pi q] differ."""
        perm, neg = self._theta_perm, self._theta_neg
        a = mat.a
        return Mat._raw([[-a[pp][qq] if neg[p] != neg[q] and a[pp][qq]
                          else a[pp][qq] for q, qq in enumerate(perm)]
                         for p, pp in enumerate(perm)])

    def down(self, mat):
        """Project to the next algebra in the chain, realized one size down:
        PD x TD, the Q(i) view of down_zi.
        PD theta(x) TD = PD x TD (theta fixes the columns of TD and the rows
        of PD up to one common sign), so x needs no theta-averaging first."""
        return qi_matrix(*self.down_zi(zi_matrix(mat.a)))

    def down_zi(self, image):
        """The step down on a ZiMatrix (re, im, d) of x: the ZiMatrix of
        PD x TD over its least common denominator (see _step_zi)."""
        if self._down_cells is None:
            raise ValueError("chain stops at %s(%d)" % (self.kind, self.n))
        return _step_zi(self._down_cells, self.down_scale, image)

    def up(self, small):
        """Embed an element of the next algebra down back into this one:
        TD y PD, taken on the Gaussian-integer image of y (see _step_zi)."""
        if self._up_cells is None:
            raise ValueError("chain stops at %s(%d)" % (self.kind, self.n))
        return qi_matrix(*_step_zi(self._up_cells, self._up_scale,
                                   zi_matrix(small.a)))

    def group_up(self, g_small):
        """Embed a group element one size down, trivially on the line TD PD
        kills: up(g - I) + I = up(g) + _line, with _line = I - TD PD."""
        return self.up(g_small) + self._line

    def level(self, m):
        """The context of chain level m, for floor <= m <= n."""
        if not 0 <= self.n - m < len(self.levels):
            raise ValueError("level %d not in the chain of %s(%d)"
                             % (m, self.kind, self.n))
        return self.levels[self.n - m]

    def walk(self, image):
        """(level, image) for every chain level m from n down to the floor:
        the ZiMatrix of x itself, then one integer step down (down_zi) per
        level, each made only when the next pair is asked for."""
        yield self, image
        for upper, lvl in zip(self.levels, self.levels[1:]):
            image = upper.down_zi(image)
            yield lvl, image

    def chain(self, mat):
        """(level, x_m) for every chain level m from n down to the floor:
        x itself, then the Q(i) matrix of each level's image in walk, each
        step made only when the next pair is asked for."""
        yield self, mat
        for lvl, image in islice(self.walk(zi_matrix(mat.a)), 1, None):
            yield lvl, qi_matrix(*image)

    def invariant_rank(self, m=None):
        m = self.n if m is None else m
        return m // 2 if self.kind == "so" else m

    def flag_dim(self):
        return len(self.positive_roots)

    def k_dim(self):
        return len(self.k_basis)

    def chain_floor(self):
        return CHAIN_FLOOR[self.kind]

    def describe(self):
        return "%s(%d)" % (self.kind, self.n)


# n -> the read-only all-zero row that basis matrices of size n share
_ZERO_ROWS = {}


def _from_support(n, support):
    """The matrix with the entry c = +-1 at (i, j) for each (i, j, c) in the
    support.  Only the rows holding an entry are allocated; every other row
    is the shared zero row of size n."""
    zero = _ZERO_ROWS.get(n)
    if zero is None:
        zero = _ZERO_ROWS[n] = [ZERO] * n
    rows = [zero] * n
    for i, j, c in support:
        if rows[i] is zero:
            rows[i] = [ZERO] * n
        rows[i][j] = ONE if c == 1 else MINUS_ONE
    return Mat._raw(rows)


def _product_cells(left, right):
    """(cells, scale) of L x R, for the rational Mats L and R:
    cells[p][q] are the terms (i, j, w) with (L x R)[p][q] = sum of
    w * x[i][j] / scale, from the nonzero entries of row p of L and column
    q of R.  The int weights w are products of the integers of zi_matrix(L)
    and zi_matrix(R), and scale is the product of their denominators."""
    lre, _, dl = zi_matrix(left.a)
    rre, _, dr = zi_matrix(right.a)

    def terms(vectors):
        return [[(i, w) for i, w in enumerate(v) if w] for v in vectors]

    terms_r = terms(zip(*rre))
    return [[tuple((i, j, a * c) for i, a in tl for j, c in tr)
             for tr in terms_r] for tl in terms(lre)], dl * dr


def _step_zi(cells, scale, image):
    """The ZiMatrix, over its least common denominator, of the chain step
    read from cells and scale (see _product_cells) on the matrix whose
    ZiMatrix is image (re, im, d): each cell is an int sum of weighted
    parts over d * scale; that denominator and every part are then divided
    by their gcd.  im is None when no imaginary part is left."""
    re, im, d = image
    d *= scale
    re = _apply_int_cells(cells, re)
    parts = [re]
    if im is not None:
        im = _apply_int_cells(cells, im)
        if any(map(any, im)):
            parts.append(im)
        else:
            im = None
    g = gcd(d, *(v for part in parts for row in part for v in row))
    if g > 1:
        d //= g
        re, im = [[[v // g for v in row] for row in part]
                  if part is not None else None for part in (re, im)]
    return ZiMatrix(re, im, d)


def _apply_int_cells(cells, a):
    """The int matrix whose entry (p, q) is the sum of w * a[i][j] over the
    terms (i, j, w) of cells[p][q]."""
    return [[sum([w * a[i][j] for i, j, w in terms]) for terms in crow]
            for crow in cells]


def monomial_pairs(t):
    """Read a monomial involution t as [(pi p, t[p][pi p]) for each row p]:
    then (t x t)[p][q] = t[p][pi p] * x[pi p][pi q] * t[pi q][q].
    AssertionError unless each row has one nonzero entry and pi = pi^-1."""
    pairs = []
    for row in t.a:
        nonzero = [q for q, v in enumerate(row) if v]
        if len(nonzero) != 1:
            raise AssertionError("matrix is not monomial")
        pairs.append((nonzero[0], row[nonzero[0]]))
    if any(pairs[q][0] != p for p, (q, _) in enumerate(pairs)):
        raise AssertionError("monomial matrix is not an involution")
    return pairs


# (kind, n) -> the shared, read-only context
_CONTEXTS = {}


def make_algebra(kind, n):
    """The context of kind(n), built on first use and shared after that."""
    ctx = _CONTEXTS.get((kind, n))
    if ctx is None:
        ctx = _CONTEXTS[kind, n] = AlgebraContext(kind, n)
    return ctx


def analyzable_algebra(kind, n):
    """make_algebra for an integer n with a chain level below it, which
    analysis projects to; ValueError otherwise, before anything is built."""
    lowest = CHAIN_FLOOR[kind] + 1
    if not (isinstance(n, int) and lowest <= n <= MAX_N):
        raise ValueError("%s(n) needs an integer %d <= n <= %d: the chain "
                         "stops at %s(%d)" % (kind, lowest, MAX_N, kind,
                                              lowest - 1))
    return make_algebra(kind, n)


def project_to_subalgebra(ctx, mat, m):
    """x_m: x taken down the chain to level m, the Q(i) matrix of its
    image in walk."""
    ctx.level(m)                       # ValueError outside floor..n
    _, image = next(islice(ctx.walk(zi_matrix(mat.a)), ctx.n - m, None))
    return qi_matrix(*image)


def embed_from_subalgebra(ctx, mat, m):
    """Inverse of projection on the subalgebra: embed a level-m element into
    the top algebra, stepping its Gaussian-integer image up."""
    ctx.level(m)                       # ValueError outside floor..n
    image = zi_matrix(mat.a)
    for step in reversed(ctx.levels[:ctx.n - m]):
        image = _step_zi(step._up_cells, step._up_scale, image)
    return qi_matrix(*image)


def root_vector(ctx, root):
    """Canonical basis vector of the root space (first nonzero entry +1 in
    row-major order)."""
    k = ctx.root_index.get(tuple(root.coords))
    if k is None:
        raise ValueError("%r is not a root of %s" % (root, ctx.describe()))
    return ctx.basis[k]


def root_value(root, cartan_coords):
    s = ZERO
    for c, a in zip(root.coords, cartan_coords):
        if c:
            s = s + QI(c) * a
    return s


def sl2_triple(ctx, root):
    """(e, f, h) with [h,e]=2e, [h,f]=-2f, [e,f]=h; e is the canonical root
    vector."""
    e = root_vector(ctx, root)
    f0 = root_vector(ctx, -root)
    h0 = bracket(e, f0)
    c = root_value(root, [h0.a[a][a] for a in range(ctx.l)])
    if not c:
        raise ValueError("degenerate pairing for %r" % root)
    f = (TWO / c) * f0
    return e, f, bracket(e, f)


def _exp_nilpotent(mat):
    n = mat.n
    out = Mat.identity(n)
    term = Mat.identity(n)
    k = 1
    while True:
        term = term * mat
        if term.is_zero():
            return out
        fact = rat(1)
        for j in range(2, k + 1):
            fact = fact * rat(j)
        out = out + (ONE / fact) * term
        k += 1
        if k > n:
            raise ValueError("matrix is not nilpotent")


def weyl_representative(ctx, root):
    """exp(e) exp(-f) exp(e) for the sl2 triple of the root; normalizes the
    diagonal Cartan and induces the reflection s_root on it."""
    e, f, _ = sl2_triple(ctx, root)
    return _exp_nilpotent(e) * _exp_nilpotent(-f) * _exp_nilpotent(e)


def cayley_element(ctx, root):
    """Exact Q(i) representative of the Cayley transform attached to a short
    noncompact root of so(2l+1).  Image of (1/sqrt2)[[1,i],[i,1]] under the
    rank-one subgroup map; the square roots cancel in this representation."""
    if ctx.kind != "so" or sum(abs(c) for c in root.coords) != 1:
        raise ValueError("Cayley element only for short so roots")
    e, f, h = sl2_triple(ctx, root)
    i_unit = QI(0, 1)
    expf = _exp_nilpotent(i_unit * f)
    expe = _exp_nilpotent(i_unit * e)
    mid = Mat.identity(ctx.n)
    for p in range(ctx.n):
        hp = h.a[p][p]
        if hp == TWO:
            mid.a[p][p] = HALF
        elif hp == -TWO:
            mid.a[p][p] = TWO
        elif hp != ZERO:
            raise ValueError("unexpected coroot entry %s" % hp)
    return expf * mid * expe


def adjoint(g, mat):
    return g * mat * inverse(g)
