"""Orbits of the symmetry subgroup K on the flag variety of so(n), the
associated theta-stable parabolics, and samplers for the distinguished
families of elements (orbit sections, patterned middle-row families, the
fibre over zero, and chain-disjoint elements).

An orbit K.vB is its conjugator v (its Borel is Ad(v)b for the standard
Borel b) and the pulled back involution theta_Q = Ad(v^-1) theta Ad(v),
read as a signed action on epsilon-coordinates plus the compactness signs
of the imaginary roots.  Each monoid step checks that combinatorial
update against theta_Q read off the new conjugator.  The codimension
comes from theta_Q alone, as k meet Ad(v)b = Ad(v) b^theta_Q.  No Borel
basis is stored: an orbit section is Ad(k v) of an element of b.

The patterned family is written once through the supports of its Cartan
and slot vectors (AlgebraContext.from_coordinates) and recognized by
reading each vector's coordinate at the leading entry of its support: the
supports are disjoint, so x is in their span exactly when the writer
rewrites x from the coordinates read.  The coincidence-free sampler accepts
a draw whose coincidence count is 0, the chain-disjoint one a draw whose
every consecutive pair of levels has gcd degree 0 (polys.gcd_degree).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import pairwise

from .scalars import ONE
from .matrices import Mat, inverse, zi_matrix
from .liealg import (Root, root_vector, weyl_representative, cayley_element,
                     adjoint, monomial_pairs)
from .invariants import reduced_char, coincidence_count
from .rand import MAX_TRIES
from . import polys

REAL = "real"
COMPACT = "compact-imaginary"
NONCOMPACT = "noncompact-imaginary"
COMPLEX_STABLE = "complex-stable"
COMPLEX_UNSTABLE = "complex-unstable"


# base: the closed orbit the word starts from; word: simple-root indices
# applied so far; action: theta_Q on epsilon-coords, columns = images;
# compact_signs: ((root coords, +1/-1), ...) imaginary positive
class Orbit(namedtuple("Orbit", "name base word conjugator codim closed "
                                "action compact_signs")):
    __slots__ = ()

    def key(self):
        return (self.codim, self.action, self.compact_signs)


def _theta_q_data(ctx, v, v_inv):
    """Signed coordinate action and compactness signs of
    theta_Q = Ad(v^-1) theta Ad(v), read off t = v^-1 theta v.  t normalizes
    the diagonal Cartan exactly when it is monomial with a permutation pi
    that commutes with p -> n-1-p (asserted).  Then e_a goes to e_pi(a)
    (-e_c when pi(a) = n-1-c), and an imaginary root vector e, first entry
    (i, j), goes to t[i][pi i] e[pi i][pi j] t[pi j][j] / e[i][j] times e."""
    pairs = monomial_pairs(v_inv * ctx.theta_mat * v)
    perm = [q for q, _ in pairs]
    n, l = ctx.n, ctx.l
    if any(perm[n - 1 - p] != n - 1 - perm[p] for p in range(n)):
        raise AssertionError("theta_Q does not normalize the Cartan")
    action = tuple(tuple((perm[a] == p) - (perm[a] == n - 1 - p)
                         for p in range(l)) for a in range(l))
    signs = []
    for r in ctx.positive_roots:
        if _act(action, r) == r.coords:
            e = root_vector(ctx, r)
            i, j = ctx.basis_positions[ctx.root_index[r.coords]]
            pi, pj = perm[i], perm[j]
            s = pairs[i][1] * e.a[pi][pj] * pairs[pj][1] / e.a[i][j]
            if s not in (ONE, -ONE):
                raise AssertionError("imaginary root space not preserved")
            signs.append((r.coords, 1 if s == ONE else -1))
    return action, tuple(sorted(signs))


def _act(action, root):
    l = len(action)
    out = [0] * l
    for a, c in enumerate(root.coords):
        if c:
            for p in range(l):
                out[p] += c * action[a][p]
    return tuple(out)


def classify_root_type(action, compact_signs, root):
    """Type of a root under theta_Q, given as an orbit's action and
    compact_signs."""
    img = _act(action, root)
    if img == tuple(-c for c in root.coords):
        return REAL
    if img == root.coords:
        for coords, s in compact_signs:
            if coords == root.coords:
                return COMPACT if s == 1 else NONCOMPACT
        raise AssertionError("missing compactness sign for %r" % root)
    return COMPLEX_STABLE if Root(img).is_positive() else COMPLEX_UNSTABLE


def _orbit_codim(ctx, action, signs):
    """flag_dim - dim K.vB, where dim K.vB = dim k - dim b^theta_Q
    (k meet Ad(v)b = Ad(v) b^theta_Q).  b^theta_Q is the fixed part
    (l + tr action)/2 of the Cartan, one line per compact imaginary
    positive root and one per theta_Q-pair of complex-stable positive
    roots; real, noncompact and complex-unstable roots add nothing."""
    types = [classify_root_type(action, signs, r)
             for r in ctx.positive_roots]
    fixed = ((ctx.l + sum(action[a][a] for a in range(ctx.l))) // 2
             + types.count(COMPACT) + types.count(COMPLEX_STABLE) // 2)
    return ctx.flag_dim() - (ctx.k_dim() - fixed)


def _make_orbit(ctx, base, word, v, closed=False, name=None):
    action, signs = _theta_q_data(ctx, v, inverse(v))
    return Orbit(name or "", base, tuple(word), v,
                 _orbit_codim(ctx, action, signs), closed, action, signs)


def monoid_action(ctx, orbit, root_idx):
    """Image of the orbit under the monoid generator of the given simple
    root; returns the same orbit object when the generator fixes it."""
    alpha = ctx.simple_roots[root_idx]
    t = classify_root_type(orbit.action, orbit.compact_signs, alpha)
    if t in (REAL, COMPACT, COMPLEX_UNSTABLE):
        return orbit
    if t == NONCOMPACT:
        step = cayley_element(ctx, alpha)
    else:
        step = weyl_representative(ctx, alpha)
    new = _make_orbit(ctx, orbit.base, orbit.word + (root_idx,),
                      orbit.conjugator * step)
    if new.codim != orbit.codim - 1:
        raise AssertionError("monoid step did not raise dimension by one")
    # combinatorial update of the coordinate action, cross-checked against
    # the matrix computation
    expected = _compose_reflection(ctx, orbit.action, alpha, t)
    if expected is not None and expected != new.action:
        raise AssertionError("combinatorial and matrix theta_Q disagree")
    return new


def _reflect(alpha, coords):
    """s_alpha in epsilon-coordinates for so roots."""
    nz = [(a, c) for a, c in enumerate(alpha.coords) if c]
    out = list(coords)
    if len(nz) == 1:
        a, _ = nz[0]
        out[a] = -out[a]
    else:
        (a, ca), (b, cb) = nz
        if ca * cb < 0:
            out[a], out[b] = out[b], out[a]
        else:
            out[a], out[b] = -out[b], -out[a]
    return tuple(out)


def _compose_reflection(ctx, action, alpha, rtype):
    l = ctx.l
    if rtype == NONCOMPACT:
        # Cayley through an imaginary root: new action = s_alpha o old
        return tuple(_reflect(alpha, action[a]) for a in range(l))
    cols = []
    for a in range(l):
        unit = Root(tuple(1 if p == a else 0 for p in range(l)))
        pre = _reflect(alpha, unit.coords)
        img = [0] * l
        for p, c in enumerate(pre):
            if c:
                col = action[p]
                for q in range(l):
                    img[q] += c * col[q]
        cols.append(tuple(_reflect(alpha, img)))
    return tuple(cols)


def closed_orbits(ctx):
    if ctx.kind != "so" or ctx.n < 3:
        raise ValueError("orbit tables only for so(n), n >= 3")
    ident = Mat.identity(ctx.n)
    if ctx.n % 2 == 1:
        w = weyl_representative(ctx, ctx.simple_roots[-1])
        return [_make_orbit(ctx, "Q+", (), ident, closed=True, name="Q+"),
                _make_orbit(ctx, "Q-", (), w, closed=True, name="Q-")]
    return [_make_orbit(ctx, "Q+", (), ident, closed=True, name="Q+")]


def enumerate_orbits(ctx):
    """All K-orbits on the flag variety, found by saturating the closed
    orbits under the monoid action.  Returns (orbits, edges) with edges
    (source name, simple root index, target name)."""
    seeds = closed_orbits(ctx)
    orbits = list(seeds)
    seen = {}
    for o in seeds:
        # closed orbits are distinct seeds even when their records agree
        seen[("seed", o.name)] = o
    edges = []
    frontier = list(seeds)
    while frontier:
        nxt = []
        for o in frontier:
            for idx in range(len(ctx.simple_roots)):
                img = monoid_action(ctx, o, idx)
                if img is o:
                    continue
                existing = seen.get(img.key())
                if existing is None:
                    img = img._replace(name="Q%d" % img.codim)
                    seen[img.key()] = img
                    orbits.append(img)
                    nxt.append(img)
                    target = img
                else:
                    target = existing
                edges.append((o.name, idx, target.name))
        frontier = nxt
    orbits.sort(key=lambda o: (-o.codim, o.name))
    return orbits, edges


def orbit_by_name(ctx, name):
    orbits = enumerate_orbits(ctx)[0]
    for o in orbits:
        if o.name == name:
            return o
    raise ValueError("no orbit named %r in %s: %s" % (
        name, ctx.describe(), ", ".join(o.name for o in orbits)))


def orbit_graph(ctx):
    orbits, edges = enumerate_orbits(ctx)
    nodes = [{"name": o.name, "codim": o.codim, "closed": o.closed,
              "dim": ctx.flag_dim() - o.codim, "base": o.base,
              "word": list(o.word)} for o in orbits]
    uniq = sorted(set(edges), key=lambda e: (e[0], e[1]))
    return {"algebra": "so", "n": ctx.n,
            "flag_dim": ctx.flag_dim(), "nodes": nodes,
            "edges": [{"from": s, "root": i + 1, "to": t}
                      for (s, i, t) in uniq]}


def orbit_graph_text(graph):
    lines = ["K-orbits on the flag variety of so(%d)" % graph["n"],
             "flag dimension %d" % graph["flag_dim"], ""]
    for node in graph["nodes"]:
        tag = "closed" if node["closed"] else "      "
        lines.append("%-4s %s codim %2d  dim %2d" %
                     (node["name"], tag, node["codim"], node["dim"]))
    lines.append("")
    for e in graph["edges"]:
        lines.append("%-4s --[alpha_%d]--> %s" %
                     (e["from"], e["root"], e["to"]))
    return "\n".join(lines)


# --- theta-stable parabolics ----------------------------------------------

# i: codimension index of the matching orbit; levi_tag: ("so", m)
Parabolic = namedtuple("Parabolic", "i r_basis z_basis lss_basis "
                                    "nilradical_basis levi_tag")


def _in_levi(root, i):
    """The roots of the Levi of stable_parabolic(ctx, i): coords[:i] == 0."""
    return not any(root.coords[:i])


def stable_parabolic(ctx, i):
    """theta-stable parabolic whose closed set of partial-map fibres matches
    coincidence index i; generated by the standard Borel and the negative
    simple root spaces alpha_{i+1}..alpha_l."""
    l = ctx.l
    limit = l - 1 if ctx.n % 2 == 1 else l - 2
    if ctx.kind != "so" or not (0 <= i <= limit):
        raise ValueError("no theta-stable parabolic for index %r" % i)
    z_basis = ctx.cartan_basis[:i]
    lss_basis = ctx.cartan_basis[i:] + [root_vector(ctx, r) for r in ctx.roots
                                        if _in_levi(r, i)]
    nil_basis = [root_vector(ctx, r) for r in ctx.positive_roots
                 if not _in_levi(r, i)]
    r_basis = z_basis + lss_basis + nil_basis
    m = 2 * (l - i) + 1 if ctx.n % 2 == 1 else 2 * (l - i)
    return Parabolic(i, r_basis, z_basis, lss_basis, nil_basis, ("so", m))


# --- distinguished element families ---------------------------------------

@lru_cache(maxsize=None)
def nilfibre_components(ctx):
    """Bases of the nilradicals n_+ (and n_- in the odd case) whose K-orbits
    cover the fibre of the partial map over zero, built once per context:
    do not mutate the lists."""
    if ctx.kind != "so":
        raise ValueError("nilfibre only for so(n), not " + ctx.describe())
    plus = [root_vector(ctx, r) for r in ctx.positive_roots]
    if ctx.n % 2 == 0:
        return [plus]
    w = weyl_representative(ctx, ctx.simple_roots[-1])
    w_inv = inverse(w)
    minus = [w * b * w_inv for b in plus]
    return [plus, minus]


@lru_cache(maxsize=None)
def nilfibre_overlap_vector(ctx, component=0):
    """Canonical vector of the line that the joint centralizer of any
    element of the given nilfibre component must contain: the highest-root
    space of that component's Borel (its theta-symmetrization when the
    highest root is not compact, which happens only for so(4)), built once
    per context and component."""
    l = ctx.l
    if l < 2:
        raise ValueError("needs rank at least 2")
    phi = Root(tuple([1, 1] + [0] * (l - 2)))
    e = root_vector(ctx, phi)
    if ctx.n == 4:
        return e + ctx.theta(e)
    if ctx.n % 2 == 1 and component == 1:
        w = weyl_representative(ctx, ctx.simple_roots[-1])
        return adjoint(w, e)
    return e


def sample_nilfibre(ctx, sampler, component=0):
    comps = nilfibre_components(ctx)
    if not 0 <= component < len(comps):
        raise ValueError("nilfibre component must be in 0..%d for %s"
                         % (len(comps) - 1, ctx.describe()))
    comp = comps[component]
    y = sampler.span_element(comp, nonzero=True)
    k = sampler.subgroup_element(ctx)
    return adjoint(k, y)


def sample_yq(ctx, orbit, sampler):
    """Random K-translate of a random element of the orbit's Borel Ad(v)b:
    Ad(k v) of a random element of the standard Borel b."""
    y = sampler.span_element(ctx.borel_basis)
    k = sampler.subgroup_element(ctx)
    return adjoint(k * orbit.conjugator, y)


def sample_g0(ctx, sampler):
    """Random element with no eigenvalue coincidence between consecutive
    top levels: its coincidence count is 0."""
    for _ in range(MAX_TRIES):
        x = sampler.algebra_element(ctx)
        if coincidence_count(ctx, x) == 0:
            return x
    raise RuntimeError("could not sample a coincidence-free element")


def sample_chain_disjoint(ctx, sampler):
    """Random element whose chain projections have pairwise disjoint spectra
    at every consecutive pair of levels: the gcd of each pair's reduced
    characteristic polynomials has degree 0, as coincidence_of reads it.
    A draw is refused at the first pair with a common root, before the
    levels below it are walked."""
    for _ in range(MAX_TRIES):
        x = sampler.algebra_element(ctx)
        qs = (reduced_char(lvl, image)
              for lvl, image in ctx.walk(zi_matrix(x.a)))
        # (level m + 1, level m), as qs runs from the top down
        if all(polys.gcd_degree(low, high) == 0
               for high, low in pairwise(qs)):
            return x
    raise RuntimeError("could not sample a chain-disjoint element")


def _supports(vectors):
    """The (i, j, +-1) entries of each +-1 vector in row-major order: the
    supports that AlgebraContext.from_coordinates writes it through."""
    return [[(i, j, 1 if v == ONE else -1) for i, row in enumerate(b.a)
             for j, v in enumerate(row) if v] for b in vectors]


def _span_coordinates(ctx, mat, supports):
    """Coordinates of mat over the vectors with the given disjoint supports,
    each read at the leading entry of its support, or None when mat is not
    in their span.  The supports are disjoint, so the leading entry of a
    vector reads its coordinate alone, and mat is in the span exactly when
    the support writer rewrites mat from the coordinates read."""
    a = mat.a
    coords = [a[i][j] if e == 1 else -a[i][j] for (i, j, e), *_ in supports]
    return coords if ctx.from_coordinates(coords, supports) == mat else None


def xi_slot_count(ctx):
    if ctx.kind != "so":
        raise ValueError("xi families only for so(n), not " + ctx.describe())
    return ctx.l if ctx.n % 2 == 1 else ctx.l - 1


@lru_cache(maxsize=None)
def _xi_supports(ctx):
    """Supports of (the H-basis, raising vectors e_1..e_s, lowering vectors
    e_-1..e_-s), the middle-row degrees of freedom transverse to the
    subalgebra, built once per context: do not mutate the lists."""
    l = ctx.l
    ups, downs = [], []
    for j in range(xi_slot_count(ctx)):
        c = [0] * l
        if ctx.n % 2 == 1:
            c[j] = 1
            ups.append(root_vector(ctx, Root(c)))
            downs.append(root_vector(ctx, Root([-v for v in c])))
        else:
            c[j], c[l - 1] = 1, -1
            e = root_vector(ctx, Root(c))
            ups.append(e - ctx.theta(e))
            f = root_vector(ctx, Root([-v for v in c]))
            downs.append(f - ctx.theta(f))
    return _supports(ctx.cartan_basis), _supports(ups), _supports(downs)


def sample_xi(ctx, i, pattern, sampler):
    """Element of the patterned family: regular semisimple diagonal part,
    patterned middle-row coordinates with slots 1..i constrained (pattern
    letter 'U': lowering coordinate zero; 'L': raising coordinate zero) and
    slots above i generic, written once through the supports."""
    slots = xi_slot_count(ctx)
    if not (0 <= i <= slots) or len(pattern) != i or set(pattern) - set("UL"):
        raise ValueError("bad pattern %r for i=%d" % (pattern, i))
    cartan, ups, downs = _xi_supports(ctx)
    coords = sampler.distinct_square_free(ctx.l)
    supports = list(cartan)
    for j in range(slots):
        letter = pattern[j] if j < i else None
        if letter != "L":
            coords.append(sampler.nonzero_rational())
            supports.append(ups[j])
        if letter != "U":
            coords.append(sampler.nonzero_rational())
            supports.append(downs[j])
    return ctx.from_coordinates(coords, supports)


def xi_shape(ctx, mat, i):
    """If mat lies in the patterned family with i constrained slots, return
    its pattern string, else None.  ValueError unless 0 <= i <= the slot
    count."""
    slots = xi_slot_count(ctx)
    if not 0 <= i <= slots:
        raise ValueError("slot count %r not in 0..%d for %s"
                         % (i, slots, ctx.describe()))
    cartan, ups, downs = _xi_supports(ctx)
    coords = _span_coordinates(ctx, mat, cartan + ups + downs)
    if coords is None:
        return None
    ucoef = coords[len(cartan):len(cartan) + slots]
    dcoef = coords[len(cartan) + slots:]
    out = []
    for u, d in zip(ucoef[:i], dcoef):
        if bool(u) == bool(d):
            return None
        out.append("U" if not d else "L")
    return "".join(out)


def xi_flip_element(ctx, j):
    """Group element turning an 'L' in slot j (0-based) into a 'U'."""
    l = ctx.l
    if ctx.n % 2 == 1:
        c = [0] * l
        c[j] = 1
        return weyl_representative(ctx, Root(c))
    w = weyl_representative(ctx, ctx.simple_roots[l - 2])
    w = w * weyl_representative(ctx, ctx.simple_roots[l - 1])
    if j == l - 2:
        return w
    c = [0] * l
    c[j], c[l - 2] = 1, -1
    conj = weyl_representative(ctx, Root(c))
    return adjoint(conj, w)
