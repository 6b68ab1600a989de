"""Adjoint-invariant generators, partial and full chain-restriction maps,
and coincidence counting between the spectrum of an element and of its
projection one level down.

The generator conventions are stated once, in generator_spec; values,
reconstruction from values and the gradient rows of regularity read it.
Every reader walks the Gaussian-integer image of x down the chain
(AlgebraContext.down_zi and walk), and _level_data reads a level's image
once for the values and docio.analysis_report: the coefficients b of
det(t*I - x_m), of which level_values and coincidence_of are pure
functions, the auxiliary matrices, the sub-Pfaffian memo and pf(S x_m).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import polys
from .matrices import char_poly_fl, zi_matrix, zi_sub_pfaffians, _qi
from .scalars import ZERO, ONE


# kind: "partial" or "full"; values: list of QI
InvariantVector = namedtuple("InvariantVector", "algebra n kind values")


# coeffs: (j, sign) per coefficient generator f = sign * b_j; pfaffian:
# None, or the sign s of b_m = s * pf^2 when pf(S*x) is the last generator;
# even: the reduced characteristic polynomial is q of det = t^(m mod 2) q(t^2)
GeneratorSpec = namedtuple("GeneratorSpec", "coeffs pfaffian even")


@lru_cache(maxsize=None)
def generator_spec(ctx_m):
    """Generators of one chain level from det(t*I - x) = t^m + b_1 t^(m-1)
    + ... + b_m (the Faddeev-LeVerrier coefficients), built once per level
    context (the GeneratorSpec is immutable, so every reader shares it):
      * gl(m): elementary symmetric functions f_j = (-1)^j b_j, j = 1..m;
      * so(2k+1): the proper coefficients c_j = b_2j of the monic
        q(u) = u^k + c_1 u^(k-1) + ... + c_k, reported as (c_1, ..., c_k);
      * so(2k): (c_1, ..., c_(k-1), pf) with pf the Pfaffian of S*x; the
        omitted c_k = (-1)^k pf^2 is redundant."""
    m = ctx_m.n
    if ctx_m.kind == "gl":
        return GeneratorSpec(tuple((j, (-1) ** j) for j in range(1, m + 1)),
                             None, False)
    return GeneratorSpec(tuple((2 * j, 1) for j in range(1, (m + 1) // 2)),
                         None if m % 2 else (-1) ** (m // 2), True)


def _signed(sign, v):
    return v if sign > 0 else -v


def _reduced(spec, b):
    """The reduced characteristic polynomial, low degree first, from
    b_1..b_m: det(t*I - x) itself on gl, q on so (where polys.even_part
    raises unless every odd-index b_j vanishes)."""
    p = b[::-1] + [ONE]
    return polys.even_part(p, len(b) % 2) if spec.even else p


def reduced_char(ctx, mat):
    """For so: the monic q with char(t) = t^(n mod 2) * q(t^2).
    For gl: the characteristic polynomial itself.  mat may be a ZiMatrix."""
    return _reduced(generator_spec(ctx), char_poly_fl(mat)[0])


def pfaffian_minors(ctx_m, image):
    """The sub-Pfaffian memo (matrices.zi_sub_pfaffians) of S X_m on a
    level whose last generator is pf(S x_m), else None; image is the
    ZiMatrix (re, im, d) of x_m and X_m = d x_m its integers, so S X_m is
    re and im with their rows reversed, and pf(S x_m) is the memo's
    Pfaffian of all m indices over d^(m/2).  Raises ValueError unless
    S X_m is antisymmetric (x_m in so(m))."""
    if not generator_spec(ctx_m).pfaffian:
        return None
    re, im, _ = image
    return zi_sub_pfaffians(re[::-1], None if im is None else im[::-1])


def _level_data(ctx_m, image):
    """(b, aux, minors, pf) from the ZiMatrix of x_m: b_1..b_m of
    det(t*I - x_m) and the auxiliary matrices (matrices.char_poly_fl), and
    pfaffian_minors with pf(S x_m) read from it, both None unless pf(S x_m)
    is a generator of the level."""
    b, aux = char_poly_fl(image)
    minors = pfaffian_minors(ctx_m, image)
    pf = (None if minors is None else
          _qi(*minors(tuple(range(ctx_m.n))), image.d ** (ctx_m.n // 2)))
    return b, aux, minors, pf


def level_values(ctx_m, b, pf):
    """Generator values of one chain level from b_1..b_m of det(t*I - x_m)
    and pf = pf(S x_m), None unless that is a generator of the level.
    Raises unless the odd-index b_j vanish on so (polys.even_part) and
    pf^2 = +-b_m."""
    spec = generator_spec(ctx_m)
    _reduced(spec, b)                  # checks the parity on so
    values = [_signed(sign, b[j - 1]) for j, sign in spec.coeffs]
    if spec.pfaffian:
        if b[-1] != _signed(spec.pfaffian, pf * pf):
            raise AssertionError("Pfaffian square does not match determinant")
        values.append(pf)
    return values


def _values_at(ctx_m, image):
    """Generator values of one chain level from the ZiMatrix of x_m."""
    b, _, _, pf = _level_data(ctx_m, image)
    return level_values(ctx_m, b, pf)


def partial_kw(ctx, mat):
    image = zi_matrix(mat.a)
    values = (_values_at(ctx.child, ctx.down_zi(image))
              + _values_at(ctx, image))
    return InvariantVector(ctx.kind, ctx.n, "partial", values)


def full_kw(ctx, mat):
    """Generator values of every chain level, from the floor up."""
    values = [_values_at(lvl, image)
              for lvl, image in ctx.walk(zi_matrix(mat.a))][::-1]
    return InvariantVector(ctx.kind, ctx.n, "full", sum(values, []))


def coincidence_of(ctx, b, b_sub):
    """The coincidence count (see coincidence_count) from b_1..b_n of x and
    b_1..b_(n-1) of its projection one level down, through the rank of
    their Sylvester rows over Z[i] (polys.gcd_degree)."""
    return polys.gcd_degree(_reduced(generator_spec(ctx), b),
                            _reduced(generator_spec(ctx.child), b_sub))


def coincidence_count(ctx, mat):
    """Number of matched eigenvalue pairs between x and its projection one
    level down: the degree of the gcd of the two reduced characteristic
    polynomials (in u = t^2 for so, in t for gl)."""
    image = zi_matrix(mat.a)
    return coincidence_of(ctx, char_poly_fl(image)[0],
                          char_poly_fl(ctx.down_zi(image))[0])


def _poly_from_values(ctx_m, values):
    """Reconstruct the reduced characteristic polynomial from generator
    values of one level (inverse of level_values up to the redundant
    coefficient)."""
    spec = generator_spec(ctx_m)
    b = [ZERO] * ctx_m.n
    for (j, sign), f in zip(spec.coeffs, values):
        b[j - 1] = _signed(sign, f)
    if spec.pfaffian:
        b[-1] = _signed(spec.pfaffian, values[-1] * values[-1])
    return _reduced(spec, b)


def stratum_of_value(ctx, vector):
    """Coincidence count shared by the whole fibre over a partial-map value
    of ctx's algebra (r_(n-1) + r_n values; ValueError otherwise)."""
    if vector.kind != "partial":
        raise ValueError("stratum_of_value expects a partial invariant vector")
    r_sub = ctx.child.invariant_rank()
    count = r_sub + ctx.invariant_rank()
    if ((vector.algebra, vector.n) != (ctx.kind, ctx.n)
            or len(vector.values) != count):
        raise ValueError(
            "a partial value of %s has %d values, got %d of %s(%s)"
            % (ctx.describe(), count, len(vector.values), vector.algebra,
               vector.n))
    q_sub = _poly_from_values(ctx.child, vector.values[:r_sub])
    q_top = _poly_from_values(ctx, vector.values[r_sub:])
    return polys.gcd_degree(q_sub, q_top)

