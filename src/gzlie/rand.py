"""Deterministic seeded sampling of bounded rationals and algebra elements.

All verification randomness flows through Sampler so that every witness can
be replayed from (seed, trial index).
"""

from __future__ import annotations

import random

from .scalars import rat
from .matrices import Mat, solve, full_rank_zi_rows, _zi_rows

# rational() draws num / den, |num| <= NUM_BOUND, den = 1 or <= DEN_BOUND
NUM_BOUND = 20
DEN_BOUND = 10


class Sampler:
    def __init__(self, seed):
        self.rnd = random.Random(seed)

    def rational(self):
        num = self.rnd.randint(-NUM_BOUND, NUM_BOUND)
        den = 1 if self.rnd.random() < 0.5 else self.rnd.randint(
            1, DEN_BOUND)
        return rat(num, den)

    def nonzero_rational(self):
        while True:
            v = self.rational()
            if v:
                return v

    def small_rational(self):
        return rat(self.rnd.randint(-3, 3), self.rnd.randint(1, 3))

    def algebra_element(self, ctx):
        return ctx.from_coordinates([self.rational()
                                     for _ in range(ctx.dim)])

    def distinct_square_free(self, count):
        """count nonzero values with a_i != +-a_j for i != j."""
        vals = []
        squares = set()
        while len(vals) < count:
            v = self.nonzero_rational()
            if v * v not in squares:
                squares.add(v * v)
                vals.append(v)
        return vals

    def group_element(self, ctx):
        """Rational point of the isometry group of ctx (so) or an invertible
        matrix (gl), via the Cayley transform (I + a)^-1 (I - a).  As
        I - a = 2I - (I + a), (I + a) X = I - a is solvable iff I + a is
        invertible; X is invertible iff I - a has full rank."""
        ident = Mat.identity(ctx.n)
        while True:
            a = ctx.from_coordinates([self.small_rational()
                                      for _ in range(ctx.dim)])
            minus = ident - a
            g = solve(ident + a, minus)
            if g is not None and full_rank_zi_rows(_zi_rows(minus.a),
                                                   ctx.n):
                return g

    def subgroup_element(self, ctx):
        """Rational point of K inside the group of ctx, lifted from one
        level down the chain."""
        return ctx.group_up(self.group_element(ctx.child))

    def span_element(self, basis, nonzero=False):
        n = basis[0].n
        while True:
            acc = Mat.zeros(n)
            for b in basis:
                c = self.rational()
                if c:
                    acc = acc + c * b
            if acc.is_zero() and nonzero:
                continue
            return acc
