"""Dense univariate polynomials over Q(i), coefficient lists low degree first.

Zero is the empty list.  gcds are returned monic so that common-root counting
by gcd degree is well defined, and gcd(0, b) is monic b (gcd(0, 0) = 0).

The gcd is read off the Sylvester matrix on the exact kernel of
gzlie.matrices.  For nonzero a and b of degrees m and n, the rows x^j a
(j <= n) and x^j b (j <= m) span the multiples of gcd(a, b) of degree at most
m + n; that is one shift of each more than Syl(a, b) has, so constants need
no case of their own.  With columns running from the top degree down, the
last nonzero row of the reduced row echelon form over all m + n + 1
columns is the multiple of least degree with leading coefficient 1: the
monic gcd itself (gzlie.matrices.last_rref_row, the forward pass's pivot
row of the largest pivot column divided by its pivot).  The same rows
give the degree of the gcd alone (gcd_degree): they span
m + n + 1 - deg gcd(a, b) dimensions, so that degree is m + n + 1 minus
their rank, taken over Z[i] with each polynomial converted once, to its
primitive Gaussian-integer row (gzlie.matrices._zi_rows).

The coincidence count, stratum_of_value and sample_chain_disjoint read
gcd_degree (sample_g0 reads the coincidence count).  Its rank goes
through the modular filter (gzlie.matrices._certified_rank) with the
width m + n + 1 as the bound: a coprime pair, whose rows have full rank,
is certified mod p, and any other pair takes the exact pass.
No package path reads gcd itself, nor gzlie.matrices.last_rref_row
behind it; the bench tracer (perfbench/tracer.py) names gcd as its
polys.gcd layer, and the tests pin it to the Euclidean algorithm.
"""

from __future__ import annotations

from .matrices import last_rref_row, _certified_rank, _zi_rows
from .scalars import ZERO


def normalize(p):
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return p[:n]


def degree(p):
    return len(p) - 1  # -1 for the zero polynomial


def gcd(a, b):
    """Monic gcd read off the Sylvester matrix of a and b (see above)."""
    a, b = normalize(list(a)), normalize(list(b))
    if not (a and b):
        p = a or b
        rows = [p[::-1]]
    else:
        width = len(a) + len(b) - 1
        rows = [[ZERO] * (width - len(p) - j) + p[::-1] + [ZERO] * j
                for p, shifts in ((a, len(b)), (b, len(a)))
                for j in range(shifts)]
    return normalize(last_rref_row(rows)[::-1])


def _sylvester_rows(a, b):
    """(rows, width): the Sylvester rows of gcd over Z[i] (see above) of
    nonzero normalized a and b, each polynomial converted once."""
    width = len(a) + len(b) - 1
    rows = []
    for (re, im), shifts in zip(_zi_rows([a, b]), (len(b), len(a))):
        for j in range(shifts):
            low, high = [0] * j, [0] * (width - len(re) - j)
            rows.append([low + re + high,
                         None if im is None else low + im + high])
    return rows, width


def gcd_degree(a, b):
    """degree(gcd(a, b)), from the rank of the Sylvester rows of gcd over
    Z[i], certified mod p when it is full (see above)."""
    a, b = normalize(list(a)), normalize(list(b))
    if not (a and b):
        return degree(a or b)
    rows, width = _sylvester_rows(a, b)
    return width - _certified_rank(rows, width, width)


def even_part(p, parity):
    """For p(x) with p(-x) = (-1)**parity * p(x), return q with
    p(x) = x**parity * q(x**2).  Raises if p lacks the claimed parity."""
    p = normalize(list(p))
    if not p:
        return []
    for k, c in enumerate(p):
        if (k - parity) % 2 != 0 and c:
            raise ValueError("polynomial does not have parity %d" % parity)
    return [p[k] for k in range(parity, len(p), 2)]
