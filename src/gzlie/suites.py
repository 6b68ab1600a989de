"""Randomized verification suites.

Every suite draws its randomness from a sampler seeded by (config seed,
claim id), so a report is reproducible bit for bit from its configuration;
failures carry replayable matrix documents as witnesses, which a check
builds only when it fails (ClaimResult.check).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, asdict

from .scalars import BACKEND
from .matrices import row_space_contains
from .liealg import make_algebra, adjoint
from .invariants import partial_kw, coincidence_count
from .regularity import (is_nsreg, is_sreg, kostant_jacobian_rank,
                         nsreg_intersection, chain_centralizer_ranks)
from .korbits import (enumerate_orbits, stable_parabolic, nilfibre_components,
                      nilfibre_overlap_vector, sample_nilfibre, sample_yq,
                      sample_g0, sample_chain_disjoint, sample_xi, xi_shape,
                      xi_flip_element, xi_slot_count, _supports,
                      _span_coordinates)
from .rand import Sampler
from .docio import emit_matrix_doc

# chain sizes n each suite covers, per kind; --n-min and --n-max narrow them
SIZES = {
    "orbit-tables": {"so": (3, 12)},
    "kostant-equivalence": {"gl": (3, 5), "so": (4, 7)},
    "gzero-nsreg": {"gl": (3, 5), "so": (4, 7)},
    "nilfibre": {"so": (3, 8)},        # so(3): the sreg exception only
    "yq-strata": {"so": (5, 7)},
    "xi-families": {"so": (5, 6)},
    "dimension-identities": {"gl": (2, 12), "so": (3, 12)},
    "sreg-chain": {"gl": (3, 6), "so": (4, 6)},
    "overlaps": {"so": (4, 8)},
}

# fewest trials per claim a suite can decide: a claim of yq-strata holds when
# a majority of its trials (exact_fraction > 1/2) agree, which one exact
# section out of two never is
MIN_TRIALS = {"yq-strata": 3}


@dataclass
class SuiteConfig:
    suite: str
    trials: int = 0          # 0 = per-suite default
    seed: int = 0
    n_min: int = 0
    n_max: int = 0


@dataclass
class ClaimResult:
    claim: str
    statement: str
    trials: int = 0
    passes: int = 0
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures

    def check(self, cond, witness=None):
        """Count one trial; on a failure, keep the document that the
        zero-argument callable witness builds (only then is it called)."""
        self.trials += 1
        if cond:
            self.passes += 1
        elif len(self.failures) < 10:
            self.failures.append(witness and witness()
                                 or {"trial": self.trials})
        return cond


@dataclass
class Report:
    suite: str
    config: dict
    claims: list
    wall_time: float

    @property
    def passed(self):
        return all(c.ok for c in self.claims)

    def to_dict(self, include_timing=True):
        d = {"suite": self.suite, "config": self.config,
             "passed": self.passed,
             "claims": [asdict(c) | {"ok": c.ok} for c in self.claims]}
        if include_timing:
            d["wall_time"] = self.wall_time
            d["backend"] = BACKEND
        return d

    def summary_lines(self):
        out = ["suite %s: %s (%.2fs)"
               % (self.suite, "PASS" if self.passed else "FAIL",
                  self.wall_time)]
        for c in self.claims:
            out.append("  [%s] %-42s %d/%d  %s"
                       % ("ok" if c.ok else "XX", c.claim, c.passes,
                          c.trials, c.statement))
        return out


def _claim_sampler(cfg, claim_id):
    return Sampler(cfg.seed ^ zlib.crc32(claim_id.encode()))


def _range(cfg, kind):
    lo, hi = SIZES[cfg.suite][kind]
    lo2 = max(lo, cfg.n_min) if cfg.n_min else lo
    hi2 = min(hi, cfg.n_max) if cfg.n_max else hi
    return range(lo2, hi2 + 1)


def _targets(cfg):
    return [(kind, n) for kind in SIZES[cfg.suite] for n in _range(cfg, kind)]


def _witness(ctx, mat, trial, **info):
    return {"trial": trial, "matrix": emit_matrix_doc(ctx, mat)} | info


# --- individual suites ------------------------------------------------------

def suite_orbit_tables(cfg):
    claims = []
    for n in _range(cfg, "so"):
        ctx = make_algebra("so", n)
        l = ctx.l
        odd = n % 2 == 1
        c = ClaimResult("orbit-table-so%d" % n,
                        "orbit count, codimensions, closed orbits and "
                        "monoid edges of so(%d)" % n)
        orbits, edges = enumerate_orbits(ctx)
        expected_count = l + 2 if odd else l
        expected_codims = sorted([l, l] + list(range(l)) if odd
                                 else [l - 1] + list(range(l - 1)))
        c.check(len(orbits) == expected_count,
                lambda: {"got": len(orbits), "expected": expected_count})
        c.check(sorted(o.codim for o in orbits) == expected_codims,
                lambda: {"got": sorted(o.codim for o in orbits)})
        c.check(sum(o.closed for o in orbits) == (2 if odd else 1),
                lambda: {"closed": [o.name for o in orbits if o.closed]})
        # expected path-shaped edge set
        expected_edges = set()
        top = l - 1 if odd else l - 2
        if odd:
            expected_edges.add(("Q+", l - 1, "Q%d" % top))
            expected_edges.add(("Q-", l - 1, "Q%d" % top))
        else:
            expected_edges.add(("Q+", l - 2, "Q%d" % top))
            expected_edges.add(("Q+", l - 1, "Q%d" % top))
        for i in range(top, 0, -1):
            expected_edges.add(("Q%d" % i, i - 1, "Q%d" % (i - 1)))
        c.check(set(edges) == expected_edges,
                lambda: {"got": sorted(set(edges)),
                         "expected": sorted(expected_edges)})
        # closed orbit dimension: dim of flag variety of k
        kflag = ctx.child.flag_dim()
        for o in orbits:
            if o.closed:
                c.check(ctx.flag_dim() - o.codim == kflag,
                        lambda: {"orbit": o.name})
        claims.append(c)
    return claims


def _mixed_sample(ctx, sampler, t):
    mode = t % 6
    if mode == 0:
        return sampler.algebra_element(ctx)
    if mode == 1:
        return sampler.span_element(ctx.borel_basis)
    if mode == 2:
        if ctx.kind == "so":
            comps = nilfibre_components(ctx)
            return sample_nilfibre(ctx, sampler, t % len(comps))
        strict = [b for b, (i, j) in zip(ctx.basis, ctx.basis_positions)
                  if i < j]
        return sampler.span_element(strict)
    if mode == 3 and ctx.kind == "so":
        slots = xi_slot_count(ctx)
        i = sampler.rnd.randint(0, slots)
        pat = "".join(sampler.rnd.choice("UL") for _ in range(i))
        return sample_xi(ctx, i, pat, sampler)
    if mode == 4:
        return sample_g0(ctx, sampler)
    # partially coincident semisimple element
    l = ctx.l
    vals = [sampler.nonzero_rational() for _ in range(max(l // 2, 1))]
    x = ctx.from_coordinates([vals[a % len(vals)] for a in range(l)],
                             _supports(ctx.cartan_basis))
    g = sampler.subgroup_element(ctx)
    return adjoint(g, x)


def suite_kostant_equivalence(cfg):
    claims = []
    trials = cfg.trials or 30
    for kind, n in _targets(cfg):
        ctx = make_algebra(kind, n)
        full = ctx.invariant_rank(n) + ctx.invariant_rank(n - 1)
        cid = "kostant-equivalence-%s%d" % (kind, n)
        c = ClaimResult(cid, "nsreg holds iff the partial-map jacobian "
                             "has rank %d on %s(%d)" % (full, kind, n))
        s = _claim_sampler(cfg, cid)
        nsreg_seen = 0
        for t in range(trials):
            x = _mixed_sample(ctx, s, t)
            a = is_nsreg(ctx, x)
            b = kostant_jacobian_rank(ctx, x) == full
            nsreg_seen += a
            c.check(a == b,
                    lambda: _witness(ctx, x, t, nsreg=a, full_rank=b))
        c.extra["nsreg_fraction"] = nsreg_seen / max(trials, 1)
        claims.append(c)
    return claims


def suite_gzero_nsreg(cfg):
    claims = []
    trials = cfg.trials or 25
    for kind, n in _targets(cfg):
        ctx = make_algebra(kind, n)
        cid = "gzero-nsreg-%s%d" % (kind, n)
        c = ClaimResult(cid, "coincidence-free elements of %s(%d) are nsreg "
                             "with zero-dimensional joint stabilizer"
                        % (kind, n))
        s = _claim_sampler(cfg, cid)
        for t in range(trials):
            x = sample_g0(ctx, s)
            nsreg = is_nsreg(ctx, x)
            c.check(nsreg, lambda: _witness(
                ctx, x, t, dim=len(nsreg_intersection(ctx, x))))
        claims.append(c)
    return claims


def suite_nilfibre(cfg):
    claims = []
    trials = cfg.trials or 20
    sizes = _range(cfg, "so")
    for n in sizes:
        if n == 3:
            continue
        ctx = make_algebra("so", n)
        comps = nilfibre_components(ctx)
        cid = "nilfibre-so%d" % n
        c = ClaimResult(cid, "nilfibre sections of so(%d) map to zero and "
                             "are never nsreg" % n)
        s = _claim_sampler(cfg, cid)
        for t in range(trials):
            comp = t % len(comps)
            x = sample_nilfibre(ctx, s, comp)
            zero = all(not v for v in partial_kw(ctx, x).values)
            c.check(zero and not is_nsreg(ctx, x),
                    lambda: _witness(ctx, x, t, component=comp,
                                     maps_to_zero=zero))
        claims.append(c)
    if 3 in sizes:
        claims.append(_so3_sreg_exception(cfg))
    return claims


def _so3_sreg_exception(cfg):
    """The rank-one exception: the so(3) nilfibre contains strongly regular
    points."""
    cid = "nilfibre-so3-sreg-exception"
    c = ClaimResult(cid, "the so(3) nilfibre contains strongly regular "
                         "elements")
    ctx = make_algebra("so", 3)
    s = _claim_sampler(cfg, cid)
    witness = None
    for t in range(50):
        x = sample_nilfibre(ctx, s, t % 2)
        if is_sreg(ctx, x):
            witness = x
            break
    c.check(witness is not None)
    if witness is not None:
        c.extra["witness"] = emit_matrix_doc(ctx, witness)
    return c


def suite_yq_strata(cfg):
    claims = []
    trials = cfg.trials or 20
    for n in _range(cfg, "so"):
        ctx = make_algebra("so", n)
        orbits, _ = enumerate_orbits(ctx)
        for o in orbits:
            cid = "yq-stratum-so%d-%s" % (n, o.name)
            c = ClaimResult(cid, "sections over orbit %s of so(%d) have "
                                 "coincidence >= %d, generically equal"
                            % (o.name, n, o.codim))
            s = _claim_sampler(cfg, cid)
            exact = 0
            for t in range(trials):
                x = sample_yq(ctx, o, s)
                cc = coincidence_count(ctx, x)
                exact += cc == o.codim
                c.check(cc >= o.codim,
                        lambda: _witness(ctx, x, t, coincidence=cc,
                                         codim=o.codim))
            frac = exact / max(trials, 1)
            c.extra["exact_fraction"] = frac
            c.check(frac > 0.5, lambda: {"exact_fraction": frac})
            claims.append(c)
    return claims


def suite_xi_families(cfg):
    claims = []
    trials = cfg.trials or 3
    for n in _range(cfg, "so"):
        ctx = make_algebra("so", n)
        l = ctx.l
        slots = xi_slot_count(ctx)
        limit = l - 1 if n % 2 == 1 else l - 2
        # the stable parabolic of each index, the Borel past the last
        parabolic = [_supports(ctx.borel_basis if i > limit else
                               stable_parabolic(ctx, i).r_basis)
                     for i in range(slots + 1)]
        cid = "xi-families-so%d" % n
        c = ClaimResult(cid, "patterned families of so(%d): coincidence "
                             ">= i, all-raised pattern sits in the stable "
                             "parabolic, flips lower->raise" % n)
        s = _claim_sampler(cfg, cid)
        for i in range(slots + 1):
            for mask in range(2 ** i):
                pat = "".join("U" if (mask >> j) & 1 == 0 else "L"
                              for j in range(i))
                for t in range(trials):
                    x = sample_xi(ctx, i, pat, s)
                    c.check(coincidence_count(ctx, x) >= i,
                            lambda: _witness(ctx, x, t, pattern=pat))
                    c.check(xi_shape(ctx, x, i) == pat,
                            lambda: _witness(ctx, x, t, pattern=pat))
                    if pat == "U" * i:
                        c.check(_span_coordinates(ctx, x, parabolic[i])
                                is not None,
                                lambda: _witness(
                                    ctx, x, t, pattern=pat,
                                    reason="not inside parabolic"))
                    if "L" in pat:
                        j = pat.index("L")
                        w = xi_flip_element(ctx, j)
                        y = adjoint(w, x)
                        np = xi_shape(ctx, y, i)
                        c.check(np is not None and np[j] == "U",
                                lambda: _witness(ctx, x, t, pattern=pat,
                                                 flipped=np))
        claims.append(c)
    return claims


def suite_dimension_identities(cfg):
    claims = []
    for kind in ("gl", "so"):
        cid = "dimension-identities-%s" % kind
        c = ClaimResult(cid, "flag and quotient dimension identities for "
                             "%s(n), n up to 12" % kind)
        for n in _range(cfg, kind):
            ctx = make_algebra(kind, n)
            sub = ctx.child
            lhs = ctx.flag_dim() + sub.flag_dim()
            rhs = ctx.dim - ctx.invariant_rank(n) - ctx.invariant_rank(n - 1)
            c.check(lhs == rhs,
                    lambda: {"n": n, "flag_sum": lhs, "rhs": rhs})
            c.check(rhs == sub.dim,
                    lambda: {"n": n, "rhs": rhs, "dim_k": sub.dim})
        claims.append(c)
    return claims


def suite_sreg_chain(cfg):
    claims = []
    trials = cfg.trials or 15
    for kind, n in _targets(cfg):
        ctx = make_algebra(kind, n)
        cid = "sreg-chain-%s%d" % (kind, n)
        c = ClaimResult(cid, "chain-disjoint spectra force strong "
                             "regularity on %s(%d)" % (kind, n))
        s = _claim_sampler(cfg, cid)
        for t in range(trials):
            x = sample_chain_disjoint(ctx, s)
            c.check(is_sreg(ctx, x), lambda: _witness(ctx, x, t))
        # trivial chain intersections imply regularity at every level
        cid2 = "sreg-implies-regular-%s%d" % (kind, n)
        c2 = ClaimResult(cid2, "strongly regular elements of %s(%d) are "
                               "regular at every chain level" % (kind, n))
        s2 = _claim_sampler(cfg, cid2)
        for t in range(trials):
            x = s2.algebra_element(ctx)
            ranks = list(zip(ctx.levels, chain_centralizer_ranks(ctx, x)))
            if all(krank == lvl.k_dim() for lvl, (krank, _) in ranks[:-1]):
                ok = all(lvl.dim - grank == lvl.invariant_rank()
                         for lvl, (_, grank) in ranks)
                c2.check(ok, lambda: _witness(ctx, x, t))
            else:
                c2.check(True)
        claims.extend([c, c2])
    return claims


def suite_overlaps(cfg):
    claims = []
    trials = cfg.trials or 10
    for n in _range(cfg, "so"):
        ctx = make_algebra("so", n)
        comps = nilfibre_components(ctx)
        cid = "overlaps-so%d" % n
        c = ClaimResult(cid, "joint centralizers over the so(%d) nilfibre "
                             "are nonzero and contain the highest-root line"
                        % n)
        s = _claim_sampler(cfg, cid)
        for t in range(trials):
            comp = t % len(comps)
            y = s.span_element(comps[comp], nonzero=True)
            g = s.subgroup_element(ctx)
            x = adjoint(g, y)
            inter = nsreg_intersection(ctx, x)
            line = adjoint(g, nilfibre_overlap_vector(ctx, comp))
            ok = bool(inter) and row_space_contains(
                [b.flatten() for b in inter], line.flatten(), ctx.n * ctx.n)
            c.check(ok, lambda: _witness(ctx, x, t, component=comp,
                                         intersection_dim=len(inter)))
        claims.append(c)
    return claims


SUITES = {
    "orbit-tables": suite_orbit_tables,
    "kostant-equivalence": suite_kostant_equivalence,
    "gzero-nsreg": suite_gzero_nsreg,
    "nilfibre": suite_nilfibre,
    "yq-strata": suite_yq_strata,
    "xi-families": suite_xi_families,
    "dimension-identities": suite_dimension_identities,
    "sreg-chain": suite_sreg_chain,
    "overlaps": suite_overlaps,
}
SUITE_NAMES = list(SUITES)


def run_suite(cfg):
    if cfg.suite not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (cfg.suite, ", ".join(SUITE_NAMES)))
    t0 = time.time()
    claims = SUITES[cfg.suite](cfg)
    if not any(c.trials for c in claims):
        sizes = ", ".join("%s(%d..%d)" % (kind, lo, hi)
                          for kind, (lo, hi) in SIZES[cfg.suite].items())
        raise ValueError("no claim ran: %s covers %s" % (cfg.suite, sizes))
    return Report(cfg.suite, asdict(cfg), claims, time.time() - t0)


def run_all(cfg):
    reports = []
    for name in SUITE_NAMES:
        sub = SuiteConfig(name, cfg.trials, cfg.seed, cfg.n_min, cfg.n_max)
        reports.append(run_suite(sub))
    return reports
