"""Acceptance gate: every verification criterion at full sample counts.

Each test runs one criterion through the suite machinery, asserts it in
full, and prints a single pass/fail line.  The whole module is also
reproducible through `gzlie verify --suite all` with matching trial counts.
"""

import json
import os

from gzlie.docio import parse_matrix_doc
from gzlie.invariants import partial_kw
from gzlie.regularity import is_sreg
from gzlie.korbits import nilfibre_components
from gzlie.matrices import row_space_contains
from gzlie.suites import SuiteConfig, run_suite

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SEED = 2026


def _gate(number, label, report, budget=None):
    ok = report.passed and (budget is None or report.wall_time < budget)
    time_note = " (%.2fs%s)" % (report.wall_time,
                                "" if budget is None else " < %gs" % budget)
    print("ACCEPTANCE %d %-28s: %s%s"
          % (number, label, "PASS" if ok else "FAIL", time_note))
    if not report.passed:
        for c in report.claims:
            if not c.ok:
                print("  failing claim %s: %s" % (c.claim, c.failures[:2]))
    assert ok
    return report


def test_criterion_1_orbit_tables():
    # B pairs l=1..5 (n=3,5,7,9,11) and D pairs l=2..6 (n=4,...,12)
    rep = run_suite(SuiteConfig("orbit-tables", seed=SEED, n_min=3,
                                n_max=12))
    assert len(rep.claims) == 10
    _gate(1, "orbit tables", rep, budget=1.0)


def test_criterion_2_kostant_equivalence():
    rep = run_suite(SuiteConfig("kostant-equivalence", trials=200,
                                seed=SEED))
    assert len(rep.claims) == 7          # gl(3..5) and so(4..7)
    for c in rep.claims:
        assert c.trials == 200
        # mixed sampling must exercise both sides of the equivalence
        assert 0 < c.extra["nsreg_fraction"] < 1
    _gate(2, "nsreg iff full jacobian", rep, budget=120.0)


def test_criterion_3_gzero_nsreg():
    rep = run_suite(SuiteConfig("gzero-nsreg", trials=100, seed=SEED))
    assert all(c.trials == 100 for c in rep.claims)
    _gate(3, "coincidence-free => nsreg", rep)


def test_criterion_4_yq_strata():
    # >= 50 draws per orbit of so(5), so(6), so(7); the suite checks both
    # coincidence >= codim (always) and the > 50% exactness fraction
    rep = run_suite(SuiteConfig("yq-strata", trials=50, seed=SEED))
    per_n = {5: 4, 6: 3, 7: 5}           # orbit counts l+2 / l
    assert len(rep.claims) == sum(per_n.values())
    for c in rep.claims:
        assert c.extra["exact_fraction"] > 0.5
    _gate(4, "orbit sections stratify", rep)


def test_criterion_5_xi_families():
    rep = run_suite(SuiteConfig("xi-families", trials=3, seed=SEED))
    _gate(5, "patterned families", rep)


def test_criterion_6_nilfibre_and_overlaps():
    # alternating component draws: 100 trials = >= 50 per component
    rep_a = run_suite(SuiteConfig("nilfibre", trials=100, seed=SEED))
    rep_b = run_suite(SuiteConfig("overlaps", trials=100, seed=SEED))
    _gate(6, "nilfibre maps to zero", rep_a)
    _gate(6, "nilfibre overlap lines", rep_b)


def test_criterion_7_so3_exception_witness():
    # the rank-one case admits strongly regular nilfibre elements; the
    # frozen witness must replay exactly
    path = os.path.join(FIXTURES, "so3_sreg_witness.json")
    with open(path) as fh:
        ctx, x = parse_matrix_doc(json.load(fh))
    assert ctx.describe() == "so(3)"
    in_fibre = all(not v for v in partial_kw(ctx, x).values)
    comps = nilfibre_components(ctx)
    in_comp = any(row_space_contains([b.flatten() for b in comp],
                                     x.flatten(), 9) for comp in comps)
    sreg = is_sreg(ctx, x)
    ok = in_fibre and in_comp and sreg
    print("ACCEPTANCE 7 %-28s: %s" % ("so(3) sreg witness",
                                      "PASS" if ok else "FAIL"))
    assert ok
    # and the live search inside the suite still finds one; the so(3)
    # claim runs when 3 is in the requested range
    rep = run_suite(SuiteConfig("nilfibre", trials=2, seed=SEED, n_min=3,
                                n_max=4))
    assert rep.passed
    assert any(c.claim == "nilfibre-so3-sreg-exception" and "witness"
               in c.extra for c in rep.claims)


def test_criterion_8_sreg_chain():
    rep = run_suite(SuiteConfig("sreg-chain", trials=100, seed=SEED,
                                n_max=6))
    # both the construction claim and the implication claim, per algebra
    kinds = {c.claim.split("-")[-1] for c in rep.claims}
    assert {"gl3", "gl4", "gl5", "gl6", "so4", "so5", "so6"} <= kinds
    assert all(c.trials == 100 for c in rep.claims)
    _gate(8, "chain disjoint => sreg", rep)


def test_criterion_9_dimension_identities():
    rep = run_suite(SuiteConfig("dimension-identities", seed=SEED,
                                n_max=12))
    _gate(9, "dimension identities", rep)
