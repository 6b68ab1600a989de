"""Command line interface.

Verbs: analyze one element, print orbit tables, draw samples from the
distinguished families, run verification suites.  Exit codes: 0 success,
1 verification/analysis failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .scalars import BACKEND
from .liealg import analyzable_algebra
from .docio import (parse_matrix_doc, emit_matrix_doc, DocumentError,
                    analysis_report, analysis_text)
from .korbits import (orbit_graph, orbit_graph_text, orbit_by_name, sample_yq,
                      sample_xi, sample_nilfibre, sample_g0,
                      sample_chain_disjoint)
from .rand import Sampler
from .suites import SuiteConfig, SUITE_NAMES, MIN_TRIALS, run_suite, run_all


def _fail_usage(msg):
    print("error: %s" % msg, file=sys.stderr)
    return 2


def _fail_sampler(exc):
    # a rejection sampler ran out of tries: a failure, not a usage error
    print("error: %s" % exc, file=sys.stderr)
    return 1


def cmd_analyze(args):
    try:
        with open(args.input) as fh:
            doc = json.load(fh)
    except OSError as exc:
        return _fail_usage("cannot read %s: %s" % (args.input, exc))
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not text, or nesting deeper than
        # the decoder's recursion limit
        return _fail_usage("invalid JSON in %s: %s" % (args.input, exc))
    try:
        ctx, mat = parse_matrix_doc(doc)
        report = analysis_report(ctx, mat)
    except DocumentError as exc:
        return _fail_usage(str(exc))
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(analysis_text(report))
    return 0


def cmd_orbits(args):
    if args.kind != "so":
        return _fail_usage("orbit tables are defined for --kind so")
    try:
        ctx = analyzable_algebra("so", args.n)
    except ValueError as exc:
        return _fail_usage(str(exc))
    graph = orbit_graph(ctx)
    if args.json:
        print(json.dumps(graph, indent=2))
    else:
        print(orbit_graph_text(graph))
    return 0


def cmd_sample(args):
    try:
        # the emitted document must be one that analyze accepts
        ctx = analyzable_algebra(args.kind, args.n)
    except ValueError as exc:
        return _fail_usage(str(exc))
    s = Sampler(args.seed)
    try:
        if args.what == "yq":
            if not args.orbit:
                return _fail_usage("--what yq needs --orbit")
            orbit = orbit_by_name(ctx, args.orbit)
            mat = sample_yq(ctx, orbit, s)
        elif args.what == "xi":
            pat = args.pattern or ""
            mat = sample_xi(ctx, len(pat), pat, s)
        elif args.what == "nilfibre":
            mat = sample_nilfibre(ctx, s, args.component)
        elif args.what == "g0":
            mat = sample_g0(ctx, s)
        else:
            mat = sample_chain_disjoint(ctx, s)
    except ValueError as exc:
        return _fail_usage(str(exc))
    except RuntimeError as exc:
        return _fail_sampler(exc)
    print(json.dumps(emit_matrix_doc(ctx, mat), indent=2))
    return 0


def cmd_verify(args):
    if min(args.trials, args.n_min, args.n_max) < 0 or (
            0 < args.n_max < args.n_min):
        return _fail_usage("--trials, --n-min and --n-max must be >= 0 "
                           "(0 = suite default), --n-min <= --n-max")
    for name in SUITE_NAMES if args.suite == "all" else [args.suite]:
        low = MIN_TRIALS.get(name, 1)
        if 0 < args.trials < low:
            return _fail_usage("--trials must be 0 (suite default) or at "
                               "least %d for %s, whose claims take a "
                               "majority of their trials" % (low, name))
    cfg = SuiteConfig(args.suite, args.trials, args.seed,
                      args.n_min, args.n_max)
    try:
        reports = (run_all(cfg) if args.suite == "all"
                   else [run_suite(cfg)])
    except ValueError as exc:
        return _fail_usage(str(exc))
    except RuntimeError as exc:
        return _fail_sampler(exc)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print("\n".join(r.summary_lines()))
    return 0 if all(r.passed for r in reports) else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="gzlie",
        description="Exact chain-restriction invariants, regularity tests "
                    "and K-orbit tables for gl(n) and so(n) over Q(i).")
    p.add_argument("--version", action="version",
                   version="gzlie %s (%s)" % (__version__, BACKEND))
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one element from a matrix "
                                        "document")
    pa.add_argument("--input", required=True, help="path to a JSON matrix "
                                                   "document")
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    po = sub.add_parser("orbits", help="K-orbit table and monoid graph")
    po.add_argument("--kind", default="so", choices=["so", "gl"])
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--json", action="store_true")
    po.set_defaults(func=cmd_orbits)

    ps = sub.add_parser("sample", help="draw an element from a "
                                       "distinguished family")
    ps.add_argument("--what", required=True,
                    choices=["yq", "xi", "nilfibre", "g0", "chain"])
    ps.add_argument("--kind", default="so", choices=["so", "gl"])
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--orbit", help="orbit name for --what yq, e.g. Q1")
    ps.add_argument("--pattern", help="U/L string for --what xi")
    ps.add_argument("--component", type=int, default=0,
                    help="nilfibre component index")
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(func=cmd_sample)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True,
                    choices=SUITE_NAMES + ["all"])
    pv.add_argument("--trials", type=int, default=0,
                    help="trials per claim (0 = suite default)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--n-min", type=int, default=0)
    pv.add_argument("--n-max", type=int, default=0)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        # flush here, so that a reader that closed early shows up inside
        # this try and not at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone: send what is still buffered to
        # devnull, so that the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
