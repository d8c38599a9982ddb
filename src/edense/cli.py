"""Batch command-line front end.

Subcommands: analyze, act, cosets, build-cu, crypto-demo, verify.  Every
command prints a findings report (or JSON with --json) and exits 0 only
when all checks pass.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from pathlib import Path

from . import acts, closures, construction, core, cosets, crypto, verify
from .errors import UnreadableFile, WorkbenchError
from .report import Finding, Report


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UnreadableFile(path, exc.strerror) from None
    except UnicodeDecodeError as exc:
        raise UnreadableFile(path, exc.reason) from None


def _load_table(path: str) -> core.FiniteSemigroup:
    return core.parse_cayley_table(_read(path), name=Path(path).stem)


def _emit(report: Report, as_json: bool, extra_text: list[str] | None = None) -> int:
    try:
        if as_json:
            print(report.to_json())
        else:
            print(report.render())
            for block in extra_text or []:
                print(block)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at
        # devnull so the flush at exit cannot fail again, as the note on
        # SIGPIPE in the ``signal`` docs advises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return report.exit_status


def cmd_analyze(args) -> int:
    report = Report(f"analyze {args.table}")
    S = _load_table(args.table)
    report.add(Finding("table-valid", True, f"order {S.n}"))
    if S.identity is not None:
        report.info("identity", S.identity)
    E = sorted(core.idempotents(S))
    report.info("idempotents", " ".join(map(str, E)))
    cls = core.classify_idempotents(S)
    report.info("band", cls.is_band)
    report.info("semilattice", cls.is_semilattice)
    report.info("e-dense", core.is_e_dense(S))
    report.info("e-unitary", core.is_e_unitary(S))
    report.info("group", core.is_group(S))
    report.info("inverse-semigroup", core.is_inverse_semigroup(S))
    report.info("regular-elements", " ".join(map(str, sorted(core.regular_elements(S)))))
    for s in S.elements:
        iv = core.inverse_sets(S, s)
        report.info(
            f"inverses[{s}]",
            f"W={sorted(iv.W)} V={sorted(iv.V)} L={sorted(iv.L)}",
        )
    return _emit(report, args.json)


def _act_from_args(S, args):
    if args.act_file is not None:
        return acts.parse_act(_read(args.act_file), S), f"file:{args.act_file}"
    if args.munn:
        return acts.munn_act(S), "munn"
    carrier = None if args.carrier is None else closures.parse_subset(args.carrier)
    return acts.wagner_preston(S, carrier), "wagner-preston"


def cmd_act(args) -> int:
    S = _load_table(args.table)
    act, kind = _act_from_args(S, args)
    report = Report(f"act {args.table} ({kind})")
    report.add(Finding("act-valid", True, f"{act.carrier} points"))
    props = act.properties
    report.info("effective", props.effective)
    report.info("transitive", props.transitive)
    report.info("indecomposable", props.indecomposable)
    report.info("locally-free", props.locally_free)
    for O in act.orbit_partition:
        report.info(f"orbit[{min(O)}]", " ".join(map(str, sorted(O))))
    for x in act.points:
        report.info(
            f"stabilizer[{x}]", " ".join(map(str, sorted(act.stabilizers[x])))
        )
    g = act.grading
    if isinstance(g, acts.Grading):
        report.info("grading", " ".join(map(str, g.p)))
    else:
        report.info("grading-absent", f"{g.reason} (point {g.witness})")
    return _emit(report, args.json, [acts.format_act(act).rstrip()])


def cmd_cosets(args) -> int:
    S = _load_table(args.table)
    H = closures.parse_subset(args.subsemigroup)
    report = Report(f"cosets {args.table} H={{{closures.format_subset(H)}}}")
    space = cosets.coset_space(S, H)
    report.add(Finding("base-valid", True, f"{len(space.cosets)} cosets"))
    report.info("domain", closures.format_subset(space.domain))
    lines = []
    for c in space.cosets:
        lines.append(closures.format_subset(c.members))
        report.info(f"coset[{min(c.members)}]", closures.format_subset(c.members))
    self_conj = cosets.is_self_conjugate(S, H)
    report.info("self-conjugate", self_conj)
    extra = ["\n".join(lines)]
    if self_conj:
        Q = cosets.quotient_group(S, H)
        report.add(Finding("quotient-group", core.is_group(Q), f"order {Q.n}"))
        extra.append(core.format_cayley_table(Q).rstrip())
    return _emit(report, args.json, extra)


def cmd_build_cu(args) -> int:
    G = _load_table(args.group)
    if args.category is not None:
        C, action = construction.parse_category(_read(args.category), G)
        source = f"category:{args.category}"
    elif args.adjoin_band is not None:
        C, action = construction.adjoin_band_category(G, args.adjoin_band)
        source = f"adjoin-band:{args.adjoin_band}"
    else:
        C, action = construction.derived_category(G)
        source = "derived"
    report = Report(f"build-cu {args.group} ({source})")
    report.info("objects", C.n_objects)
    report.info("morphisms", C.n_morphisms)
    report.add(Finding("strongly-connected", C.is_strongly_connected()))
    report.add(Finding("locally-idempotent", C.is_locally_idempotent()))
    report.add(Finding("action-transitive", action.transitive))
    report.add(Finding("action-free", action.free))
    u = args.object if args.object is not None else (G.identity or 0)
    cu = construction.c_u_monoid(C, action, u)
    S = cu.semigroup
    report.add(Finding("pair-monoid", True, f"order {S.n}"))
    report.add(Finding("e-unitary-dense", core.is_e_unitary(S) and core.is_e_dense(S)))
    report.info("idempotents", len(core.idempotents(S)))
    labels = " ".join(S.label(i) for i in S.elements)
    report.info("elements", labels)
    return _emit(report, args.json, [core.format_cayley_table(S).rstrip()])


def _demo_system(args):
    if args.prime is not None:
        return crypto.modexp_system(args.prime).system, f"modexp p={args.prime}"
    S = construction.fixture(args.fixture)
    return crypto.locally_free_system(S), f"fixture {args.fixture}"


def cmd_crypto_demo(args) -> int:
    rng = random.Random(args.seed)
    sys_, label = _demo_system(args)
    S = sys_.semigroup
    report = Report(f"crypto-demo {label} protocol={args.protocol} seed={args.seed}")
    sizes = sorted(crypto.key_space_sizes(sys_))
    report.info("key-space-sizes", " ".join(map(str, sizes)))
    keys = [s for s in S.elements if crypto.uniform_decrypt_keys(sys_, s)]
    x = rng.choice(sys_.act.points)
    if args.protocol == "mo":
        s, t = rng.choice(keys), rng.choice(keys)
        transcript = crypto.massey_omura(sys_, x, s, t)
    else:
        s, c, d = rng.choice(keys), rng.choice(keys), rng.choice(keys)
        transcript = crypto.elgamal(sys_, x, s, c, d)
    report.info("plaintext", x)
    report.add(Finding("recovered-plaintext", transcript.ok, str(transcript.recovered)))
    first_cipher = transcript.entries[0 if args.protocol == "mo" else 1][2]
    logs = crypto.discrete_log_candidates(sys_, x, first_cipher)
    report.info("discrete-log-candidates", " ".join(map(str, sorted(logs))))
    return _emit(report, args.json, [transcript.render()])


def cmd_verify(args) -> int:
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    if args.corpus:
        report = Report(f"verify --corpus --suite {args.suite}")
        report.extend(verify.corpus_findings(names))
    else:
        S = _load_table(args.table)
        report = Report(f"verify {args.table} --suite {args.suite}")
        report.extend(verify.table_findings(S, names))
    return _emit(report, args.json)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.

    ``parse_args`` keeps no state between calls (each call starts a fresh
    namespace from the defaults), so ``main`` can reuse it.
    """
    parser = argparse.ArgumentParser(
        prog="edense",
        description="Workbench for finite E-dense semigroups and act cryptosystems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural invariants of a Cayley table")
    p.add_argument("table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("act", help="build and validate a partial act")
    p.add_argument("table")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--wagner-preston", action="store_true", default=True)
    mode.add_argument("--munn", action="store_true")
    mode.add_argument("--act-file")
    p.add_argument("--carrier", help="left-ideal carrier ids, e.g. '3 4 5'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("cosets", help="coset space of a closed E-dense subsemigroup")
    p.add_argument("table")
    p.add_argument("--subsemigroup", required=True, help="ids, e.g. '0 3'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("build-cu", help="pair monoid from a group acting on a category")
    p.add_argument("--group", required=True, help="Cayley table file of the group")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--derived", action="store_true", default=True)
    mode.add_argument("--adjoin-band", type=int, metavar="K")
    mode.add_argument("--category", help="category description file")
    p.add_argument("--object", type=int, help="base object (default: group identity)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_build_cu)

    p = sub.add_parser("crypto-demo", help="seeded protocol transcript")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--prime", type=int)
    target.add_argument("--fixture", choices=construction.FIXTURE_NAMES)
    p.add_argument("--protocol", choices=("mo", "elgamal"), default="mo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_crypto_demo)

    p = sub.add_parser("verify", help="run the lemma verification suites")
    p.add_argument("table", nargs="?")
    p.add_argument("--corpus", action="store_true")
    p.add_argument(
        "--suite", choices=verify.SUITE_NAMES + ("all",), default="all"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.corpus and not args.table:
        parser.error("verify needs a table file or --corpus")
    if args.command == "verify" and args.corpus and args.table is not None:
        parser.error("verify takes a table file or --corpus, not both")
    if args.command == "act" and args.carrier is not None and (args.munn or args.act_file is not None):
        parser.error("--carrier applies only to the Wagner-Preston act")
    try:
        return args.func(args)
    except WorkbenchError as exc:
        report = Report(args.command)
        report.add(Finding(type(exc).__name__, False, str(exc)))
        return _emit(report, getattr(args, "json", False))


if __name__ == "__main__":
    sys.exit(main())
