"""Command line front end: analyze, verify, salem, congruence.

Exit codes: 0 success, 1 usage or parse error, 2 domain-hypothesis failure
(a report flagged "hypotheses not met", a salem matrix with det != +-1, or a
failed verification suite), 3 an internal invariant failed.  Output is
deterministic for a fixed seed; JSON carries the schema tag "picard3-aut/1".
Styling is plain ANSI bold for headers, disabled by PICARD3_NO_COLOR or when
stdout is not a terminal.  Each ``cmd_*`` returns (exit code, JSON document,
text header, text body as a function, so a JSON run never renders it) and
prints nothing; ``main`` alone adds the schema tag, styles and prints.
``main`` parses argv once, with the named subcommand's parser only; an argv
that does not start with a subcommand goes to the top-level parser, which
prints help or a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .report import SCHEMA, analyze_picard, congruence_data, salem_poly
from .verify import ALL_SUITES, GRAM_BOUND, run_suites


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _Refusal(Exception):
    """A refused command: ``main`` prints ``error: <message>``, exits ``code``."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


@lru_cache(maxsize=1)  # building it costs more than a small analyze run
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="picard3",
                description="automorphism groups of rank-3 Picard lattices "
                            "via even Clifford units")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="text")
    # each subparser carries its name and handler; the handler looks cmd_* up
    # when it runs, so a replaced module attribute reaches this cached parser
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[fmt], help="report Aut(X) for U(k) + <2l>")
    pa.set_defaults(command="analyze", handler=lambda args: cmd_analyze(args))
    group = pa.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="shorthand for (k, l) = (n, -n)")
    group.add_argument("--k", type=int)
    pa.add_argument("--l", type=int)
    pa.add_argument("--search-bound", type=int, default=20)

    pv = sub.add_parser("verify", parents=[fmt], help="run the seeded property suites")
    pv.set_defaults(command="verify", handler=lambda args: cmd_verify(args))
    pv.add_argument("--suite", choices=sorted(ALL_SUITES), default=None,
                    help="run a single suite (default: all)")
    pv.add_argument("--trials", type=int, default=25)
    pv.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("salem", parents=[fmt], help="salem data of a 2x2 matrix a,b,c,d")
    ps.set_defaults(command="salem", handler=lambda args: cmd_salem(args))
    ps.add_argument("--matrix", required=True,
                    help="four comma-separated integers, row major")

    pc = sub.add_parser("congruence", parents=[fmt], help="congruence data of G_n")
    pc.set_defaults(command="congruence", handler=lambda args: cmd_congruence(args))
    pc.add_argument("--n", type=int, required=True)
    p.commands = sub.choices
    return p


def cmd_analyze(args):
    if args.n is not None:
        if args.l is not None:
            raise _Refusal("--n and --l are mutually exclusive")
        if args.n < 1:
            raise _Refusal("n must be positive")
        k, l = args.n, -args.n
    else:
        if args.l is None:
            raise _Refusal("--k requires --l")
        k, l = args.k, args.l
    try:
        report = analyze_picard(k, l, search_bound=args.search_bound)
    except ValueError as exc:
        raise _Refusal(str(exc)) from exc
    return (0 if report.hypotheses_met else 2, report.to_json(),
            f"picard3 analyze (k={k}, l={l})", report.render_text)


def cmd_verify(args):
    if args.trials < 1:
        raise _Refusal("--trials must be positive")
    names = [args.suite] if args.suite else sorted(ALL_SUITES)
    results = run_suites(names, args.trials, args.seed)
    ok = all(r.ok for r in results)
    doc = {"trials": args.trials, "seed": args.seed, "gram_bound": GRAM_BOUND,
           "suites": [r.to_json() for r in results], "ok": ok}
    return (0 if ok else 2, doc,
            f"picard3 verify (trials={args.trials}, seed={args.seed}, "
            f"gram_bound={GRAM_BOUND})",
            lambda: "\n".join(
                f"suite {r.name}: {r.passed} passed, {r.failed} failed "
                f"[{'pass' if r.ok else 'FAIL'}]"
                + "".join(f"\n  failure: {f}" for f in r.failures[:5])
                for r in results))


def cmd_salem(args):
    try:
        vals = [int(x) for x in args.matrix.split(",")]
        if len(vals) != 4:
            raise ValueError("need exactly four entries")
    except ValueError as exc:
        raise _Refusal(f"bad --matrix: {exc}") from exc
    a, b, c, d = vals
    if a * d - b * c not in (1, -1):
        raise _Refusal(f"det = {a * d - b * c}, not +-1", 2)
    datum = salem_poly([[a, b], [c, d]])
    kind = "symplectic" if datum.symplectic else "anti-symplectic"
    verdict = "Salem" if datum.is_salem else "not Salem"
    return (0, datum.to_json(), f"picard3 salem {vals}",
            lambda: f"char poly: (t - {datum.nr})(t^2 - {datum.a_value} t + 1)\n"
                    f"A = {datum.a_value}; {kind}; {verdict}")


def cmd_congruence(args):
    n = args.n
    if n < 1:
        raise _Refusal("n must be positive")
    doc = {"subgroup": {"kind": "G_n", "n": n}, **congruence_data(n)}
    search = doc["torsion_bounded_search"]
    found, bound = search["found_count"], search["bound"]
    lines = [f"[Pi : G_{n}] = {doc['index_in_Pi']}, delta_{n} = {doc['delta_n']}",
             f"torsion: {found} elements with entries <= {bound}; not free" if found
             else f"torsion: none with entries <= {bound} (bounded evidence only)"]
    if doc["free_rank"] is not None:
        lines.append(f"free rank (if torsion-free): {doc['free_rank']}")
    return 0, doc, f"picard3 congruence G_{n}", lambda: "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv or argv[0] not in parser.commands:
        parser.parse_args(argv)  # prints top-level help or a usage error, and exits
    args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code, doc, header, body = args.handler(args)
        if args.format == "json":
            text = json.dumps({**doc, "schema": SCHEMA}, sort_keys=True)
        elif os.environ.get("PICARD3_NO_COLOR") or not sys.stdout.isatty():
            text = f"{header}\n{body()}"
        else:
            text = f"\033[1m{header}\033[0m\n{body()}"
    except _Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except AssertionError as exc:  # src/ raises it only for a failed invariant
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return 3
    print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
