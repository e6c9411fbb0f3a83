"""Command line front end: analyze, verify, salem, congruence.

Exit codes: 0 success, 1 usage or parse error, 2 domain-hypothesis failure
(a report flagged "hypotheses not met", a salem matrix with det != +-1, or a
failed verification suite).  Output is deterministic for a fixed seed; JSON
carries the schema tag "picard3-aut/1".  Styling is plain ANSI bold for
headers, disabled by PICARD3_NO_COLOR or when stdout is not a terminal.
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


def _styled(text: str) -> str:
    if os.environ.get("PICARD3_NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\033[1m{text}\033[0m"


@lru_cache(maxsize=1)  # building it costs more than a small analyze run
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="picard3",
                description="automorphism groups of rank-3 Picard lattices "
                            "via even Clifford units")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="report Aut(X) for U(k) + <2l>")
    group = pa.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="shorthand for (k, l) = (n, -n)")
    group.add_argument("--k", type=int)
    pa.add_argument("--l", type=int)
    pa.add_argument("--format", choices=("json", "text"), default="text")
    pa.add_argument("--search-bound", type=int, default=20)

    pv = sub.add_parser("verify", help="run the seeded property suites")
    pv.add_argument("--suite", choices=sorted(ALL_SUITES), default=None,
                    help="run a single suite (default: all)")
    pv.add_argument("--trials", type=int, default=25)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--format", choices=("json", "text"), default="text")

    ps = sub.add_parser("salem", help="salem data of a 2x2 matrix a,b,c,d")
    ps.add_argument("--matrix", required=True,
                    help="four comma-separated integers, row major")
    ps.add_argument("--format", choices=("json", "text"), default="text")

    pc = sub.add_parser("congruence", help="congruence data of G_n")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--format", choices=("json", "text"), default="text")
    return p


def cmd_analyze(args) -> int:
    if args.n is not None:
        if args.l is not None:
            print("error: --n and --l are mutually exclusive", file=sys.stderr)
            return 1
        k, l = args.n, -args.n
    else:
        if args.l is None:
            print("error: --k requires --l", file=sys.stderr)
            return 1
        k, l = args.k, args.l
    try:
        report = analyze_picard(k, l, search_bound=args.search_bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(_styled(f"picard3 analyze (k={k}, l={l})"))
        print(report.render_text())
    return 0 if report.hypotheses_met else 2


def cmd_verify(args) -> int:
    if args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return 1
    names = [args.suite] if args.suite else sorted(ALL_SUITES)
    results = run_suites(names, args.trials, args.seed)
    if args.format == "json":
        out = {
            "schema": SCHEMA,
            "trials": args.trials,
            "seed": args.seed,
            "gram_bound": GRAM_BOUND,
            "suites": [r.to_json() for r in results],
            "ok": all(r.ok for r in results),
        }
        print(json.dumps(out, sort_keys=True))
    else:
        print(_styled(f"picard3 verify (trials={args.trials}, seed={args.seed}, "
                      f"gram_bound={GRAM_BOUND})"))
        for r in results:
            status = "pass" if r.ok else "FAIL"
            print(f"suite {r.name}: {r.passed} passed, {r.failed} failed [{status}]")
            for f in r.failures[:5]:
                print(f"  failure: {f}")
    return 0 if all(r.ok for r in results) else 2


def cmd_salem(args) -> int:
    try:
        vals = [int(x) for x in args.matrix.split(",")]
        if len(vals) != 4:
            raise ValueError("need exactly four entries")
    except ValueError as exc:
        print(f"error: bad --matrix: {exc}", file=sys.stderr)
        return 1
    a, b, c, d = vals
    if a * d - b * c not in (1, -1):
        print(f"error: det = {a * d - b * c}, not +-1", file=sys.stderr)
        return 2
    datum = salem_poly([[a, b], [c, d]])
    if args.format == "json":
        out = dict(datum.to_json())
        out["schema"] = SCHEMA
        print(json.dumps(out, sort_keys=True))
    else:
        kind = "symplectic" if datum.symplectic else "anti-symplectic"
        verdict = "Salem" if datum.is_salem else "not Salem"
        print(_styled(f"picard3 salem {vals}"))
        print(f"char poly: (t - {datum.nr})(t^2 - {datum.a_value} t + 1)")
        print(f"A = {datum.a_value}; {kind}; {verdict}")
    return 0


def cmd_congruence(args) -> int:
    n = args.n
    if n < 1:
        print("error: n must be positive", file=sys.stderr)
        return 1
    out = {"schema": SCHEMA, "subgroup": {"kind": "G_n", "n": n},
           **congruence_data(n)}
    if args.format == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        search = out["torsion_bounded_search"]
        found, bound = search["found_count"], search["bound"]
        print(_styled(f"picard3 congruence G_{n}"))
        print(f"[Pi : G_{n}] = {out['index_in_Pi']}, delta_{n} = {out['delta_n']}")
        if found:
            print(f"torsion: {found} elements with entries <= {bound}; not free")
        else:
            print(f"torsion: none with entries <= {bound} "
                  f"(bounded evidence only)")
        if out["free_rank"] is not None:
            print(f"free rank (if torsion-free): {out['free_rank']}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "verify": cmd_verify,
        "salem": cmd_salem,
        "congruence": cmd_congruence,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
