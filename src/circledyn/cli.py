"""Command-line front end: build, verify, scan and export.

Exit codes: 0 when every check in the requested report is green, 2 when a
check is red, 1 on usage errors or computational failures.  All reports are
emitted with sorted keys and sorted rows, so repeated runs are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import CircledynError
from .families import FAMILIES, make, mts1_scan, verify
from .graphext import CombGraph, extend, extension_green, verify_extension
from .markov import DEFAULT_LOOP_CAP
from .minentropy import beta
from .oracle import periods_up_to
from .periods import m_set


def _emit(report, out_path=None) -> None:
    """The one writer: a report dict as sorted JSON, CSV text as it is, to
    out_path or else to stdout."""
    if not isinstance(report, str):
        report = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)


def _rational(text: str) -> Fraction:
    """A rational argument such as "7/10"; a malformed one is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}") from None


def _glue_rationals(argv) -> list[str]:
    """`--c -1/2` as `--c=-1/2`: argparse takes "-1/2" for an option, so a
    token that starts with "-" after --c, --d or --tol is glued to it."""
    out = []
    for token in argv:
        if out and out[-1] in ("--c", "--d", "--tol") and token.startswith("-"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _at_least(low: int, what: str):
    """An integer argument type; a value below `low` is a usage error."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        return value

    return integer


# Each command returns (report, verdict); `main` writes the report through
# `_emit` and exits 0 on a green verdict, 2 on a red one.


def _cmd_periods(args):
    return m_set(args.c, args.d).to_json(), True


def _cmd_family(args):
    inst = make(args.family, args.n)
    if not args.verify:
        return {
            "family": inst.name,
            "n": inst.n,
            "classes": inst.markov.size,
            "lifting": inst.lifting.to_json(),
            "markov": inst.markov.to_json(),
        }, True
    rep = verify(inst, tol=Fraction(1, 10 ** args.digits))
    return rep.to_json(), rep.strict_green if args.strict else rep.all_green


def _cmd_scan(args):
    res = mts1_scan(args.family, args.start, args.end, tol=Fraction(1, 10 ** args.digits))
    if args.svg:
        _write_svg(args.svg, res.rows)
    if args.json:
        return res.to_json(), res.all_green
    lines = ["n,rot_c,rot_d,len_rot,entropy_lo,entropy_hi,sbc,bc,flags"]
    for r in res.rows:
        row = r.to_json()  # the nine columns, in order
        row["bc"] = "" if r.bc is None else r.bc
        row["flags"] = ";".join(f"{k}={v}" for k, v in row["flags"].items())
        lines.append(",".join(map(str, row.values())))
    return "\n".join(lines) + "\n", res.all_green


def _write_svg(path: str, rows) -> None:
    """Minimal polyline chart: entropy midpoint and bc against n."""
    W, H, pad = 640, 360, 40
    ns = [r.n for r in rows]
    ents = [float(r.entropy.midpoint()) for r in rows]
    bcs = [float(r.bc if r.bc is not None else 0) for r in rows]

    def scale(vals, lo_out, hi_out):
        lo, hi = min(vals), max(vals)
        span = (hi - lo) or 1.0
        return [lo_out + (v - lo) / span * (hi_out - lo_out) for v in vals]

    xs = scale(ns, pad, W - pad)
    y_ent = scale(ents, H - pad, pad)
    y_bc = scale(bcs, H - pad, pad)

    def polyline(xs, ys, color):
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        polyline(xs, y_ent, "#b22"),
        polyline(xs, y_bc, "#22b"),
        f'<text x="{pad}" y="{pad - 20}" font-size="12" fill="#b22">sigma(n)</text>',
        f'<text x="{pad + 80}" y="{pad - 20}" font-size="12" fill="#22b">bc(n)</text>',
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(svg) + "\n")


def _cmd_beta(args):
    res = beta(args.c, args.d, tol=args.tol)
    return res.to_json(), res.method_agreement


def _cmd_extend(args):
    inst = make(args.family, args.n)
    with open(args.graph) as fh:
        raw = json.load(fh)
    E = extend(inst, CombGraph.from_json(raw), edge_index=CombGraph.excise_hint_from_json(raw))
    rep = verify_extension(E)
    data = {"family": inst.name, "n": inst.n, "m": E.m, "u_count": E.u_count, "size": E.size}
    data.update(rep, ext_entropy=rep["ext_entropy"].to_json(), base_entropy=rep["base_entropy"].to_json())
    return data, extension_green(rep)


def _cmd_oracle(args):
    inst = make(args.family, args.n)
    res = periods_up_to(inst.markov, args.max_period, loop_cap=args.loop_cap)
    expected = inst.expected_per.up_to(args.max_period)
    data = res.to_json()
    data["expected_periods"] = sorted(expected)
    data["matches_closed_form"] = res.periods() == expected
    return data, data["matches_closed_form"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="circledyn", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    # the options more than one command shares, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("family", choices=sorted(FAMILIES))
    instance = argparse.ArgumentParser(add_help=False, parents=[family])
    instance.add_argument("--n", type=int, required=True)

    p = sub.add_parser("periods", parents=[out], help="M(c,d) with its cofinite tail threshold")
    p.add_argument("--c", type=_rational, required=True, help='left endpoint, e.g. "1/2"')
    p.add_argument("--d", type=_rational, required=True, help='right endpoint, e.g. "7/10"')
    p.set_defaults(fn=_cmd_periods)

    p = sub.add_parser("family", parents=[instance, out], help="build one family instance, optionally verify")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--digits", type=_at_least(0, "digits"), default=12, help="bracket tolerance 10^-digits")
    p.add_argument(
        "--strict",
        action="store_true",
        help="treat the documented small-n theorem-bound failures as red",
    )
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("scan", parents=[family, out], help="main-theorem desk scan over an n range")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.add_argument("--digits", type=_at_least(0, "digits"), default=9)
    p.add_argument("--json", action="store_true", help="emit the JSON report instead of CSV")
    p.add_argument("--svg")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("beta", parents=[out], help="minimum entropy exponent for a rotation interval")
    p.add_argument("--c", type=_rational, required=True)
    p.add_argument("--d", type=_rational, required=True)
    p.add_argument("--tol", type=_rational, default="1/1000000000")
    p.set_defaults(fn=_cmd_beta)

    p = sub.add_parser("extend", parents=[instance, out], help="extend a family instance over a graph")
    p.add_argument("--graph", required=True, help="CombGraph JSON file")
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("oracle", parents=[instance, out], help="brute-force periods of a family instance")
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument(
        "--loop-cap", type=_at_least(1, "loop cap"), default=DEFAULT_LOOP_CAP, help="loop budget in DFS steps"
    )
    p.set_defaults(fn=_cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_rationals(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        report, green = args.fn(args)
        _emit(report, args.out)
    except (CircledynError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0 if green else 2


if __name__ == "__main__":
    sys.exit(main())
