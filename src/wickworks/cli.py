"""Command-line front end: every pipeline behind reproducible, scriptable flags.

JSON is the canonical output (sorted keys, repr floats, so reruns with the
same configuration and seed are byte-identical); CSV and DOT are projections.
A `verify` subcommand runs the cross-module oracle table and exits nonzero on
any failure. Exit codes: 0 success, 2 usage/validation errors, 1 when the
reader closes standard output early (as `| head` does), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import feynman as fy
from . import phi4, polyalg, torusfield


def _write(text: str, out: str | None) -> None:
    """text and a final newline, to the file out or else to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2, default=_json_default, allow_nan=False), out)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    raise TypeError(f"not JSON serializable: {type(obj)}")


def cmd_hermite(args) -> int:
    if args.n > 64:
        raise ValueError("orders above 64 are not supported")
    if args.sigma2 is not None:
        try:
            sigma2 = Fraction(args.sigma2)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--sigma2 takes a rational such as 3/2, got {args.sigma2!r}")
        poly = polyalg.hermite_scaled(args.n, sigma2)
    else:
        poly = polyalg.hermite(args.n)
    if args.format == "json":
        _emit(
            {
                "schema": 1,
                "n": args.n,
                "sigma2": args.sigma2,
                "coefficients": {str(i): c for i, c in enumerate(poly.coeffs)},
                "pretty": poly.pretty(),
            },
            args.out,
        )
    else:
        _write(poly.pretty(), args.out)
    return 0


def cmd_diagrams(args) -> int:
    if args.n_vertices < 0:
        raise ValueError(f"n_vertices must be >= 0, got {args.n_vertices}")
    arities = [args.arity] * args.n_vertices
    if sum(arities) % 2:
        raise ValueError("odd total leg count has no pairings")
    sums = fy.generate_diagrams(arities)
    if args.connected:
        sums = sums.filter_connected()
    if args.format == "dot":
        blocks = [
            f"// coefficient {c}\n" + g.to_dot(f"g{i}") for i, (g, c) in enumerate(sums.sorted_terms())
        ]
        _write("\n".join(blocks), args.out)
        return 0
    _emit(
        {
            "schema": 1,
            "vertices": args.n_vertices,
            "arity": args.arity,
            "connected_only": bool(args.connected),
            "classes": fy.diagram_sum_to_json(sums),
            "total_matchings": sums.total_coefficient(),
        },
        args.out,
    )
    return 0


def cmd_phi4(args) -> int:
    if not args.mc:
        ignored = [
            f"--{name} {value}"
            for name, value in (("alpha", args.alpha), ("samples", args.samples), ("seed", args.seed))
            if value is not None
        ]
        if ignored:
            *rest, last = ignored
            names = f"{', '.join(rest)} and {last}" if rest else last
            print(f"warning: {names} {'are' if rest else 'is'} ignored without --mc",
                  file=sys.stderr)
    if args.ladder is not None:
        if args.mc:
            raise ValueError("--mc cannot run with --ladder, which prints only the series")
        if args.N is not None:
            print(f"warning: --ladder sets the cutoffs; --N {args.N} is ignored",
                  file=sys.stderr)
        try:
            cutoffs = [int(tok) for tok in args.ladder.split(",") if tok]
        except ValueError:
            cutoffs = []
        if not cutoffs:
            raise ValueError(
                f"--ladder takes a comma list of integer cutoffs, got {args.ladder!r}"
            )
        csv = phi4.coefficient_ladder_csv(args.d, cutoffs, args.order)
        _write(csv.removesuffix("\n"), args.out)
        return 0
    if args.N is None:
        raise ValueError("--N is required unless --ladder gives the cutoffs")
    if args.mc:
        if args.alpha is None or args.samples is None or args.seed is None:
            raise ValueError("--mc needs --alpha, --samples and --seed")
        phi4.check_mc_arguments(args.d, args.N, args.alpha, args.samples, args.seed)
    series = phi4.partition_ratio_series(args.d, args.N, args.order)
    payload = {"schema": 1, "series": series.to_json()}
    if args.d == 3:
        ct = phi4.counterterms_d3(args.alpha or 0.0, args.N)
        payload["counterterms"] = {
            "beta": {str(k): v for k, v in ct.beta_coeffs.items()},
            "gamma": {str(k): v for k, v in ct.gamma_coeffs.items()},
        }
    if args.mc:
        est, se = phi4.mc_partition_ratio(
            args.d, args.N, args.alpha, args.samples, args.seed
        )
        payload["mc"] = {
            "alpha": args.alpha,
            "samples": args.samples,
            "seed": args.seed,
            "estimate": est,
            "stderr": se,
        }
    _emit(payload, args.out)
    return 0


def cmd_field(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.profile == "fractional":
        profile = torusfield.SpectralProfile("fractional", 0.5 if args.s is None else args.s)
    else:
        if args.s is not None:
            print(f"warning: --s {args.s} is ignored without --profile fractional", file=sys.stderr)
        profile = torusfield.SpectralProfile(args.profile)
    lattice = torusfield.ModeLattice(args.d, args.N)
    sample = torusfield.sample_field(profile, lattice, args.seed)
    torusfield.write_sample(sample, args.out, args.grid)
    return 0


def _verify_checks():
    """(name, callable) pairs; each returns True on success."""

    def hermite_routes():
        return all(
            polyalg.hermite(n)
            == polyalg.hermite_explicit(n)
            == polyalg.gram_schmidt_hermite(n)
            for n in range(16)
        )

    def product_sum():
        return polyalg.hermite_product(4, 4) == {8: 1, 6: 16, 4: 72, 2: 96, 0: 24}

    def isserlis_symbolic():
        from .cumulants import RingElem
        from .pairings import CovMatrix, isserlis_moment

        sym = {
            (i, j): RingElem.symbol(f"c{min(i, j)}{max(i, j)}")
            for i in range(4)
            for j in range(4)
        }
        C = CovMatrix([[sym[(i, j)] for j in range(4)] for i in range(4)])
        got = isserlis_moment(C, [0, 1, 2, 3])
        want = (
            sym[(0, 1)] * sym[(2, 3)]
            + sym[(0, 2)] * sym[(1, 3)]
            + sym[(0, 3)] * sym[(1, 2)]
        )
        return got == want

    def chaos_routes():
        import itertools

        from .chaos import ChaosElement, MultiIndex, chaos_multiply

        dims = 2
        idxs = [
            MultiIndex(dict(zip(range(dims), combo)))
            for combo in itertools.product(range(4), repeat=dims)
            if sum(combo) <= 3
        ]
        for k1 in idxs:
            for k2 in idxs:
                F = ChaosElement(dims, {k1: 1})
                G = ChaosElement(dims, {k2: 1})
                if chaos_multiply(F, G, "direct") != chaos_multiply(
                    F, G, "contraction"
                ):
                    return False
        return True

    def linked_cluster():
        a = phi4.log_partition_series(1, 2, 4, route="connected")
        b = phi4.log_partition_series(1, 2, 4, route="logstar")
        return all(a.coefficient(n).diagrams == b.coefficient(n).diagrams for n in range(5))

    def diagram_counts():
        two = fy.generate_diagrams([4, 4]).total_coefficient()
        three = fy.generate_diagrams([4, 4, 4]).filter_connected()
        return two == 24 and list(three.terms.values()) == [Fraction(1728)]

    def valuation_zero_mode():
        return fy.valuate(fy.single_edge(), 1, 8) == 1.0

    def degrees_and_thresholds():
        ok = fy.degree_coeffs(fy.banana(3)) == (6, -2)
        ok &= fy.degree_coeffs(fy.sunset_with_tail()) == (10, -3)
        t = phi4.thresholds(3)
        ok &= (t.n_star_e, t.n_star_m) == (3, 2)
        ok &= phi4.ThresholdReport.d_star_m(3) == Fraction(10, 3)
        return bool(ok)

    def bphz_bubble():
        return fy.bphz_valuate(fy.banana(3), 3, 4) == 0.0

    def bell_53():
        from .cumulants import RingElem, incomplete_bell

        x, y2, y3 = (RingElem.symbol(s) for s in ("x", "y2", "y3"))
        return incomplete_bell(5, 3) == x * y2 * y2 * 15 + x * x * y3 * 10

    return [
        ("hermite triple route", hermite_routes),
        ("product-sum linearization", product_sum),
        ("isserlis four-point symbolic", isserlis_symbolic),
        ("chaos multiplication routes", chaos_routes),
        ("linked-cluster log* route", linked_cluster),
        ("diagram matching counts", diagram_counts),
        ("single-edge valuation = 1", valuation_zero_mode),
        ("degrees and thresholds", degrees_and_thresholds),
        ("bphz bubble subtraction", bphz_bubble),
        ("incomplete bell B_{5,3}", bell_53),
    ]


def cmd_verify(args) -> int:
    results = [(name, bool(check())) for name, check in _verify_checks()]
    failed = 0
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _series_dimension(text: str):
    """phi4's --d: 1, 2 or 3 as an int (so 3.0 reads as 3), or a float in (3, 4)."""
    try:
        d = float(text)
        dim, s = fy._model(d)
    except ValueError:
        raise argparse.ArgumentTypeError(f"takes 1, 2, 3 or a dimension in (3, 4), got {text!r}")
    return dim if s == 1.0 else d


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickworks",
        description="Exact Wiener-chaos algebra and perturbative quartic expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hermite", help="print a (scaled) Hermite polynomial")
    p.add_argument("n", type=int)
    p.add_argument("--sigma2", type=str, default=None, help="variance as a rational, e.g. 3/2")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hermite)

    p = sub.add_parser("diagrams", help="enumerate vacuum diagrams with symmetry factors")
    p.add_argument("n_vertices", type=int)
    p.add_argument("arity", type=int)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagrams)

    p = sub.add_parser("phi4", help="partition-ratio series and optional Monte Carlo")
    p.add_argument(
        "--d",
        type=_series_dimension,
        required=True,
        help="1, 2 or 3, or a fractional 3 < d < 4: the plain Wick series with edge "
        "weight lambda^-(5-d)/2 and no counterterm block (no --mc)",
    )
    p.add_argument("--N", type=int, default=None, help="cutoff; required without --ladder")
    p.add_argument(
        "--order", type=int, default=3, help="highest power of alpha in the series, 0 to 4 (default 3)"
    )
    p.add_argument(
        "--mc",
        action="store_true",
        help="also estimate Z_alpha / Z_0 by Monte Carlo; d = 1 or 2 only, and needs --alpha, "
        "--samples >= 2 and --seed",
    )
    p.add_argument("--alpha", type=float, default=None, help="coupling for --mc, finite and >= 0")
    p.add_argument(
        "--samples", type=int, default=None, help="Monte Carlo samples for --mc, at least 2"
    )
    p.add_argument(
        "--seed", type=int, default=None, help="Monte Carlo seed for --mc, >= 0; reruns are identical"
    )
    p.add_argument("--ladder", default=None, help="comma list of cutoffs; emit a CSV coefficient table")
    p.add_argument("--out", default=None, help="write the output to this file instead of stdout")
    p.set_defaults(func=cmd_phi4)

    p = sub.add_parser("field", help="sample a spectral field and write grid values")
    p.add_argument("--profile", choices=["white", "gff", "fractional"], required=True)
    p.add_argument("--s", type=float, default=None, help="fractional profile exponent (default 0.5)")
    p.add_argument("--d", type=int, required=True, choices=[1, 2, 3])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("verify", help="run the cross-module oracle table")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the
        # flush at exit cannot fail again, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
