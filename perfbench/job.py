"""One benchmark job in a fresh interpreter, as one CLI invocation would be.

    python3 perfbench/job.py --workload NAME --seed N --trace 0|1 [--spans FILE]
    python3 perfbench/job.py --setup-only

run.py starts this script once per job, so the in-process caches of wickworks
(valuate_cached, the base weight cube, the quartic diagram sums) start cold.
The job imports wickworks from the checkout's `src`, runs the workload, checks
its output and prints one JSON line: the set-up and wall times, raw and at
the reference speed (see speed.py), peak RSS, the problems the check found
and, when traced, the per-layer metrics. An import-only job prints only the
set-up times.
"""

import os
import sys
import time

STARTED_AT = time.monotonic()  # interpreter start-up ends; run.py timed it from the spawn

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import speed  # noqa: E402  (imports nothing outside the standard library)

with speed.Sampler("python", speed.IMPORT_INTERVAL) as IMPORT:
    import wickworks.cli  # noqa: E402  (imports feynman, phi4, polyalg, torusfield, numpy)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import layertrace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

REL_TOL = 1e-9  # floats against the stored reference; roundoff rewrites stay far below
ZERO_ABS = 1e-10  # a value the reference has as exactly 0 must vanish (criterion-16 rule)

MC_ALPHA = 0.005
MC_SAMPLES = 32768


# ---------------------------------------------------------------------------
# output checks


def close(got, ref) -> bool:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if ref == 0:
        return abs(got) <= ZERO_ABS
    return abs(got - ref) <= REL_TOL * abs(ref)


def _iso_key(diagram: dict) -> tuple:
    """Canonical form by brute force over vertex permutations: an oracle that
    shares no code with wickworks' own canonical labelling."""
    n = diagram["vertices"]
    best = None
    for perm in itertools.permutations(range(n)):
        edges = sorted((min(perm[i], perm[j]), max(perm[i], perm[j]), m)
                       for i, j, m in diagram["edges"])
        labels = sorted((perm[v], str(label)) for v, label in diagram["external"])
        cand = (edges, labels)
        if best is None or cand < best:
            best = cand
    return (n, str(best))


def _class_multiset(entries, iso: bool) -> Counter:
    return Counter(
        (_iso_key(e["diagram"]) if iso else json.dumps(e["diagram"], sort_keys=True),
         tuple(e["coefficient"]))
        for e in entries
    )


def compare(got, ref, where: str, problems: list) -> None:
    """Exact parts must match exactly and floats within REL_TOL.

    A list of diagram classes is compared as a multiset of (class,
    coefficient); when the literal dictionaries differ, classes are matched up
    to isomorphism, since the canonical representative is the program's choice.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            problems.append(f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}")
            return
        for key in ref:
            compare(got[key], ref[key], f"{where}.{key}", problems)
    elif isinstance(ref, list) and ref and isinstance(ref[0], dict) and "diagram" in ref[0]:
        if not isinstance(got, list):
            problems.append(f"{where}: not a list of classes")
        elif (_class_multiset(got, False) != _class_multiset(ref, False)
              and _class_multiset(got, True) != _class_multiset(ref, True)):
            problems.append(f"{where}: diagram classes or coefficients differ")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{where}: {got!r} != {ref!r}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, f"{where}[{i}]", problems)
    elif isinstance(ref, float):
        if not close(got, ref):
            problems.append(f"{where}: {got!r} differs from reference {ref!r}")
    elif got != ref or type(got) is not type(ref):
        problems.append(f"{where}: {got!r} != {ref!r}")


def matchings_without_self_pairs(arities) -> int:
    """Perfect matchings of all legs with no pair inside one vertex, by
    inclusion-exclusion over the self-pairs chosen at each vertex."""

    def double_factorial(n):
        return math.prod(range(n, 0, -2))

    ways = [1]  # ways[K]: choices of K self-pairs across the vertices
    for a in arities:
        local = [math.comb(a, 2 * k) * double_factorial(2 * k - 1) for k in range(a // 2 + 1)]
        ways = [sum(ways[i] * local[K - i] for i in range(len(ways)) if 0 <= K - i < len(local))
                for K in range(len(ways) + len(local) - 1)]
    legs = sum(arities)
    return sum((-1) ** K * w * double_factorial(legs - 2 * K - 1) for K, w in enumerate(ways))


def connected(diagram: dict) -> bool:
    parent = list(range(diagram["vertices"]))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j, _ in diagram["edges"]:
        parent[find(i)] = find(j)
    return len({find(v) for v in range(diagram["vertices"])}) <= 1


# ---------------------------------------------------------------------------
# workloads: observe(seed) runs the program, check(observed, ref, seed) -> problems


def _cli(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wickworks.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"wickworks {' '.join(map(str, argv))} exited with {code}")
    return json.loads(buf.getvalue())


def observe_phi4_d3(seed):
    return _cli("phi4", "--d", 3, "--N", 8, "--order", 4)


def check_phi4_d3(out, ref, seed, problems):
    compare(out, ref["output"], "output", problems)
    values = [c["value"] for c in out["series"]["coefficients"]]
    if any(abs(v) > ZERO_ABS for v in values[1:4]):
        problems.append(f"renormalized c1..c3 do not vanish: {values[1:4]}")


def observe_uv_d3(seed):
    from wickworks import phi4

    out = {}
    for N in (16, 24):
        report = phi4.wick_map_commutativity_check(N, 3)
        ct = phi4.counterterms_d3(0.0, N)
        out[str(N)] = {
            "report": report,
            "counterterms": {
                "beta": {str(k): v for k, v in ct.beta_coeffs.items()},
                "gamma": {str(k): v for k, v in ct.gamma_coeffs.items()},
            },
        }
    return out


def check_uv_d3(out, ref, seed, problems):
    for N, part in ref.items():
        compare(out[N]["counterterms"], part["counterterms"], f"N={N}", problems)
        # criterion 16: orders <= 3 vanish on both routes, order 4 agrees to 1e-8
        for row in out[N]["report"]:
            if row["n"] <= 3:
                ok = abs(row["mixed_route"]) < ZERO_ABS and abs(row["bphz_route"]) < ZERO_ABS
            else:
                ok = row["relative"] < 1e-8
            if not ok:
                problems.append(f"N={N}: routes disagree at order {row['n']}: {row}")


def observe_mc_d2(seed):
    return _cli("phi4", "--d", 2, "--N", 16, "--order", 3, "--mc", "--alpha", MC_ALPHA,
                "--samples", MC_SAMPLES, "--seed", seed)


def check_mc_d2(out, ref, seed, problems):
    compare(out["series"], ref["series"], "series", problems)
    mc = out["mc"]
    series3 = math.fsum(c["value"] * MC_ALPHA ** c["n"] for c in out["series"]["coefficients"])
    band = 5 * mc["stderr"] + abs(ref["c4"]) * MC_ALPHA**4
    if not abs(mc["estimate"] - series3) <= band:
        problems.append(f"MC estimate {mc['estimate']} is off the order-3 series {series3} "
                        f"by more than {band}")
    if seed == ref["seed"]:
        compare(mc, ref["mc"], "mc", problems)


def observe_diagrams_6(seed):
    return _cli("diagrams", 6, 4)


def check_diagrams_6(out, ref, seed, problems):
    compare(out, ref["output"], "output", problems)
    total = Fraction(*out["total_matchings"])
    expected = matchings_without_self_pairs([4] * 6)
    if total != expected:
        problems.append(f"total matchings {total} != inclusion-exclusion {expected}")
    if sum(Fraction(*c["coefficient"]) for c in out["classes"]) != total:
        problems.append("class coefficients do not sum to the total")
    n_conn = sum(connected(c["diagram"]) for c in out["classes"])
    if (len(out["classes"]), n_conn) != (24, 19):
        problems.append(f"{len(out['classes'])} classes, {n_conn} connected; want 24, 19")


# workload: (observe, check, speed kernel of its dominant work)
WORKLOADS = {
    "phi4-d3": (observe_phi4_d3, check_phi4_d3, "fft"),
    "uv-d3": (observe_uv_d3, check_uv_d3, "fft"),
    "mc-d2": (observe_mc_d2, check_mc_d2, "blas"),
    "diagrams-6": (observe_diagrams_6, check_diagrams_6, "python"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="JSON-lines file for the spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not Path(wickworks.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: wickworks was imported from {wickworks.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    setup = {"started_at": STARTED_AT, "import_raw_s": IMPORT.raw_s,
             "import_scaled_s": IMPORT.scaled_s, "import_first_speed": IMPORT.first_speed}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    ref = json.loads((HERE / "reference.json").read_text())[args.workload]
    observe, check, kernel = WORKLOADS[args.workload]
    sampler = speed.Sampler(kernel)  # before the tracer wraps numpy.fft: ticks stay untraced
    rec = None
    if args.trace:
        rec = layertrace.Recorder(f"{args.workload}:{args.seed}:{os.getpid()}")
        layertrace.install(rec)
    problems: list[str] = []
    with sampler:
        try:
            check(observe(args.seed), ref, args.seed, problems)
        except Exception as exc:  # a crashing job is a failed operation, not a crashed run
            traceback.print_exc()
            problems.append(f"{type(exc).__name__}: {exc}")
    result = {
        **setup,
        "wall_s": sampler.scaled_s,
        "raw_wall_s": sampler.raw_s,
        "speed": sampler.speed,
        "ticks": len(sampler.ticks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
    }
    if rec is not None:
        if args.spans:
            rec.write(args.spans)
        result["layers"] = layertrace.layer_metrics(rec, sampler.ticks)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
