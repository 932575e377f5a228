"""The rerun manifest: every command whose output a change must not move.

    python tests/golden.py               # every command twice in this checkout
    python tests/golden.py --against REV # every command here and in REV
    python tests/golden.py --against DIR # every command here and in a copy of a tree

MANIFEST is the one list of rerun commands and pins. Each command runs as
`python ARGS` in a tree's root with PYTHONPATH set to that tree's src; `{out}`
in an argument names a scratch directory of the run, and a command with an
`output` also compares that file. Without --against both runs are in this
checkout (its working tree, uncommitted edits included), so a difference means
the command is not deterministic; with --against the first run is in REV,
checked out into a temporary git worktree, or in DIR as it stands when the
argument names a directory (a plain copy of a tree, such as `git archive`
gives). Either way the run here must also
exit with the command's `status` (default 0) and keep its `pin`: a sha256 of
stdout for exact outputs, or float values at dotted paths of stdout's JSON
(a digit component indexes a list), each within 1e-12 relative (their last
bits may differ between numpy builds).
An `exact` pin is the sha256 of stdout's JSON with every float replaced by
null and the keys sorted (exact_digest): it holds every exact prefactor,
coefficient and diagram however the floats move.
Each difference is reported with its first differing line; the exit status is
1 if anything differs. When stdout differs and both runs print JSON, a
`values` line adds what moved: the first exact part that differs (a key, an
integer, a string, an exact [num, den] pair), or else how many floats moved
and the largest relative move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_POINT = """
import ast, sys
from wickworks.phi4 import two_point_series
d = ast.literal_eval(sys.argv[1])
x = (0.1, 0.2, 0.3)[: min(int(d), 3)]
print(repr([c.value for c in two_point_series(d, 8, 2, x, (0.4,) * len(x)).coefficients]))
"""

# the lattice-sum reads on torusfield's weights: the Wick-integral variances,
# C_N, the Green function, the other weight sums, and valuate_external on and
# off the ball of its box
READS = """
from wickworks.feynman import Diagram, valuate_external
from wickworks.torusfield import (GFF, WHITE, FieldSample, ModeLattice, SpectralProfile, c_variance,
                                  green_truncated, sobolev_sum, wick_integral_variance)
direct = Diagram(2, [((0, 1), 1)], labels=[(0, "x"), (1, "y")])
chain = Diagram(4, [((0, 1), 3), ((0, 2), 1), ((1, 3), 1)], labels=[(2, "x"), (3, "y")])
for d, N in ((1, 64), (2, 8), (3, 4)):
    x = (0.1, 0.2, 0.3)[:d]
    print(repr([wick_integral_variance(d, N, n) for n in (2, 3, 4)]))
    print(repr([c_variance(d, N), green_truncated(x, d, N), sobolev_sum(0.5, d, N, GFF),
                sobolev_sum(-1.0, d, N, WHITE)]))
    print(repr([FieldSample(ModeLattice(d, N), SpectralProfile("fractional", s), 0).variance_target()
                for s in (0.0, 0.5, 0.75)]))
    # a point inside, one on the ball's edge |p|_1 = N and, at d > 1, one in its box off it
    ps = [(1,) * d, (N,) if d == 1 else (N // 2, N // 2 - N) + (0,) * (d - 2)]
    ps += [(N, 1) + (0,) * (d - 2)] * (d > 1)
    print(repr([valuate_external(g, d, N, p) for g in (direct, chain) for p in ps]))
"""

# perfbench's uv-d3 inputs: the ring of bubbles' centre read and the large windows
UV_D3 = """
from wickworks.phi4 import counterterms_d3, wick_map_commutativity_check
for N in (16, 24):
    print(repr(wick_map_commutativity_check(N, 3)))
    print(repr(counterterms_d3(0.0, N)))
"""


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    output: str | None = None  # a file under {out} the command writes
    status: int = 0
    pin: str | dict[str, float] | None = None  # sha256 of stdout, or JSON path -> float
    exact: str | None = None  # exact_digest of stdout


def _cli(name: str, *args, **kwargs) -> Command:
    return Command(name, ("-m", "wickworks.cli") + tuple(str(a) for a in args), **kwargs)


MANIFEST = (
    # the exact pins hold the prefactors, diagrams and coefficients of the series
    _cli("phi4 d3 N4", "phi4", "--d", 3, "--N", 4, "--order", 4,
         exact="46efcc9709b92745b6840b07808c89ff487afbb09dc92f2f712497e5b3a0b7cb"),
    _cli("phi4 d3 N8", "phi4", "--d", 3, "--N", 8, "--order", 4,
         exact="2a936fe48dce24ea4668ca740f5e73626ec883ebc9d2689887db3ee4df110e93"),
    # and c2-c4 of N = 16, so a K4 value that drifts fails here too
    _cli("phi4 d3 N16", "phi4", "--d", 3, "--N", 16, "--order", 4,
         exact="7d27166f311786a468441f75b4fda245a78297aa34211807b9e1df18abfa088e",
         pin={"series.coefficients.2.value": 0.0, "series.coefficients.3.value": 0.0,
              "series.coefficients.4.value": 12968.361943652786}),
    _cli("phi4 d3.5 N4", "phi4", "--d", 3.5, "--N", 4, "--order", 4,
         exact="37f47cd9c0385e10f47226fa934a6b47a647b95c561824798385197a1879bed1"),
    _cli("phi4 mc d2", "phi4", "--d", 2, "--N", 4, "--order", 2, "--mc", "--alpha", 0.05,
         "--samples", 200, "--seed", 1),
    # d = 1 reads the rule as the plain grid j/2M
    _cli("phi4 mc d1", "phi4", "--d", 1, "--N", 8, "--order", 2, "--mc", "--alpha", 0.05,
         "--samples", 300, "--seed", 2,
         pin={"mc.estimate": 1.037736263515633, "mc.stderr": 0.011638523915764231}),
    # perfbench/reference.json, mc-d2; the seed stream follows ModeLattice.modes
    _cli("phi4 mc-d2 seed 1", "phi4", "--d", 2, "--N", 16, "--order", 3, "--mc", "--alpha", 0.005,
         "--samples", 32768, "--seed", 1,
         pin={"mc.estimate": 1.0004820919299524, "mc.stderr": 0.00011411007074848279}),
    # a partial last block of 65 samples: one whole chunk and a one-column chunk
    _cli("phi4 mc partial block", "phi4", "--d", 2, "--N", 4, "--order", 2, "--mc", "--alpha", 0.05,
         "--samples", 4161, "--seed", 5,
         pin={"mc.estimate": 1.0160700382511876, "mc.stderr": 0.002679712048784807}),
    # exp(-alpha X) leaves the float range at this alpha: an error, not Infinity
    _cli("phi4 mc overflow", "phi4", "--d", 1, "--N", 8, "--order", 2, "--mc", "--alpha", 100,
         "--samples", 2000, "--seed", 1, status=2),
    # the classes, their keys, coefficients and order: the two digests of 7 4 and
    # 6 4 DOT date from before canonical_search pruned by automorphisms
    _cli("diagrams json", "diagrams", 6, 4,
         pin="4771259b969f2f51a80896c2ac8deaa0deb34d72501006da96eb5975b0df1665"),
    _cli("diagrams dot", "diagrams", 6, 4, "--format", "dot",
         pin="931f7edb266efc86ccb268a05bf64ad39f06ab87dfbc29a82e1be63eb0dd6875"),
    _cli("diagrams 7", "diagrams", 7, 4,
         pin="dff6d0284d4c8b7cb1c6b8f2f30f4e5c255952cf4a583b55ce664bb5fda1cd53"),
    _cli("hermite json", "hermite", 6, "--sigma2", "3/2", "--format", "json",
         pin="77993d1f139f00d9799825fdb5ab554b761fe3833321af1843f3b809cb768ab3"),
    _cli("field gff", "field", "--profile", "gff", "--d", 2, "--N", 16, "--grid", 64, "--seed", 1,
         "--out", "{out}/gff.npy", output="gff.npy"),
    _cli("field fractional", "field", "--profile", "fractional", "--s", 0.75, "--d", 2, "--N", 8,
         "--grid", 32, "--seed", 3, "--out", "{out}/frac.csv", output="frac.csv"),
    *(Command(f"two-point d{d}", ("-c", TWO_POINT, d)) for d in ("1", "2", "3", "3.5")),
    Command("lattice-sum reads", ("-c", READS)),
    Command("uv-d3 routes", ("-c", UV_D3)),
    _cli("verify", "verify"),
)


def run(command: Command, tree: Path, out: Path) -> dict[str, bytes]:
    """What command leaves in tree: stdout, exit status and output file."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    args = [a.replace("{out}", str(out)) for a in command.args]
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True)
    seen = {"stdout": done.stdout, "exit status": str(done.returncode).encode()}
    if command.output is not None:
        path = out / command.output
        seen[command.output] = path.read_bytes() if path.exists() else b"<missing>"
    return seen


def exact_digest(stdout: bytes) -> str:
    """sha256 of stdout's JSON with every float replaced by null, keys
    sorted; raises ValueError if stdout is not JSON."""

    def exact(x):
        if type(x) is float:
            return None
        if type(x) is dict:
            return {k: exact(v) for k, v in x.items()}
        if type(x) is list:
            return [exact(v) for v in x]
        return x

    text = json.dumps(exact(json.loads(stdout)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def first_difference(old: bytes, new: bytes) -> str | None:
    """None if equal, else the 1-based first differing line and both texts."""
    if old == new:
        return None
    a, b = old.split(b"\n"), new.split(b"\n")
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))

    def show(lines):
        return repr(lines[k][:120]) if k < len(lines) else "<end>"

    return f"line {k + 1}: {show(a)} -> {show(b)}"


def _pair(x) -> bool:
    """Whether x is an exact [num, den] pair, compared whole."""
    return type(x) is list and len(x) == 2 and all(type(v) is int for v in x)


def value_moves(old: bytes, new: bytes) -> str | None:
    """What moved between two JSON documents, or None if either is not JSON.

    Keys, integers, strings, booleans, nulls, list lengths and exact
    [num, den] pairs must be equal, and the first that is not is named by
    its dotted path. Otherwise the floats are counted: how many moved, and
    the largest move relative to the larger magnitude of the two."""
    try:
        docs = json.loads(old), json.loads(new)
    except ValueError:
        return None
    moves = []

    def exact_difference(a, b, path):
        if type(a) is float and type(b) is float:
            if a != b and not (math.isnan(a) and math.isnan(b)):
                moves.append(abs(a - b) / max(abs(a), abs(b)))
            return None
        if type(a) is dict and type(b) is dict and a.keys() == b.keys():
            parts = [(a[k], b[k], f"{path}.{k}") for k in a]
        elif type(a) is list and type(b) is list and len(a) == len(b) and not (_pair(a) and _pair(b)):
            parts = [(x, y, f"{path}.{i}") for i, (x, y) in enumerate(zip(a, b))]
        elif type(a) is type(b) and a == b:
            return None
        else:
            show = [json.dumps(x)[:60] for x in (a, b)]
            return f"exact part differs at {path.lstrip('.') or '<document>'}: {show[0]} -> {show[1]}"
        return next((d for x, y, sub in parts if (d := exact_difference(x, y, sub))), None)

    exact = exact_difference(*docs, "")
    if exact is not None:
        return exact
    if not moves:
        return "no value moved"
    return f"{len(moves)} float{'s' * (len(moves) != 1)} moved, largest relative move {max(moves):.2g}"


def compare(rev: str | None = None, commands=MANIFEST) -> list[str]:
    """One report line per command, with each difference between its run in
    rev (None: a first run here; a directory: the tree there) and its run
    here, then each pin that the run here does not keep."""
    scratch = Path(tempfile.mkdtemp(prefix="golden-"))
    worktree = rev is not None and not Path(rev).is_dir()
    tree = scratch / "tree" if worktree else ROOT if rev is None else Path(rev).resolve()
    try:
        if worktree:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), rev],
                           check=True)
        report = []
        for command in commands:
            outs = [scratch / "out-old", scratch / "out-new"]
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir()
            old, new = run(command, tree, outs[0]), run(command, ROOT, outs[1])
            diffs = [f"{key} {d}" for key in old if (d := first_difference(old[key], new[key]))]
            if old["stdout"] != new["stdout"] and (moved := value_moves(old["stdout"], new["stdout"])):
                diffs.insert(1, f"values {moved}")
            pinned = {"exit status": (str(command.status), new["exit status"].decode())}
            if isinstance(command.pin, str):
                pinned["sha256"] = (command.pin, hashlib.sha256(new["stdout"]).hexdigest())
            if command.exact is not None:
                try:
                    pinned["exact"] = (command.exact, exact_digest(new["stdout"]))
                except ValueError:
                    pinned["exact"] = (command.exact, "<unreadable>")
            for path, want in (command.pin.items() if isinstance(command.pin, dict) else ()):
                try:
                    got = json.loads(new["stdout"])
                    for key in path.split("."):
                        got = got[int(key)] if type(got) is list and key.isdigit() else got[key]
                    ok = math.isclose(got, want, rel_tol=1e-12)
                except (ValueError, LookupError, TypeError):
                    got, ok = "<unreadable>", False
                pinned[path] = (repr(want), repr(want) if ok else str(got))  # equal within 1e-12
            diffs += [f"pinned {key} {d}" for key, (want, got) in pinned.items()
                      if (d := first_difference(want.encode(), got.encode()))]
            report.append(f"{'DIFF' if diffs else 'same'}  {command.name}"
                          + "".join(f"\n      {d}" for d in diffs))
        return report
    finally:
        if worktree:
            if tree.exists():
                subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)])
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"])
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="git revision, or directory holding a copy of a tree, to compare "
                        "this checkout's outputs with (default: run every command here twice)")
    args = parser.parse_args(argv)
    report = compare(args.against)
    print("\n".join(report))
    differing = sum(line.startswith("DIFF") for line in report)
    against = f"against {args.against}" if args.against else "between two runs"
    print(f"{len(report)} commands, {differing} with differences {against} or from a pin")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
