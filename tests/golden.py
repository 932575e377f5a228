"""The byte-identity manifest: commands whose output a change must not move.

    python tests/golden.py --against REV

checks REV out into a temporary git worktree, runs every command of
MANIFEST in that tree and in this checkout (its working tree, uncommitted
edits included), and reports, per command, whether stdout, the exit status
and any output file are byte-identical; a difference is reported with its
first differing line. The exit status is 1 if anything differs.

The manifest holds the commands the CI step "Reruns are byte-identical" and
"Two-point reruns are byte-identical" run twice, plus the mc-d2 benchmark
run (`phi4 --mc` at d = 2, N = 16, seed 1) and `verify`. Each command runs
as `python ARGS` in the tree's root with PYTHONPATH set to the tree's src;
`{out}` in an argument names a scratch directory of that run, and a command
with an `output` also compares that file.
"""

from __future__ import annotations

import argparse
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


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    output: str | None = None  # a file under {out} the command writes


def _cli(name: str, *args, output: str | None = None) -> Command:
    return Command(name, ("-m", "wickworks.cli") + tuple(str(a) for a in args), output)


MANIFEST = (
    _cli("phi4 d3 N4", "phi4", "--d", 3, "--N", 4, "--order", 4),
    _cli("phi4 d3 N8", "phi4", "--d", 3, "--N", 8, "--order", 4),
    _cli("phi4 d3.5 N4", "phi4", "--d", 3.5, "--N", 4, "--order", 4),
    _cli("phi4 mc d2", "phi4", "--d", 2, "--N", 4, "--order", 2, "--mc", "--alpha", 0.05,
         "--samples", 200, "--seed", 1),
    _cli("phi4 mc d1", "phi4", "--d", 1, "--N", 8, "--order", 2, "--mc", "--alpha", 0.05,
         "--samples", 300, "--seed", 2),
    _cli("phi4 mc-d2 seed 1", "phi4", "--d", 2, "--N", 16, "--order", 3, "--mc", "--alpha", 0.005,
         "--samples", 32768, "--seed", 1),
    _cli("diagrams json", "diagrams", 6, 4),
    _cli("diagrams dot", "diagrams", 6, 4, "--format", "dot"),
    _cli("field gff", "field", "--profile", "gff", "--d", 2, "--N", 16, "--grid", 64, "--seed", 1,
         "--out", "{out}/gff.npy", output="gff.npy"),
    _cli("field fractional", "field", "--profile", "fractional", "--s", 0.75, "--d", 2, "--N", 8,
         "--grid", 32, "--seed", 3, "--out", "{out}/frac.csv", output="frac.csv"),
    *(Command(f"two-point d{d}", ("-c", TWO_POINT, d)) for d in ("2", "3", "3.5")),
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


def first_difference(old: bytes, new: bytes) -> str | None:
    """None if equal, else the 1-based first differing line and both texts."""
    if old == new:
        return None
    a, b = old.split(b"\n"), new.split(b"\n")
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))

    def show(lines):
        return repr(lines[k][:120]) if k < len(lines) else "<end>"

    return f"line {k + 1}: {show(a)} -> {show(b)}"


def compare(rev: str, commands=MANIFEST) -> list[str]:
    """One report line per command, its differences against rev appended."""
    scratch = Path(tempfile.mkdtemp(prefix="golden-"))
    tree = scratch / "tree"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), rev],
                       check=True)
        report = []
        for command in commands:
            outs = [scratch / "out-rev", scratch / "out-here"]
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir()
            old, new = run(command, tree, outs[0]), run(command, ROOT, outs[1])
            diffs = [f"{key} {d}" for key in old if (d := first_difference(old[key], new[key]))]
            report.append(f"{'DIFF' if diffs else 'same'}  {command.name}"
                          + "".join(f"\n      {d}" for d in diffs))
        return report
    finally:
        if tree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)])
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"])
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare this checkout's outputs with")
    args = parser.parse_args(argv)
    report = compare(args.against)
    print("\n".join(report))
    differing = sum(line.startswith("DIFF") for line in report)
    print(f"{len(report)} commands, {differing} with differences against {args.against}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
