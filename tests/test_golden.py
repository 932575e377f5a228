import hashlib
import shutil

import pytest

import golden
from wickworks.cli import main


def test_first_difference_names_the_line():
    assert golden.first_difference(b"a\nb\n", b"a\nb\n") is None
    assert golden.first_difference(b"a\nb\nc", b"a\nB\nc") == "line 2: b'b' -> b'B'"
    assert golden.first_difference(b"a\n", b"a\nextra") == "line 2: b'' -> b'extra'"
    assert golden.first_difference(b"a", b"a\n") == "line 2: <end> -> b''"


def test_manifest_adds_the_benchmark_run_and_verify():
    names = [c.name for c in golden.MANIFEST]
    assert len(set(names)) == len(names)
    args = [" ".join(c.args) for c in golden.MANIFEST]
    assert "-m wickworks.cli verify" in args
    assert any(a.endswith("--N 16 --order 3 --mc --alpha 0.005 --samples 32768 --seed 1") for a in args)
    assert sum(a.startswith("-c ") for a in args) == 6  # the two-point reruns, the reads and uv-d3
    assert "uv-d3 routes" in names and "phi4 d3 N16" in names
    assert "two-point d1" in names and "lattice-sum reads" in names
    assert [c.name for c in golden.MANIFEST if c.status] == ["phi4 mc overflow"]
    assert [c.name for c in golden.MANIFEST if isinstance(c.pin, dict)] == [
        "phi4 d3 N16", "phi4 mc d1", "phi4 mc-d2 seed 1", "phi4 mc partial block"
    ]
    assert [c.name for c in golden.MANIFEST if c.exact] == [
        "phi4 d3 N4", "phi4 d3 N8", "phi4 d3 N16", "phi4 d3.5 N4"
    ]


@pytest.mark.parametrize(
    "command", [c for c in golden.MANIFEST if isinstance(c.pin, str)], ids=lambda c: c.name
)
def test_sha256_pins_hold_in_process(capsys, command):
    assert command.args[:2] == ("-m", "wickworks.cli")
    assert main(list(command.args[2:])) == command.status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == command.pin


@pytest.mark.parametrize("command", [c for c in golden.MANIFEST if c.exact], ids=lambda c: c.name)
def test_exact_pins_hold_in_process(capsys, command):
    assert command.args[:2] == ("-m", "wickworks.cli")
    assert main(list(command.args[2:])) == command.status
    assert golden.exact_digest(capsys.readouterr().out.encode()) == command.exact


def test_exact_digest_drops_floats_and_key_order():
    digest = golden.exact_digest
    assert digest(b'{"b": [1, 2], "a": 0.5}') == digest(b'{"a": -0.0, "b": [1, 2]}')
    assert digest(b'{"a": 1}') != digest(b'{"a": 1.0}')
    with pytest.raises(ValueError):
        digest(b"not json")


def test_against_a_directory_runs_its_src(tmp_path):
    # a plain copy of the tree, with no git worktree: its src is what runs
    # there, so an edit to the copy shows as a difference
    tree = tmp_path / "tree"
    shutil.copytree(golden.ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    command = golden.Command("c", ("-m", "wickworks.cli", "hermite", "4"))
    assert golden.compare(str(tree), commands=(command,)) == ["same  c"]
    init = tree / "src" / "wickworks" / "__init__.py"
    init.write_text(init.read_text() + "print('copy')\n")
    (line,) = golden.compare(str(tree), commands=(command,))
    assert line.startswith("DIFF  c\n") and "line 1: b'copy' -> b'1x^4 -6x^2 +3'" in line
    assert init.exists()  # the copy is left as it was given

JSON = "print('{\"x\": 0.5}')"
LIST = "print('{\"c\": [{\"v\": 0.5}, {\"v\": 0.25}]}')"


@pytest.mark.parametrize(
    "code, status, pin, detail",
    [
        (JSON, 0, {"x": 0.5 * (1 + 1e-13)}, None),
        (JSON, 0, hashlib.sha256(b'{"x": 0.5}\n').hexdigest(), None),
        ("import os; print(os.urandom(8).hex())", 0, None, "stdout line 1: "),
        ("raise SystemExit(3)", 3, None, None),
        ("raise SystemExit(3)", 0, None, "pinned exit status line 1: b'0' -> b'3'"),
        (JSON, 0, hashlib.sha256(b"other\n").hexdigest(), "pinned sha256 line 1: "),
        (JSON, 0, {"x": 0.5 * (1 + 1e-11)}, "pinned x line 1: b'0.500000000005' -> b'0.5'"),
        ("print('not json')", 0, {"x": 0.5}, "pinned x line 1: b'0.5' -> b'<unreadable>'"),
        (LIST, 0, {"c.1.v": 0.25}, None),
        (LIST, 0, {"c.1.v": 0.3}, "pinned c.1.v line 1: b'0.3' -> b'0.25'"),
        (LIST, 0, {"c.2.v": 0.25}, "pinned c.2.v line 1: b'0.25' -> b'<unreadable>'"),
    ],
    ids=["value within 1e-12", "sha256", "nondeterministic", "expected exit status",
         "exit status", "wrong sha256", "value off", "no JSON", "list value", "list value moved",
         "no such list entry"],
)
def test_runner_reports_each_broken_contract(code, status, pin, detail):
    (line,) = golden.compare(commands=(golden.Command("c", ("-c", code), status=status, pin=pin),))
    if detail is None:
        assert line == "same  c"
    else:
        assert line.startswith("DIFF  c\n") and detail in line


# prints one exact prefactor and one float; the run whose {out} is out-new moves one of them
MOVED = """
import json, math, sys
out, moved = sys.argv[1:]
new = out.endswith("out-new")
doc = {"prefactor": [1, 3 if new and moved == "prefactor" else 2],
       "value": math.nextafter(0.5, 1) if new and moved == "float" else 0.5}
print(json.dumps(doc))
"""


@pytest.mark.parametrize(
    "moved, values",
    [
        ("float", "values 1 float moved, largest relative move 2.2e-16"),
        ("prefactor", "values exact part differs at prefactor: [1, 2] -> [1, 3]"),
    ],
)
def test_runner_reports_a_move_as_a_value(moved, values):
    # the byte verdict and its first differing line stay; the value line follows them
    (line,) = golden.compare(commands=(golden.Command("c", ("-c", MOVED, "{out}", moved)),))
    head, stdout, value = line.split("\n")
    assert head == "DIFF  c" and stdout.strip().startswith("stdout line 1: ")
    assert value.strip() == values


@pytest.mark.parametrize("moved, kept", [("float", True), ("prefactor", False)])
def test_exact_pin_holds_through_a_float_move(moved, kept):
    # the pin is the digest of the unmoved document
    exact = golden.exact_digest(b'{"prefactor": [1, 2], "value": 0.5}')
    command = golden.Command("c", ("-c", MOVED, "{out}", moved), exact=exact)
    (line,) = golden.compare(commands=(command,))
    assert line.startswith("DIFF  c\n")
    assert ("pinned exact line 1: " not in line) == kept


def test_exact_pin_needs_json():
    command = golden.Command("c", ("-c", "print('not json')"), exact="0" * 64)
    (line,) = golden.compare(commands=(command,))
    assert line.startswith("DIFF  c\n") and line.endswith("-> b'<unreadable>'")


@pytest.mark.parametrize(
    "old, new, moved",
    [
        (b"not json", b"{}", None),
        (b'{"a": 1.0}', b'{"a": 1.0}\n', "no value moved"),
        (b'{"a": [0.0, 4.0, NaN]}', b'{"a": [0.0, 4.5, NaN]}', "1 float moved, largest relative move 0.11"),
        (b'{"a": 1, "b": 2.0}', b'{"a": 1.0, "b": 3.0}', "exact part differs at a: 1 -> 1.0"),
        (b'{"a": {"b": "x"}}', b'{"a": {"c": "x"}}', 'exact part differs at a: {"b": "x"} -> {"c": "x"}'),
        (b"[1, [2, 3]]", b"[1, [2, 3], 4]", "exact part differs at <document>: [1, [2, 3]] -> [1, [2, 3], 4]"),
        (b'{"p": [1, 2]}', b'{"p": [1, 2.0]}', "exact part differs at p.1: 2 -> 2.0"),
    ],
)
def test_value_moves(old, new, moved):
    assert golden.value_moves(old, new) == moved
