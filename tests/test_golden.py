import hashlib

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
    assert sum(a.startswith("-c ") for a in args) == 4  # the two-point reruns and uv-d3
    assert "uv-d3 routes" in names and "phi4 d3 N16" in names
    assert [c.name for c in golden.MANIFEST if c.status] == ["phi4 mc overflow"]
    assert [c.name for c in golden.MANIFEST if isinstance(c.pin, dict)] == ["phi4 mc d1", "phi4 mc-d2 seed 1"]


@pytest.mark.parametrize(
    "command", [c for c in golden.MANIFEST if isinstance(c.pin, str)], ids=lambda c: c.name
)
def test_sha256_pins_hold_in_process(capsys, command):
    assert command.args[:2] == ("-m", "wickworks.cli")
    assert main(list(command.args[2:])) == command.status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == command.pin


JSON = "print('{\"x\": 0.5}')"


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
    ],
    ids=["value within 1e-12", "sha256", "nondeterministic", "expected exit status",
         "exit status", "wrong sha256", "value off", "no JSON"],
)
def test_runner_reports_each_broken_contract(code, status, pin, detail):
    (line,) = golden.compare(commands=(golden.Command("c", ("-c", code), status=status, pin=pin),))
    if detail is None:
        assert line == "same  c"
    else:
        assert line.startswith("DIFF  c\n") and detail in line
