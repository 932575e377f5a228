import golden


def test_first_difference_names_the_line():
    assert golden.first_difference(b"a\nb\n", b"a\nb\n") is None
    assert golden.first_difference(b"a\nb\nc", b"a\nB\nc") == "line 2: b'b' -> b'B'"
    assert golden.first_difference(b"a\n", b"a\nextra") == "line 2: b'' -> b'extra'"
    assert golden.first_difference(b"a", b"a\n") == "line 2: <end> -> b''"


def test_manifest_holds_every_ci_rerun():
    text = (golden.ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = text.split("name: Reruns are byte-identical")[1].split("- name:")[0]
    ci = {
        line.split(">")[0].split(" --out ")[0].strip()
        for line in step.splitlines()
        if line.strip().startswith("python -m wickworks.cli")
    }
    ours = {("python " + " ".join(c.args)).split(" --out ")[0] for c in golden.MANIFEST}
    assert len(ci) == 9 and ci <= ours


def test_manifest_adds_the_benchmark_run_and_verify():
    names = [c.name for c in golden.MANIFEST]
    assert len(set(names)) == len(names)
    args = [" ".join(c.args) for c in golden.MANIFEST]
    assert "-m wickworks.cli verify" in args
    assert any(a.endswith("--N 16 --order 3 --mc --alpha 0.005 --samples 32768 --seed 1") for a in args)
    assert sum(a.startswith("-c ") for a in args) == 3  # the CI two-point reruns
