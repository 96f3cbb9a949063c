"""tests/bits.py, the bit-identity script: it hashes each config under
every transport, reports equal hashes as equal, and fails on a mismatch."""

import subprocess
import sys

import pytest

import bits

FAST = ["acc-linear-psi0", "acc-pitchfork"]


def run_script(*args):
    return subprocess.run([sys.executable, bits.__file__, *args],
                          capture_output=True, text=True, timeout=300)


def test_two_fast_configs_equal_under_every_transport():
    proc = run_script(*FAST)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [(r[0], r[1], r[3]) for r in rows] == [
        ("here", "acc-linear-psi0", "5"), ("here", "acc-pitchfork", "12")]
    for r in rows:
        assert r[4:12:2] == list(bits.TRANSPORTS)
        assert len(set(r[5:12:2])) == 1 and r[-1] == "equal"


def fake_hashes(names, process="0" * 16, jobs=5):
    """Hashes of names whose process3 run hashes as process, and whose
    records part alone differs from the others' where it does."""
    def parts(part):
        return {t: process if t == "process3" and part == "records"
                else "0" * 16 for t in bits.TRANSPORTS}

    return {name: {"jobs": jobs, "aalm": "0" * 16, "thread3": "0" * 16,
                   "process3": process, "process1": "0" * 16,
                   "parts": {part: parts(part) for part in bits.PARTS}}
            for name in names}


@pytest.mark.parametrize("where", ["transport", "base-hash", "base-jobs"])
def test_any_mismatch_exits_1(where, monkeypatch, capsys):
    # and the line after a mismatch names the parts that differ: the
    # records where a hash differs, none where only the job count does
    monkeypatch.setattr(bits, "hashes", lambda runs: fake_hashes(
        runs, process="1" * 16 if where == "transport" else "0" * 16))
    monkeypatch.setattr(bits, "base_hashes", lambda rev, names: fake_hashes(
        names, process="1" * 16 if where == "base-hash" else "0" * 16,
        jobs=6 if where == "base-jobs" else 5))
    assert bits.main(["--base", "REV", FAST[0]]) == 1
    *_, verdict, parts = capsys.readouterr().out.splitlines()
    assert verdict.endswith("MISMATCH")
    records = "equal" if where == "base-jobs" else "DIFFER"
    assert parts.split() == ["parts", FAST[0], "rows", "equal", "records",
                             records, "summary", "equal"]


def test_equal_hashes_exit_0(monkeypatch, capsys):
    monkeypatch.setattr(bits, "hashes", fake_hashes)
    monkeypatch.setattr(bits, "base_hashes",
                        lambda rev, names: fake_hashes(names))
    assert bits.main(["--base", "REV", *FAST]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["REV", "here"] * 2
    assert lines[1].endswith("equal") and lines[3].endswith("equal")


def test_unknown_config_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        bits.main(["no-such-config"])
    assert exc.value.code == 2
    assert "unknown config no-such-config" in capsys.readouterr().err


def test_base_run_leaves_no_worktree():
    # the working tree may differ from HEAD, so only the lines are checked
    git = ["git", "-C", str(bits.ROOT)]
    if subprocess.run([*git, "rev-parse", "--verify", "--quiet", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")

    def git_out(*args):
        return subprocess.run([*git, *args], capture_output=True, text=True,
                              check=True).stdout

    before = git_out("worktree", "list"), git_out("status", "--porcelain")
    proc = run_script("--base", "HEAD", FAST[0])
    assert proc.returncode in (0, 1), proc.stderr
    head, here, *parts = proc.stdout.splitlines()
    assert head.split()[:2] == ["HEAD", FAST[0]]
    assert here.split()[:2] == ["here", FAST[0]]
    # the parts that differ, where the tree's output differs from HEAD's
    assert [line.split()[:2] for line in parts] == (
        [["parts", FAST[0]]] if here.endswith("MISMATCH") else [])
    assert (git_out("worktree", "list"),
            git_out("status", "--porcelain")) == before
