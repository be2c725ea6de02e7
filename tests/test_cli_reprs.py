"""A fixed transcript of `wtc` commands against its committed record in
cli_reprs.txt: one JSON line per command, in order, with the command's exit
code, stdout, stderr and the sha256 of each file it wrote.  The commands
run in one temporary directory, each reading what the ones before it
wrote, so a change that moves a printed value, a message or a written byte
fails here; such a change rewrites the file
(`PYTHONPATH=src python tests/test_cli_reprs.py`) and names the lines that
moved."""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from wtc import cli

GOLDEN = Path(__file__).with_name("cli_reprs.txt")

COMMANDS = [
    ["construct", "gks-cascade", "--param", "depth=4", "--out", "casc.txt"],
    ["construct", "power-weight", "--param", "resolution=4", "--out", "pw.txt"],
    ["construct", "cp-weight", "--param", "K=1", "--out", "cp.txt"],
    ["construct", "remark2", "--out", "r2.txt"],
    ["eval", "poisson", "--omega", "casc.txt", "--interval=0,1/3", "--alpha=0"],
    ["eval", "poisson", "--omega", "pw.txt", "--interval=-1/2,1", "--alpha=1/2"],
    ["eval", "energy", "--omega", "pw.txt", "--interval=-1,1/3"],
    ["eval", "maximal-integral", "--omega", "cp.txt", "--interval=0,1", "--p", "1"],
    ["eval", "maximal-integral", "--omega", "pw.txt", "--interval=0,1", "--p", "3"],
    ["eval", "offset", "--omega", "pw.txt", "--sigma", "r2.txt", "--interval=1/4,1"],
    ["eval", "two-tailed", "--omega", "casc.txt", "--sigma", "pw.txt",
     "--interval=0,1/2"],
    ["sup", "avg-density", "--omega", "casc.txt", "--window=0,1", "--levels=-3..-1"],
    ["sup", "maximal-integral", "--omega", "pw.txt", "--window=-1,1", "--levels=-2..0"],
    ["sup", "classical", "--omega", "pw.txt", "--sigma", "r2.txt", "--window=-2,2",
     "--levels=-2..0", "--base", "2"],
    ["sup", "energy", "--omega", "r2.txt", "--window=-2,2", "--levels=-1..0"],
    ["verify", "powerweight-ap", "--out", "report.csv"],
    ["sweep", "cp-not-ainfty", "--param", "K=1..2", "--out", "sweep.csv"],
    ["plot", "sweep.csv", "--out", "sweep.svg"],
    ["eval", "poisson", "--omega", "missing.txt", "--interval=0,1"],
]


def _hashes(d: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.iterdir())}


def transcript(d: Path) -> list[str]:
    """One JSON line per command, each run in directory d."""
    lines, cwd = [], os.getcwd()
    os.chdir(d)
    try:
        for argv in COMMANDS:
            before = _hashes(d)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            wrote = {k: v for k, v in _hashes(d).items() if before.get(k) != v}
            lines.append(json.dumps({"argv": argv, "code": code, "stdout": out.getvalue(),
                                     "stderr": err.getvalue(), "files": wrote}))
    finally:
        os.chdir(cwd)
    return lines


def test_transcript_matches_committed_lines(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        GOLDEN.write_text("".join(line + "\n" for line in transcript(Path(d))))
