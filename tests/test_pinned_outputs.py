"""Digests of user-visible output: every solve certificate on a few small
graphs, and the stdout of the demos.  A refactor that claims to keep the
output must keep these digests."""

from __future__ import annotations

import hashlib
import re
import runpy
from pathlib import Path

from orthograph.cli import main
from orthograph.graphs import complete_graph, cycle_graph, empty_graph, kneser, write_dimacs

DEMOS = Path(__file__).resolve().parents[1] / "demos"

GRAPHS = {
    "petersen": kneser(5, 2),
    "c5": cycle_graph(5),
    "k4": complete_graph(4),
    "empty": empty_graph(0),
}
PARAMS = ["chi", "chi-local", "od", "od-local", "minrank"]


def test_solve_certificates_are_pinned(tmp_path, capsys):
    # certificate bytes less the wallTime line, for every graph, field and param
    h = hashlib.sha256()
    for name, g in GRAPHS.items():
        path = tmp_path / f"{name}.dimacs"
        path.write_text(write_dimacs(g))
        for p in ("2", "3"):
            for param in PARAMS:
                out = tmp_path / "cert.json"
                assert main(["solve", param, str(path), "--field", p, "--json", "-o", str(out)]) == 0
                text = re.sub(r'\n  "wallTime": [^\n]*', "", out.read_text())
                h.update(f"{name} {p} {param}\n{text}\n".encode())
    capsys.readouterr()
    assert h.hexdigest() == "19417c28b2390cc880a73017a63e988376d4d2952798c092e23fd048e6e56d3f"


def test_demo_output_is_pinned(capsys):
    h = hashlib.sha256()
    for demo in sorted(DEMOS.glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
        h.update(f"{demo.name}\n{capsys.readouterr().out}".encode())
    assert h.hexdigest() == "2eb940df97dbd4ca2ed83d30fc6096ce8495be673f54aed5a0d5fd279110d4c4"
