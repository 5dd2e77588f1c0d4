"""Fuzzing the exit-code contract: small valid inputs mutated by byte flips,
truncation and insertion must make main return 0, 1, 2 or 3, never raise."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from orthograph.cli import main
from orthograph.graphs import kneser, write_dimacs

GRAPH = write_dimacs(kneser(5, 2)).encode()  # 10 vertices, 15 edges
CNF = b"c three variables\np cnf 3 3\n1 -2 0\n2 3 0\n-1 3 0\n"
PARAMS = [("chi", "2"), ("chi-local", "2"), ("od", "3"), ("od-local", "2"), ("minrank", "3")]


@functools.cache
def certificates() -> tuple:
    """The solve certificates of the Petersen graph, one per parameter, and
    an od certificate over Q whose entries are fraction strings."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, cert = Path(tmp) / "g.dimacs", Path(tmp) / "cert.json"
        graph.write_bytes(GRAPH)
        texts = []
        for param, p in PARAMS:
            assert _run(["solve", param, str(graph), "--field", p, "-o", str(cert)]) == 0
            texts.append(cert.read_bytes())
    coloring = json.loads(texts[0])["witness"]["coloring"]  # a proper 3-coloring
    vectors = [["1/1" if c == k else "0/1" for k in range(3)] for c in coloring]
    rational = {"schema": 1, "param": "od", "field": "Q", "value": 3, "witness": {"t": 3, "vectors": vectors}}
    return (*texts, json.dumps(rational).encode())


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# random bytes, or a run of digits that can turn a count or a field tag huge
INSERTS = st.binary(min_size=1, max_size=8) | st.text("0123456789", min_size=1, max_size=12).map(str.encode)


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data after one to three byte flips, truncations or insertions."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        else:
            data = data[:at] + draw(INSERTS) + data[at:]
    return data


@st.composite
def cases(draw):
    """An argv template and the bytes of each file, one of them mutated."""
    files = {"graph": GRAPH, "cnf": CNF, "cert": draw(st.sampled_from(certificates()))}
    target = draw(st.sampled_from(["solve", "reduce", "verify-cert", "verify-graph"]))
    if target == "solve":
        argv, name = ["solve", "chi", "{graph}"], "graph"
    elif target == "reduce":
        argv, name = ["reduce", "{cnf}", "-o", "{out}"], "cnf"
    else:
        argv, name = ["verify", "{cert}", "{graph}"], target[len("verify-"):]
    files[name] = draw(mutated(files[name]))
    return argv, files


@settings(max_examples=300, deadline=None)
@given(cases())
def test_mutated_inputs_keep_the_exit_code_contract(tmp_path_factory, case):
    argv, contents = case
    tmp = tmp_path_factory.getbasetemp()
    paths = {name: tmp / f"fuzz.{name}" for name in ("graph", "cnf", "cert", "out")}
    for name, data in contents.items():
        paths[name].write_bytes(data)
    assert _run([a.format(**paths) for a in argv]) in (0, 1, 2, 3)


def test_unmutated_inputs_succeed(tmp_path):
    # the unmutated inputs succeed, so the fuzz starts from working files
    graph, cnf, cert = tmp_path / "g.dimacs", tmp_path / "f.cnf", tmp_path / "c.json"
    graph.write_bytes(GRAPH)
    cnf.write_bytes(CNF)
    assert _run(["solve", "chi", str(graph)]) == 0
    assert _run(["reduce", str(cnf), "-o", str(tmp_path / "out.dimacs")]) == 0
    for text in certificates():
        cert.write_bytes(text)
        assert _run(["verify", str(cert), str(graph)]) == 0
