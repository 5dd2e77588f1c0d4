"""Command-line interface: subcommands, exit codes, and certificate
round trips through an independent verify invocation."""

from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest

from orthograph import cli, indexcoding
from orthograph.cli import main
from orthograph.coloring import ParamResult
from orthograph.graphs import complete_graph, cycle_graph, kneser, read_dimacs, schrijver, write_dimacs


def run_cli(args):
    return main(list(args))


def test_gen_kneser_petersen(tmp_path, capsys):
    out = tmp_path / "g.dimacs"
    assert run_cli(["gen", "kneser", "5", "2", "-o", str(out)]) == 0
    g = read_dimacs(out.read_text())
    assert g.n == 10 and g.num_edges == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_gen_to_stdout(capsys):
    assert run_cli(["gen", "cycle", "5"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("p edge 5 5")


def test_gen_usage_errors(capsys):
    assert run_cli(["gen", "kneser", "5"]) == 2
    assert run_cli(["gen", "kneser", "five", "two"]) == 2
    assert run_cli(["gen", "kneser", "3", "2"]) == 2


def test_solve_chi_local_petersen_json(tmp_path, capsys):
    g = tmp_path / "g.dimacs"
    g.write_text(write_dimacs(kneser(5, 2)))
    assert run_cli(["solve", "chi-local", str(g), "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["schema"] == 1
    assert cert["param"] == "chi-local"
    assert cert["value"] == 3
    assert cert["exact"] is True
    assert cert["verified"] is True
    assert len(cert["witness"]["coloring"]) == 10


def test_solve_plain_output(tmp_path, capsys):
    g = tmp_path / "g.dimacs"
    g.write_text(write_dimacs(kneser(5, 2)))
    assert run_cli(["solve", "chi", str(g)]) == 0
    assert capsys.readouterr().out.strip() == "chi = 3"


def test_solve_certificates_pass_verify(tmp_path, capsys):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    for param, extra in [
        ("chi", []),
        ("chi-local", []),
        ("od", ["--field", "2"]),
        ("od-local", ["--field", "2"]),
        ("minrank", ["--field", "2"]),
    ]:
        cert = tmp_path / f"{param}.json"
        assert run_cli(["solve", param, str(g), *extra, "-o", str(cert)]) == 0
        capsys.readouterr()
        # verify runs as a separate process, sharing nothing with the solver
        proc = subprocess.run(
            [sys.executable, "-m", "orthograph.cli", "verify", str(cert), str(g)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verification ok" in proc.stdout


@pytest.mark.parametrize("param, stderr", [
    pytest.param("chi", "verify: witness achieves 3, certificate claims 2\n", id="chi"),
    pytest.param("chi-local", "verify: witness achieves 3, certificate claims 2\n", id="chi-local"),
    pytest.param("od", "verify: dimension 3 != value 2\n", id="od"),
    pytest.param("od-local", "verify: witness locality 3 != value 2\n", id="od-local"),
    pytest.param("minrank", "verify: dimension 3 != value 2\n", id="minrank"),
])
def test_verify_rejects_tampered_certificate(tmp_path, capsys, param, stderr):
    # C5 over GF(3): every parameter is 3, and the value lowered by 1 is refused
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    cert_path = tmp_path / "cert.json"
    assert run_cli(["solve", param, str(g), "--field", "3", "-o", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["value"] == 3
    cert["value"] -= 1
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run_cli(["verify", str(cert_path), str(g)]) == 1
    assert capsys.readouterr().err == stderr


@pytest.mark.parametrize("change, stderr", [
    (lambda cert: cert.update(value=2), "verify: witness locality 3 != value 2\n"),
    # vertex 0 takes vertex 1's vector: edge (0,1) alone is broken
    (
        lambda cert: cert["witness"].update(vectors=[[0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        "verify: edge (0,1): vectors not orthogonal\n",
    ),
])
def test_verify_od_local_reports_each_fault_once(tmp_path, capsys, change, stderr):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    cert_path = tmp_path / "cert.json"
    assert run_cli(["solve", "od-local", str(g), "--field", "2", "-o", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    change(cert)
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run_cli(["verify", str(cert_path), str(g)]) == 1
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert captured.out == "verification FAILED\n"


@pytest.mark.parametrize("param, field, corrupt", [
    ("chi", [], lambda cert: cert["witness"].update(coloring=None)),
    ("chi-local", [], lambda cert: cert.update(witness=cert["witness"]["coloring"])),
    ("od", ["--field", "3"], lambda cert: cert["witness"]["vectors"].__setitem__(0, "abc")),
    ("minrank", ["--field", "3"], lambda cert: cert.update(field=3)),
    # the C5 witness has t = 3, above a cap of 1; "x" and true are not caps
    ("od-local", ["--field", "2"], lambda cert: cert["witness"].update(dimCap=1)),
    ("od-local", ["--field", "2"], lambda cert: cert["witness"].update(dimCap="x")),
    ("od-local", ["--field", "2"], lambda cert: cert["witness"].update(dimCap=True)),
    # no dimension is negative
    ("od", ["--field", "2"], lambda cert: (cert.update(value=-1), cert["witness"].update(t=-1, vectors=[]))),
])
def test_verify_fails_cleanly_on_malformed_certificates(tmp_path, capsys, param, field, corrupt):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    cert_path = tmp_path / "cert.json"
    assert run_cli(["solve", param, str(g), *field, "-o", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    corrupt(cert)
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run_cli(["verify", str(cert_path), str(g)]) == 1
    out = capsys.readouterr()
    assert "verification FAILED" in out.out
    assert out.err.startswith("verify: ")


@pytest.mark.parametrize("param", ["od", "minrank"])
def test_verify_refuses_negative_dimensions(tmp_path, capsys, param):
    # the empty graph's witness has no vector whose length could contradict t
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 0 0\n")
    cert_path = tmp_path / "cert.json"
    assert run_cli(["solve", param, str(g), "--field", "2", "-o", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert (cert["value"], cert["witness"]) == (0, {"t": 0, "vectors": []})
    cert["value"] = cert["witness"]["t"] = -1
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run_cli(["verify", str(cert_path), str(g)]) == 1
    out = capsys.readouterr()
    assert out.out == "verification FAILED\n"
    assert out.err == "verify: negative dimension t = -1\n"


def _vectors_as_booleans(cert):
    cert["witness"]["vectors"] = [[bool(x) for x in v] for v in cert["witness"]["vectors"]]


@pytest.mark.parametrize("param, field, corrupt, error", [
    # on two isolated vertices chi = od = 1, so true and 1.0 compare equal to
    # every count the witness achieves
    pytest.param("chi", [], lambda cert: cert.update(value=True), "value is a bool, not an integer",
                 id="chi-value-bool"),
    pytest.param("chi", [], lambda cert: cert.update(value=1.0), "value is a float, not an integer",
                 id="chi-value-float"),
    pytest.param("chi", [], lambda cert: cert["witness"].update(coloring=[False, False]),
                 "witness coloring is not a list of integers", id="chi-coloring-bool"),
    pytest.param("od", ["--field", "2"], lambda cert: (cert.update(value=True), cert["witness"].update(t=True)),
                 "value is a bool, not an integer", id="od-value-t-bool"),
    pytest.param("od", ["--field", "2"], lambda cert: cert["witness"].update(t=True),
                 "witness needs an integer t and a list of vectors of field elements", id="od-t-bool"),
    pytest.param("od", ["--field", "2"], _vectors_as_booleans,
                 "witness needs an integer t and a list of vectors of field elements", id="od-vectors-bool"),
])
def test_verify_refuses_booleans_and_floats_for_integers(tmp_path, capsys, param, field, corrupt, error):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 2 0\n")
    cert_path = tmp_path / "cert.json"
    assert run_cli(["solve", param, str(g), *field, "-o", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["value"] == 1
    corrupt(cert)
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run_cli(["verify", str(cert_path), str(g)]) == 1
    out = capsys.readouterr()
    assert out.out == "verification FAILED\n"
    assert out.err == f"verify: {error}\n"


@pytest.mark.parametrize("param", ["od", "od-local", "minrank"])
@pytest.mark.parametrize("shift", [
    # every entry raised by p, or every nonzero entry lowered by p: the same
    # residues, so only a range check tells them from the solver's witness
    pytest.param(lambda x: x + 2, id="raised"),
    pytest.param(lambda x: x - 2 if x else x, id="lowered"),
])
def test_verify_refuses_vector_entries_outside_the_field(tmp_path, capsys, param, shift):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    cert_path = tmp_path / "cert.json"
    assert run_cli(["solve", param, str(g), "--field", "2", "-o", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    vectors = [[shift(x) for x in v] for v in cert["witness"]["vectors"]]
    cert["witness"]["vectors"] = vectors
    cert_path.write_text(json.dumps(cert))
    i, j = next((i, j) for i, v in enumerate(vectors) for j, x in enumerate(v) if not 0 <= x < 2)
    capsys.readouterr()
    assert run_cli(["verify", str(cert_path), str(g)]) == 1
    out = capsys.readouterr()
    assert out.out == "verification FAILED\n"
    assert out.err == f"verify: vectors[{i}][{j}] = {vectors[i][j]} is not in [0, 2)\n"


def test_verify_rejects_a_certificate_that_is_not_an_object(tmp_path, capsys):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 2 1\ne 1 2\n")
    cert_path = tmp_path / "cert.json"
    for cert in ('"param"', "[1, 2]"):
        cert_path.write_text(cert)
        assert run_cli(["verify", str(cert_path), str(g)]) == 2
        assert "unrecognized certificate layout" in capsys.readouterr().err


def test_reduce_past_the_vertex_cap_is_a_cap_hit(tmp_path, capsys):
    # a 20-variable, 60-clause 3-CNF: G' has 4,423 vertices, above MAX_VERTICES
    rng = random.Random(7)
    clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 21), 3)] for _ in range(60)]
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 20 60\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    assert run_cli(["reduce", str(cnf), "--stage", "Gprime", "-o", str(tmp_path / "g.dimacs")]) == 3
    assert "cap exceeded: vertex count 4423" in capsys.readouterr().err
    assert run_cli(["gen", "empty", "--", "-1"]) == 2
    assert "negative vertex count" in capsys.readouterr().err


def test_solve_cap_exceeded_exit_code(tmp_path, capsys):
    edges = [(u, v) for u in range(1, 14) for v in range(u + 1, 14)]
    lines = [f"p edge 13 {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    g = tmp_path / "big.dimacs"
    g.write_text("\n".join(lines) + "\n")
    assert run_cli(["solve", "minrank", str(g), "--field", "2"]) == 3
    capsys.readouterr()


def test_span_tables_past_max_points_exit_3_before_any_search(tmp_path, capsys):
    # S(6,2) refutes locality 3 at t = 3, then needs GF(p)^dimCap
    s = tmp_path / "s.dimacs"
    s.write_text(write_dimacs(schrijver(6, 2)))
    k4 = tmp_path / "k4.dimacs"
    k4.write_text(write_dimacs(complete_graph(4)))
    for path, field, dim_cap, t in ((s, 2, 40, 40), (s, 3, 10**9, 10**9), (k4, 251, 10**9, 4)):
        argv = ["solve", "od-local", str(path), "--field", str(field), "--dim-cap", str(dim_cap)]
        assert run_cli(argv) == 3
        assert f"GF({field})^{t} has more than MAX_POINTS" in capsys.readouterr().err


def test_index_code_local_on_a_large_cycle_exits_3_at_the_cap(tmp_path, capsys):
    # the complement of C3000 is built before chi_local refuses it
    g = tmp_path / "c.dimacs"
    g.write_text(write_dimacs(cycle_graph(3000)))
    assert run_cli(["index-code", str(g), "--field", "2", "--method", "local"]) == 3
    assert "local_chromatic_number cap 56 exceeded (n=3000)" in capsys.readouterr().err


def test_index_code_local_builds_schulman_families_past_max_points(tmp_path, capsys):
    # chi_local of K8 is 8 > 5, so the Schulman family lives in GF(5)^10,
    # whose 2,441,406 points no search table would admit; the family needs
    # none, and its 8 x 10 representing matrix has rank 8
    g = tmp_path / "e8.dimacs"
    g.write_text("p edge 8 0\n")
    out = tmp_path / "code.json"
    assert run_cli(["index-code", str(g), "--field", "5", "--method", "local", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["length"] == 8
    assert run_cli(["verify", str(out), str(g)]) == 0
    capsys.readouterr()


def test_solve_rejects_rational_field_for_search(tmp_path, capsys):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert run_cli(["solve", "minrank", str(g), "--field", "Q"]) == 2
    capsys.readouterr()


def test_reduce_writes_graph_and_roles(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    out = tmp_path / "g.dimacs"
    roles = tmp_path / "roles.json"
    assert run_cli(["reduce", str(cnf), "--stage", "G", "-o", str(out), "--roles", str(roles)]) == 0
    g = read_dimacs(out.read_text())
    assert g.n == 9
    payload = json.loads(roles.read_text())
    assert payload["roles"][0] == ["w"]
    assert payload["roles"][3] == ["literal", 1, True]
    assert run_cli(["reduce", str(cnf), "--stage", "Gprime", "-o", str(out)]) == 0
    assert read_dimacs(out.read_text()).n == 81
    assert run_cli(["reduce", str(cnf), "--stage", "Gk", "--k", "5", "-o", str(out)]) == 0
    assert read_dimacs(out.read_text()).n == 83


def test_reduce_gk_requires_k_at_least_four(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    out = tmp_path / "g.dimacs"
    for argv in (["--stage", "Gk", "--k", "3"], ["--stage", "Gk"]):
        assert run_cli(["reduce", str(cnf), *argv, "-o", str(out)]) == 2
        assert "--stage Gk requires --k >= 4" in capsys.readouterr().err
    # --k with another stage is refused, not ignored: G' has 107 vertices,
    # G'' for k = 5 has 109
    for argv in (["--k", "5"], ["--stage", "Gprime", "--k", "5"], ["--stage", "G", "--k", "4"]):
        assert run_cli(["reduce", str(cnf), *argv, "-o", str(out)]) == 2
        assert "--k applies to --stage Gk only" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["reduce", str(cnf), "-o", str(out)]) == 0
    assert read_dimacs(out.read_text()).n == 107
    assert run_cli(["reduce", str(cnf), "--stage", "Gk", "--k", "5", "-o", str(out)]) == 0
    assert read_dimacs(out.read_text()).n == 109


def test_index_code_json_and_verify(tmp_path, capsys):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    out = tmp_path / "code.json"
    assert run_cli([
        "index-code", str(g), "--field", "2", "--method", "minrank",
        "--simulate", "50", "-o", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["length"] == 3
    assert payload["simulation"] == {"trials": 50, "failures": 0, "length": 3}
    assert run_cli(["verify", str(out), str(g)]) == 0
    capsys.readouterr()


def _shifted(key, i, j, by):
    """Certificate edit: entry (i, j) of key moved by `by`, a multiple of 5."""
    def edit(cert):
        cert[key][i][j] += by
    return edit


def _matrices_as_booleans(cert):
    """Certificate edit: every 0 and 1 in the three matrices turned into a JSON
    false and true, which keeps every value, so the code still decodes."""
    for key in ("representingMatrix", "encodeMatrix", "decodeCoeffs"):
        cert[key] = [[bool(x) if x in (0, 1) else x for x in row] for row in cert[key]]


def _narrow_encode_rows(cert):
    """Certificate edit: the last entry of every row of B removed."""
    cert["encodeMatrix"] = [row[:-1] for row in cert["encodeMatrix"]]


def _wrong_decode_coeff(cert):
    """Certificate edit: lambda_0[0] moved by +1 mod 5, a canonical entry."""
    cert["decodeCoeffs"][0][0] = (cert["decodeCoeffs"][0][0] + 1) % 5


def _short_decode_row(cert):
    """Certificate edit: the last entry of lambda_1 removed."""
    cert["decodeCoeffs"][1].pop()


def _repeated_encode_row(cert):
    """Certificate edit: a copy of B's first row broadcast as a fourth row, which
    every receiver ignores, so only the dependence of B's rows is wrong."""
    cert["encodeMatrix"].append(cert["encodeMatrix"][0])
    cert["length"] = 4
    for lam in cert["decodeCoeffs"]:
        lam.append(0)


@pytest.mark.parametrize("edits, errors", [
    pytest.param({"representingMatrix": None}, None, id="representingMatrix-None"),
    pytest.param({"decodeCoeffs": [[1, 0, 0]]}, None, id="decodeCoeffs-value1"),
    pytest.param({"length": 1, "n": 99}, ["length 1 != 3 rows of encodeMatrix", "n 99 != 5 vertices in the graph"],
                 id="length-n"),
    pytest.param({"length": 4}, ["length 4 != 3 rows of encodeMatrix"], id="length"),
    pytest.param({"n": 4}, ["n 4 != 5 vertices in the graph"], id="n"),
    pytest.param({"length": "3"}, ["length is a str, not an integer"], id="length-str"),
    pytest.param({"n": True}, ["n is a bool, not an integer"], id="n-bool"),
    pytest.param(_matrices_as_booleans, ["representingMatrix is not a list of integer rows"],
                 id="matrices-bool"),
    pytest.param({"length": None}, ["'length'"], id="length-missing"),  # the key is deleted below
    # each edit below keeps every entry's residue mod 5, so the code still decodes
    pytest.param(_shifted("decodeCoeffs", 0, 0, 5), ["decodeCoeffs[0][0] = 6 is not in [0, 5)"],
                 id="decodeCoeffs-plus-p"),
    pytest.param(_shifted("decodeCoeffs", 0, 0, -5), ["decodeCoeffs[0][0] = -4 is not in [0, 5)"],
                 id="decodeCoeffs-minus-p"),
    pytest.param(_shifted("decodeCoeffs", 0, 0, 5**30), [f"decodeCoeffs[0][0] = {5**30 + 1} is not in [0, 5)"],
                 id="decodeCoeffs-plus-p30"),
    pytest.param(_shifted("encodeMatrix", 1, 2, 5), ["encodeMatrix[1][2] = 6 is not in [0, 5)"],
                 id="encodeMatrix-plus-p"),
    pytest.param(_shifted("representingMatrix", 0, 1, 5), ["representingMatrix[0][1] = 6 is not in [0, 5)"],
                 id="representingMatrix-plus-p"),
    pytest.param(_repeated_encode_row, ["rows of encodeMatrix are dependent"], id="encodeMatrix-repeated-row"),
    pytest.param(_narrow_encode_rows, ["rows of encodeMatrix are dependent",
                                       "broadcast rows have 4 entries, graph has 5 vertices"], id="encodeMatrix-narrow"),
    pytest.param(_wrong_decode_coeff, ["decode coefficients of receiver 0 do not reconstruct row 0"],
                 id="decodeCoeffs-wrong"),
    pytest.param(_short_decode_row, ["decode coefficients must have the code length 3"], id="decodeCoeffs-short-row"),
    pytest.param({"encodeMatrix": [], "length": 0}, ["decode coefficients must have the code length 0"],
                 id="encodeMatrix-empty"),
])
def test_verify_fails_cleanly_on_malformed_index_codes(tmp_path, capsys, edits, errors):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    out = tmp_path / "code.json"
    assert run_cli(["index-code", str(g), "--field", "5", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["length"], payload["n"]) == (3, 5)
    if callable(edits):
        edits(payload)
    else:
        payload.update(edits)
    if edits == {"length": None}:
        del payload["length"]
    out.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(["verify", str(out), str(g)]) == 1
    res = capsys.readouterr()
    assert res.out == "verification FAILED\n"
    assert res.err.startswith("verify: ")
    if errors is not None:
        assert res.err.splitlines() == [f"verify: {e}" for e in errors]


def test_compression_out_of_retries_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(indexcoding, "compress_attempt", lambda g, rep, m, seed: None)
    g, out = tmp_path / "g.dimacs", tmp_path / "code.json"
    g.write_text(write_dimacs(cycle_graph(5)))
    assert run_cli(["index-code", str(g), "--field", "5", "--method", "compress", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "infeasible: compression failed 64 times (probability <= q^-64)\n"
    assert not out.exists()


def test_index_code_exits_one_when_its_simulation_fails(tmp_path, capsys, monkeypatch):
    made = []

    def tampered(g, field, method, seed=0):
        """The real code with lambda_0[0] moved by +1 mod q."""
        code = indexcoding.code_by_method(g, field, method, seed)
        lam = [list(c) for c in code.decode_coeffs]
        lam[0][0] = (lam[0][0] + 1) % field.p
        bad = indexcoding.IndexCode(field, g, code.matrix, code.encode_matrix, tuple(map(tuple, lam)))
        made.append(bad)
        return bad

    monkeypatch.setattr(cli, "code_by_method", tampered)
    g, out = tmp_path / "g.dimacs", tmp_path / "code.json"
    g.write_text(write_dimacs(cycle_graph(5)))
    assert run_cli(["index-code", str(g), "--field", "5", "--simulate", "20", "--seed", "3", "-o", str(out)]) == 1
    failures = indexcoding.simulate(made[0], 20, seed=3).failures
    assert failures > 0 and list(made[0].residuals) == [0]
    assert capsys.readouterr().err == f"simulation reported {failures} failures\n"
    assert not out.exists()


def test_solve_exits_one_when_its_witness_fails_verification(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "chromatic_number", lambda g: ParamResult("chi", 1, (0,) * g.n, "clique"))
    g, out = tmp_path / "g.dimacs", tmp_path / "cert.json"
    g.write_text(write_dimacs(cycle_graph(5)))
    assert run_cli(["solve", "chi", str(g), "--json", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "certificate failed self-verification: adjacent vertices 0,1 share color 0\n"
    assert not out.exists()


def test_index_code_deterministic_for_fixed_seed(tmp_path):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli([
            "index-code", str(g), "--field", "5", "--method", "compress",
            "--seed", "3", "-o", str(out),
        ]) == 0
    assert a.read_text() == b.read_text()


def test_negative_counts_are_usage_errors(tmp_path, capsys):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    assert run_cli(["index-code", str(g), "--field", "2", "--simulate", "-3"]) == 2
    assert "--simulate must be at least 0" in capsys.readouterr().err
    assert run_cli(["solve", "od-local", str(g), "--dim-cap", "0"]) == 2
    assert "--dim-cap must be at least 1" in capsys.readouterr().err
    assert run_cli(["solve", "od-local", str(g), "--dim-cap", "two"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    # the smallest accepted values still run
    assert run_cli(["index-code", str(g), "--field", "2", "--simulate", "0"]) == 0
    assert run_cli(["solve", "od-local", str(g), "--dim-cap", "1", "--field", "3"]) == 3
    capsys.readouterr()


def test_solve_od_has_no_dim_cap(tmp_path, capsys):
    # K7 over GF(31) is settled by its clique and the greedy coloring, and
    # verify accepts the certificate; only the vertex cap of 16 refuses
    g = tmp_path / "k7.dimacs"
    g.write_text(write_dimacs(complete_graph(7)))
    cert = tmp_path / "o.json"
    assert run_cli(["solve", "od", str(g), "--field", "31", "--json", "-o", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert (data["value"], data["lowerBoundReason"], data["witness"]["t"]) == (7, "clique", 7)
    assert run_cli(["verify", str(cert), str(g)]) == 0
    big = tmp_path / "e17.dimacs"
    big.write_text("p edge 17 0\n")
    assert run_cli(["solve", "od", str(big)]) == 3
    assert "orthogonality_dimension vertex cap 16 exceeded (n=17)" in capsys.readouterr().err


@pytest.mark.parametrize("param", ["chi", "chi-local", "od", "minrank"])
def test_dim_cap_without_a_dimension_is_a_usage_error(tmp_path, capsys, param):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    assert run_cli(["solve", param, str(g), "--dim-cap", "3"]) == 2
    assert capsys.readouterr().err == f"error: --dim-cap applies to od-local only, not {param}\n"


def test_missing_file_is_usage_error(capsys):
    assert run_cli(["solve", "chi", "/nonexistent.dimacs"]) == 2
    capsys.readouterr()


def test_cli_entry_point_runs_as_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "orthograph.cli", "gen", "complete", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p edge 3 3")


@pytest.mark.parametrize("argv, make, message", [
    pytest.param(["reduce", "{cnf}"], "p cnf 2 1\n1 x 0\n", "line 2: non-integer literal 'x'",
                 id="argv0-p cnf 2 1\n1 x 0\n"),
    pytest.param(["reduce", "{cnf}"], "p cnf 2 1\n1 3 0\n", "literal 3 out of range for 2 variables",
                 id="argv1-p cnf 2 1\n1 3 0\n"),
    pytest.param(["index-code", "{graph}", "--field", "4"], None, "field order 4 is not prime", id="argv2-None"),
    pytest.param(["index-code", "{graph}", "--field", "300"], None, "field order 300 exceeds the supported maximum 251",
                 id="argv3-None"),
    pytest.param(["solve", "od", "{graph}", "--field", "4"], None, "field order 4 is not prime", id="argv4-None"),
    # the problem line: one per file, four tokens, integer counts, none negative
    pytest.param(["reduce", "{cnf}"], "p cnf 1 1\n1 0\np cnf 3 1\n", "line 3: duplicate problem line",
                 id="cnf-duplicate-problem-line"),
    pytest.param(["reduce", "{cnf}"], "p cnf 3\n1 0\n", "line 1: expected 'p cnf <vars> <clauses>'",
                 id="cnf-short-problem-line"),
    pytest.param(["reduce", "{cnf}"], "p dnf 3 1\n1 0\n", "line 1: expected 'p cnf <vars> <clauses>'",
                 id="cnf-not-cnf"),
    pytest.param(["reduce", "{cnf}"], "p cnf x 1\n1 0\n", "line 1: non-integer counts", id="cnf-vars-not-integer"),
    pytest.param(["reduce", "{cnf}"], "p cnf 3 y\n1 0\n", "line 1: non-integer counts",
                 id="cnf-clauses-not-integer"),
    pytest.param(["reduce", "{cnf}"], "p cnf -2 0\n", "line 1: negative counts", id="cnf-negative-vars"),
    pytest.param(["reduce", "{cnf}"], "p cnf 2 -1\n", "line 1: negative counts", id="cnf-negative-clauses"),
])
def test_malformed_cnf_and_bad_field_tags_are_usage_errors(tmp_path, capsys, argv, make, message):
    cnf, graph = tmp_path / "f.cnf", tmp_path / "g.dimacs"
    cnf.write_text(make or "")
    graph.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    assert run_cli([a.format(cnf=cnf, graph=graph) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_reduce_stops_at_the_satlib_end_marker(tmp_path):
    # SATLIB files close with a '%' line and a lone 0, which is no clause
    plain, satlib = tmp_path / "plain.cnf", tmp_path / "satlib.cnf"
    plain.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    satlib.write_text(plain.read_text() + "%\n0\n\n")
    for cnf in (plain, satlib):
        assert run_cli(["reduce", str(cnf), "-o", str(cnf.with_suffix(".dimacs"))]) == 0
    assert (tmp_path / "satlib.dimacs").read_text() == (tmp_path / "plain.dimacs").read_text()


def test_parser_is_reused_across_calls(tmp_path, capsys):
    from orthograph.cli import build_parser

    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    out = tmp_path / "out.json"
    calls = [
        ["solve", "od-local", str(g), "--field", "3", "--dim-cap", "3", "-o", str(out)],
        ["solve", "od-local", str(g), "--field", "3", "-o", str(out)],
        ["index-code", str(g), "--field", "2", "--simulate", "5", "-o", str(out)],
        ["index-code", str(g), "--field", "2", "-o", str(out)],
        ["solve", "chi", str(g), "--dim-cap", "two"],
        ["solve", "chi", str(g), "-o", str(out)],
        ["--help"],
    ]

    def run(argv):
        out.unlink(missing_ok=True)
        rc = main(argv)
        text = json.loads(out.read_text()) if out.exists() else None
        if isinstance(text, dict):
            text.pop("wallTime", None)
        captured = capsys.readouterr()
        return rc, text, captured.out, captured.err

    build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(argv))
    assert shared == alone
    assert [rc for rc, *_ in shared] == [0, 0, 0, 0, 2, 0, 0]
    assert shared[0][1]["witness"]["dimCap"] == 3 and shared[1][1]["witness"]["dimCap"] != 3
    assert "simulation" in shared[2][1] and "simulation" not in shared[3][1]
    assert "invalid int value" in shared[4][3]
    assert shared[6][2].startswith("usage: orthograph")


def test_only_named_errors_map_to_exit_codes(tmp_path, capsys, monkeypatch):
    import orthograph.cli as cli
    import orthograph.indexcoding as indexcoding

    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    argv = ["index-code", str(g), "--field", "2", "--method", "compress"]
    monkeypatch.setattr(indexcoding, "compress_attempt", lambda *args: None)
    assert run_cli(argv) == 1
    assert "compression failed 64 times" in capsys.readouterr().err

    def internal_fault(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "code_by_method", internal_fault)
    with pytest.raises(ValueError, match="internal fault"):
        run_cli(argv)


@pytest.mark.parametrize("method", ["minrank", "local", "compress"])
def test_index_code_on_a_graph_with_no_vertices(tmp_path, capsys, method):
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 0 0\n")
    out = tmp_path / "code.json"
    assert run_cli(["index-code", str(g), "--field", "2", "--method", method, "--simulate", "3",
                    "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["length"] == 0 and payload["encodeMatrix"] == []
    assert payload["simulation"] == {"trials": 3, "failures": 0, "length": 0}
    assert run_cli(["verify", str(out), str(g)]) == 0
    capsys.readouterr()


def test_unreadable_and_unwritable_paths_are_usage_errors(tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    g = tmp_path / "g.dimacs"
    g.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    cert = tmp_path / "cert.json"
    assert run_cli(["solve", "chi", str(g), "-o", str(cert)]) == 0
    for argv in (
        ["solve", "chi", str(folder)],
        ["reduce", str(folder)],
        ["verify", str(folder), str(g)],
        ["verify", str(cert), str(folder)],
        ["solve", "chi", str(g), "-o", str(folder)],
        ["index-code", str(g), "--field", "2", "-o", str(folder / "missing" / "code.json")],
    ):
        capsys.readouterr()
        assert run_cli(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")


def _rational_cert(entry):
    return json.dumps({"param": "od", "field": "Q", "value": 2,
                       "witness": {"t": 2, "vectors": [[entry, 0], [0, 1]]}})


@pytest.mark.parametrize("text, code", [
    ("[" * 100000, 2),  # nests past the recursion limit
    ('{"param": "chi", "value": ' + "9" * 5000 + "}", 2),  # an int past the digit limit
    (_rational_cert("1/0"), 1),
    (_rational_cert("1e100000000"), 1),  # Fraction would build a 10^8-digit integer
    (_rational_cert("1/2"), 0),
])
def test_verify_maps_hostile_certificates_to_exit_codes(tmp_path, capsys, text, code):
    g, cert = tmp_path / "g.dimacs", tmp_path / "cert.json"
    g.write_text("p edge 2 1\ne 1 2\n")
    cert.write_text(text)
    assert run_cli(["verify", str(cert), str(g)]) == code
    capsys.readouterr()
