"""Command-line front end.

Subcommands: gen (graph generators to DIMACS), solve (exact parameters with
JSON certificates), reduce (CNF to gadget graph), index-code (build and
simulate a linear index code), verify (re-check a certificate against its
graph), selftest (run the full verification battery).

Exit codes: 0 success; 1 verified-infeasible answer or failed verification;
2 usage error; 3 a size cap exceeded (CapExceededError: MAX_VERTICES, a
vertex cap, od-local's dimension cap, or a span table past MAX_POINTS).
Output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional, Sequence

from .coloring import (
    CapExceededError,
    ImproperColoringError,
    check_proper,
    chromatic_number,
    coloring_locality,
    local_chromatic_number,
    num_colors,
)
from .fields import PrimeField, field_from_name
from .graphs import (
    DimacsParseError,
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    kneser,
    read_dimacs,
    schrijver,
    write_dimacs,
)
from .indexcoding import CompressionError, IndexCode, check_representing, code_by_method, simulate
from .linalg import FieldTooSmallError, Matrix, rank
from .ortho import (
    Representation,
    independence_violations,
    local_orthogonality_dimension,
    minrank,
    orthogonality_dimension,
    orthogonality_violations,
    rep_locality,
)
from .reduction import CnfParseError, build_g, build_g_k, build_g_prime, parse_dimacs_cnf

SCHEMA = 1

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(ValueError):
    pass


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return read_dimacs(fh.read())


def _prime_field(name: str) -> PrimeField:
    try:
        field = field_from_name(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not isinstance(field, PrimeField):
        raise UsageError("this command needs a finite prime field, not Q")
    return field


# -- gen ----------------------------------------------------------------------


# family -> (generator, number of integer parameters)
GEN_FAMILIES = {
    "kneser": (kneser, 2),
    "schrijver": (schrijver, 2),
    "complete": (complete_graph, 1),
    "empty": (empty_graph, 1),
    "cycle": (cycle_graph, 1),
}


def cmd_gen(args) -> int:
    generator, arity = GEN_FAMILIES[args.family]
    try:
        g = generator(*_ints(args.params, arity))
    except CapExceededError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_output(write_dimacs(g), args.output)
    return EXIT_OK


def _ints(params: Sequence[str], want: int) -> list[int]:
    if len(params) != want:
        raise UsageError(f"expected {want} integer parameter(s), got {len(params)}")
    try:
        return [int(p) for p in params]
    except ValueError:
        raise UsageError(f"non-integer parameter in {params}") from None


# -- solve --------------------------------------------------------------------


def _solve_certificate(param: str, g: Graph, field: Optional[PrimeField], dim_cap: Optional[int]) -> dict:
    if param == "chi":
        res = chromatic_number(g)
    elif param == "chi-local":
        res = local_chromatic_number(g)
    elif param == "od":
        res = orthogonality_dimension(g, field)
    elif param == "od-local":
        res = local_orthogonality_dimension(g, field, dim_cap=dim_cap)
    elif param == "minrank":
        res = minrank(g, field)
    else:
        raise UsageError(f"unknown parameter {param!r}")
    cert: dict = {
        "schema": SCHEMA,
        "command": f"solve {param}",
        "param": param,
        "value": res.value,
        "exact": True,
        "lowerBoundReason": res.lower_bound_reason,
    }
    if isinstance(res.witness, Representation):
        rep = res.witness
        cert.update(field=rep.field.name, witness={"t": rep.t, "vectors": [list(v) for v in rep.vectors]})
    else:
        cert["witness"] = {"coloring": list(res.witness)}
    if res.dim_cap is not None:
        cert["exactUnderCap"] = True
        cert["witness"]["dimCap"] = res.dim_cap
    return cert


def cmd_solve(args) -> int:
    if args.dim_cap is not None and args.param != "od-local":
        raise UsageError(f"--dim-cap applies to od-local only, not {args.param}")
    if args.dim_cap is not None and args.dim_cap < 1:
        raise UsageError(f"--dim-cap must be at least 1, got {args.dim_cap}")
    g = _load_graph(args.graph)
    field = None
    if args.param in ("od", "od-local", "minrank"):
        field = _prime_field(args.field)
    start = time.monotonic()
    cert = _solve_certificate(args.param, g, field, args.dim_cap)
    cert["wallTime"] = round(time.monotonic() - start, 6)
    errors = _verify_certificate(cert, g)
    cert["verified"] = not errors
    if errors:
        print("certificate failed self-verification: " + "; ".join(errors), file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.json or args.output:
        _write_output(json.dumps(cert, indent=2, sort_keys=True), args.output)
    else:
        print(f"{args.param} = {cert['value']}")
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _rows(value, scalars: tuple) -> bool:
    """Whether a JSON value is a list of lists of the given scalar types; a
    JSON true or false is not an integer."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(isinstance(x, scalars) and type(x) is not bool for x in row)
        for row in value
    )


def _outside_field(key: str, rows: list, p: int) -> str:
    """The first entry of rows outside [0, p), as a message, or ''."""
    bad = next(((i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if not 0 <= x < p), None)
    return "{}[{}][{}] = {} is not in [0, {})".format(key, *bad, p) if bad else ""


def _verify_certificate(cert: dict, g: Graph) -> list[str]:
    """Re-check a solve certificate against its graph; empty list means valid."""
    param = cert.get("param")
    value = cert.get("value")
    witness = cert.get("witness", {})
    if not isinstance(witness, dict):
        return ["witness is not a JSON object"]
    if type(value) is not int:  # neither a JSON true nor 1.0 is a count
        return [f"value is a {type(value).__name__}, not an integer"]
    out: list[str] = []
    try:
        if param in ("chi", "chi-local"):
            colors = witness["coloring"]
            if not _rows([colors], (int,)):
                return ["witness coloring is not a list of integers"]
            if param == "chi":
                check_proper(g, colors)
                measured = num_colors(colors)
            else:
                measured = coloring_locality(g, colors)
            if measured != value:
                out.append(f"witness achieves {measured}, certificate claims {value}")
        elif param in ("od", "od-local", "minrank"):
            field = field_from_name(cert["field"])
            # entries are integers, and over Q also strings such as "1/2"
            scalars = (int,) if isinstance(field, PrimeField) else (int, str)
            t = witness["t"]
            if type(t) is not int or not _rows(witness["vectors"], scalars):
                return ["witness needs an integer t and a list of vectors of field elements"]
            if isinstance(field, PrimeField):
                bad = _outside_field("vectors", witness["vectors"], field.p)
                if bad:
                    return [bad]
            rep = Representation(field, t, tuple(tuple(v) for v in witness["vectors"]))
            if param == "od":
                out.extend(orthogonality_violations(g, rep))
                if t != value:
                    out.append(f"dimension {t} != value {value}")
            elif param == "od-local":
                cap = witness["dimCap"]
                if type(cap) is not int:  # a JSON true is not a cap either
                    out.append(f"dimCap is a {type(cap).__name__}, not an integer")
                elif t > cap:
                    out.append(f"dimension {t} exceeds dimCap {cap}")
                try:
                    measured = rep_locality(g, rep)  # checks orthogonality first
                except ValueError:
                    bad = orthogonality_violations(g, rep)
                    if not bad:
                        raise
                    out.extend(bad)
                else:
                    if measured != value:
                        out.append(f"witness locality {measured} != value {value}")
            else:
                out.extend(independence_violations(complement(g), rep))
                if t != value:
                    out.append(f"dimension {t} != value {value}")
        else:
            out.append(f"unrecognized certificate parameter {param!r}")
    except (KeyError, ValueError, ImproperColoringError) as exc:
        out.append(str(exc))
    return out


def _verify_index_code(cert: dict, g: Graph) -> list[str]:
    out: list[str] = []
    try:
        field = _prime_field(cert["field"])
        for key in ("representingMatrix", "encodeMatrix", "decodeCoeffs"):
            if not _rows(cert[key], (int,)):
                return [f"{key} is not a list of integer rows"]
            bad = _outside_field(key, cert[key], field.p)
            if bad:
                out.append(bad)
        for key, want, what in (("length", len(cert["encodeMatrix"]), "rows of encodeMatrix"),
                                ("n", g.n, "vertices in the graph")):
            value = cert[key]
            if type(value) is not int:  # a JSON true is not a count either
                out.append(f"{key} is a {type(value).__name__}, not an integer")
            elif value != want:
                out.append(f"{key} {value} != {want} {what}")
        m = Matrix(field, tuple(tuple(r) for r in cert["representingMatrix"]))
        check_representing(g, m)
        b = Matrix(field, tuple(tuple(r) for r in cert["encodeMatrix"]))
        if rank(b) != b.nrows:
            out.append("rows of encodeMatrix are dependent")
        # M has the graph's pattern, so a receiver fails exactly when lambda_i B != M_i
        code = IndexCode(field, g, m, b, tuple(tuple(c) for c in cert["decodeCoeffs"]))
        out.extend(f"decode coefficients of receiver {i} do not reconstruct row {i}" for i in code.residuals)
    except (KeyError, ValueError) as exc:
        out.append(str(exc))
    return out


def cmd_verify(args) -> int:
    with open(args.certificate) as fh:
        try:
            cert = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also too deep, or an int past the digit limit
            raise UsageError(str(exc)) from None
    g = _load_graph(args.graph)
    if not isinstance(cert, dict):
        print("unrecognized certificate layout", file=sys.stderr)
        return EXIT_USAGE
    if "param" in cert:
        errors = _verify_certificate(cert, g)
    elif "representingMatrix" in cert:
        errors = _verify_index_code(cert, g)
    else:
        print("unrecognized certificate layout", file=sys.stderr)
        return EXIT_USAGE
    if errors:
        for e in errors:
            print(f"verify: {e}", file=sys.stderr)
        print("verification FAILED")
        return EXIT_INFEASIBLE
    print("verification ok")
    return EXIT_OK


# -- reduce -------------------------------------------------------------------


def cmd_reduce(args) -> int:
    if args.k is not None and args.stage != "Gk":
        raise UsageError("--k applies to --stage Gk only")
    if args.stage == "Gk" and (args.k is None or args.k < 4):
        raise UsageError("--stage Gk requires --k >= 4")
    with open(args.cnf) as fh:
        cnf = parse_dimacs_cnf(fh.read())
    if args.stage == "G":
        gg = build_g(cnf)
    elif args.stage == "Gprime":
        gg = build_g_prime(cnf)
    else:
        gg = build_g_k(cnf, args.k)
    _write_output(write_dimacs(gg.graph), args.output)
    if args.roles:
        payload = {
            "schema": SCHEMA,
            "stage": args.stage,
            "n": gg.graph.n,
            "roles": [list(r) for r in gg.roles],
        }
        _write_output(json.dumps(payload, indent=2, sort_keys=True), args.roles)
    return EXIT_OK


# -- index-code ---------------------------------------------------------------


def cmd_index_code(args) -> int:
    if args.simulate < 0:
        raise UsageError(f"--simulate must be at least 0, got {args.simulate}")
    g = _load_graph(args.graph)
    field = _prime_field(args.field)
    code = code_by_method(g, field, args.method, seed=args.seed)
    payload = {
        "schema": SCHEMA,
        "command": "index-code",
        "method": args.method,
        "field": field.name,
        "seed": args.seed,
        "n": code.n,
        "length": code.length,
        "encodeMatrix": [list(r) for r in code.encode_matrix.rows],
        "representingMatrix": [list(r) for r in code.matrix.rows],
        "decodeCoeffs": [list(c) for c in code.decode_coeffs],
    }
    if args.simulate:
        report = simulate(code, args.simulate, seed=args.seed)
        payload["simulation"] = {
            "trials": report.trials,
            "failures": report.failures,
            "length": report.length,
        }
        if report.failures:
            print(f"simulation reported {report.failures} failures", file=sys.stderr)
            return EXIT_INFEASIBLE
    _write_output(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


# -- selftest -----------------------------------------------------------------


def cmd_selftest(args) -> int:
    from . import acceptance  # only selftest needs it; importing it costs every other command's start-up

    return EXIT_OK if acceptance.run_all() else EXIT_INFEASIBLE


# -- entry point --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="orthograph",
        description="Exact graph parameters, SAT reduction, and index coding toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a graph in DIMACS edge format")
    p.add_argument("family", choices=list(GEN_FAMILIES))
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="compute an exact parameter with a certificate")
    p.add_argument("param", choices=["chi", "chi-local", "od", "od-local", "minrank"])
    p.add_argument("graph")
    p.add_argument("--field", default="2", help="prime field order, default 2")
    p.add_argument("--dim-cap", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="build the gadget graph of a DIMACS CNF formula")
    p.add_argument("cnf")
    p.add_argument("--k", type=int, default=None, help="the k of --stage Gk, at least 4")
    p.add_argument("--stage", choices=["G", "Gprime", "Gk"], default="Gprime")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--roles", default=None, help="write the JSON role map here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("index-code", help="build a linear index code for a side-information graph")
    p.add_argument("graph")
    p.add_argument("--field", required=True)
    p.add_argument("--method", choices=["minrank", "local", "compress"], default="minrank")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--simulate", type=int, default=0, metavar="N")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_index_code)

    p = sub.add_parser("verify", help="re-check a JSON certificate against its graph")
    p.add_argument("certificate")
    p.add_argument("graph")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the full verification battery")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except FieldTooSmallError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (UsageError, DimacsParseError, CnfParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CompressionError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    raise SystemExit(main())
