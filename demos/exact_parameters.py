"""Tour of the exact solvers on the Petersen graph K(5,2).

Every value comes with a machine-checkable witness: a coloring, a set of
vectors, or an independent representation, re-verified here on the spot.
"""

from __future__ import annotations

from orthograph import (
    GF2,
    chromatic_number,
    coloring_locality,
    complement,
    independence_violations,
    kneser,
    local_chromatic_number,
    local_orthogonality_dimension,
    max_clique,
    minrank,
    orthogonality_dimension,
    rep_locality,
)


def main() -> None:
    g = kneser(5, 2)
    print(f"Petersen graph: {g.n} vertices, {g.num_edges} edges")

    omega = max_clique(g)
    print(f"max clique  = {omega.value}  (witness {omega.witness})")

    chi = chromatic_number(g)
    print(f"chi         = {chi.value}  (witness uses {len(set(chi.witness))} colors)")

    loc = local_chromatic_number(g)
    print(f"chi_local   = {loc.value}  "
          f"(locality of witness = {coloring_locality(g, loc.witness)}, "
          f"lower bound via {loc.lower_bound_reason})")

    od = orthogonality_dimension(g, GF2)
    print(f"orth. dim over GF(2)       = {od.value}")

    lod = local_orthogonality_dimension(g, GF2)
    print(f"local orth. dim over GF(2) = {lod.value}  "
          f"(witness in dimension {lod.witness.t}, "
          f"locality {rep_locality(g, lod.witness)})")

    mr = minrank(g, GF2)
    assert independence_violations(complement(g), mr.witness) == []
    print(f"minrank over GF(2)         = {mr.value}  (witness re-verified)")

    print()
    print("chain check: local orth. dim <= chi_local <= chi:",
          lod.value, "<=", loc.value, "<=", chi.value)


if __name__ == "__main__":
    main()
