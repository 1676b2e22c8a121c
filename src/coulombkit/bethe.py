"""Generators of the quantum difference relations and their q = 1 limits.

Relations are emitted as scalar data tagged by the Kahler degree they are
set equal to; quotient-module arithmetic is out of scope.  For block models
one relation is produced per (dominant circuit, Weyl element) pair of the
virtual abelian model, whose virtual rows supply the Weyl correction through
the product itself; the degree tag then records only the per-block image of
the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coulomb import CoulombAlgebra
from .exactring import Q_HALF, Scalar, mono_str, scalar_str, scalar_structured, specialize_q1
from .hypertoric import circuits


@dataclass(frozen=True)
class Relation:
    """One relation: lhs scalar = Kahler monomial of degree rhs_degree."""

    lhs: Scalar
    rhs_degree: tuple
    kind: str  # "dmodule" | "bethe_q1"
    circuit: tuple
    weyl_rep: tuple | None = None


def _block_image(alg: CoulombAlgebra, c) -> tuple:
    return tuple(sum(c[a:b]) for a, b in alg.data.block_slices())


def _specialize_flavors(alg: CoulombAlgebra, x: Scalar) -> Scalar:
    aspec = alg.data.a_specialization
    if not aspec:
        return x
    table = alg.table
    return x.subs({table.a(row): tuple(mono) for row, mono in aspec.items()}, table.width)


def dmodule_relations(alg: CoulombAlgebra):
    """One relation per circuit (times Weyl element when blocks are present)."""
    out = []
    circs = circuits(alg.data)
    if alg.data.blocks is None:
        for circ in circs:
            c = circ.vector
            nc = tuple(-x for x in c)
            lhs = alg.mul(alg.mixed_generator(c), alg.mixed_generator(nc)).scalar_part()
            out.append(Relation(lhs=lhs, rhs_degree=c, kind="dmodule", circuit=c))
        return out
    for circ in circs:
        c = circ.vector
        if not alg.is_dominant(c):
            continue
        for w in alg.weyl_elements():
            wc = alg.weyl_on_degree(w, c)
            nwc = tuple(-x for x in wc)
            lhs = alg.mul(alg.mixed_generator(wc), alg.mixed_generator(nwc)).scalar_part()
            lhs = _specialize_flavors(alg, lhs)
            out.append(Relation(lhs=lhs, rhs_degree=_block_image(alg, c),
                                kind="dmodule", circuit=c, weyl_rep=w))
    return out


def bethe_relations_q1(alg: CoulombAlgebra):
    """The q = 1 specialization of the difference relations."""
    out = []
    for rel in dmodule_relations(alg):
        lhs = specialize_q1(rel.lhs, alg.table)
        if Q_HALF in lhs.vars_used():
            raise AssertionError("q variable survived the q=1 specialization")
        out.append(Relation(lhs=lhs, rhs_degree=rel.rhs_degree, kind="bethe_q1",
                            circuit=rel.circuit, weyl_rep=rel.weyl_rep))
    return out


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _rhs_str(alg: CoulombAlgebra, rel: Relation) -> str:
    table = alg.table
    if alg.data.blocks is None:
        mono = table.mono({table.qvar(j): 2 * cj for j, cj in enumerate(rel.rhs_degree) if cj})
        return mono_str(table, mono)
    slices = alg.data.block_slices()
    mono = table.mono({table.qvar(slices[b][0]): 2 * cb
                       for b, cb in enumerate(rel.rhs_degree) if cb})
    return mono_str(table, mono)


def _relation_tag(rel: Relation) -> str:
    tag = "c=(%s)" % ",".join(str(x) for x in rel.circuit)
    if rel.weyl_rep is not None:
        tag += " w=(%s)" % ",".join(str(x + 1) for x in rel.weyl_rep)
    return tag


def render_bethe_system(alg: CoulombAlgebra, relations, fmt: str = "text"):
    """Deterministic rendering of a relation system, one equation per line."""
    relations = sorted(relations, key=lambda r: (r.circuit, r.weyl_rep or ()))
    if fmt == "json":
        return [{
            "kind": rel.kind,
            "circuit": list(rel.circuit),
            "weyl": list(rel.weyl_rep) if rel.weyl_rep is not None else None,
            "rhs_degree": list(rel.rhs_degree),
            "lhs": scalar_structured(rel.lhs),
        } for rel in relations]
    lines = []
    for rel in relations:
        lines.append("%s [%s]: %s = %s" % (
            rel.kind, _relation_tag(rel), scalar_str(alg.table, rel.lhs), _rhs_str(alg, rel)))
    return "\n".join(lines) + ("\n" if lines else "")
