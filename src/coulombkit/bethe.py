"""Generators of the quantum difference relations and their q = 1 limits.

Relations are emitted as scalar data tagged by the Kahler degree they are
set equal to; quotient-module arithmetic is out of scope.  Every model is a
block model, an abelian one having blocks of size 1: one relation is produced
per (dominant circuit, Weyl element) pair of ``GaugeData``, the virtual
abelian model's ``CoulombAlgebra.relation``, whose virtual rows supply the
Weyl correction through the product itself, under the flavor specialization
the model records.  The degree tag records the per-block totals of the
circuit.  Only the rendering asks whether the model file gives blocks: then
each relation also shows its Weyl element.
"""

from __future__ import annotations

from .coulomb import CoulombAlgebra
from .exactring import Q_HALF, scalar_str, scalar_structured, specialize_q1
from .hypertoric import _Record, circuits


class Relation(_Record):
    """One relation: lhs scalar = Kahler monomial of degree rhs_degree; ``kind``
    is "dmodule" or "bethe_q1".  Unhashable, as a Scalar is."""

    __slots__ = _compared = ("lhs", "rhs_degree", "kind", "circuit", "weyl_rep")
    __hash__ = None

    def __init__(self, lhs, rhs_degree, kind, circuit, weyl_rep):
        self._set(lhs=lhs, rhs_degree=rhs_degree, kind=kind, circuit=circuit,
                  weyl_rep=weyl_rep)


def dmodule_relations(alg: CoulombAlgebra):
    """One relation per dominant circuit c and Weyl element w: the scalar of
    the mixed generators at w.c and -w.c, flavor-specialized, equals the
    Kahler monomial of the per-block totals of c.  With blocks of size 1
    every circuit is dominant and w is the identity alone."""
    out = []
    for circ in circuits(alg.data):
        c = circ.vector
        if not alg.data.is_dominant(c):
            continue
        for w in alg.data.weyl_elements():
            lhs = alg.relation(alg.data.weyl_on_degree(w, c))
            if alg.data.a_specialization:
                lhs = lhs.subs(alg.flavor_map)
            out.append(Relation(lhs=lhs, rhs_degree=alg.data.block_sums(c),
                                kind="dmodule", circuit=c, weyl_rep=w))
    return out


def bethe_relations_q1(alg: CoulombAlgebra):
    """The q = 1 specialization of the difference relations."""
    out = []
    for rel in dmodule_relations(alg):
        lhs = specialize_q1(rel.lhs, alg.table)
        if lhs.uses((Q_HALF,)):
            raise AssertionError("q variable survived the q=1 specialization")
        out.append(Relation(lhs=lhs, rhs_degree=rel.rhs_degree, kind="bethe_q1",
                            circuit=rel.circuit, weyl_rep=rel.weyl_rep))
    return out


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _rhs_str(alg: CoulombAlgebra, rel: Relation) -> str:
    """The Kahler monomial of the per-block totals, each block written with
    the Q variable of its first coordinate."""
    table = alg.table
    slices = alg.data.block_slices()
    return table.packed_str(table.packed({table.qvar(slices[b][0]): 2 * cb
                                          for b, cb in enumerate(rel.rhs_degree) if cb}))


def _relation_tag(alg: CoulombAlgebra, rel: Relation) -> str:
    tag = "c=(%s)" % ",".join(str(x) for x in rel.circuit)
    if alg.data.blocks:
        tag += " w=(%s)" % ",".join(str(x + 1) for x in rel.weyl_rep)
    return tag


def render_bethe_system(alg: CoulombAlgebra, relations, fmt: str = "text"):
    """Deterministic rendering of a relation system, one equation per line."""
    relations = sorted(relations, key=lambda r: (r.circuit, r.weyl_rep))
    if fmt == "json":
        return [{
            "kind": rel.kind,
            "circuit": list(rel.circuit),
            "weyl": list(rel.weyl_rep) if alg.data.blocks else None,
            "rhs_degree": list(rel.rhs_degree),
            "lhs": scalar_structured(rel.lhs),
        } for rel in relations]
    lines = []
    for rel in relations:
        lines.append("%s [%s]: %s = %s" % (
            rel.kind, _relation_tag(alg, rel), scalar_str(alg.table, rel.lhs), _rhs_str(alg, rel)))
    return "\n".join(lines) + ("\n" if lines else "")
