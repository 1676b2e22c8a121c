"""The model records and what importing the package loads.

The six records (``GaugeData``, ``Circuit``, ``FixedPoint``, ``Cone``,
``Relation`` and ``WallCrossScenario``) are built by keyword, compare on a
fixed set of fields, hash alike when equal (or refuse to hash) and refuse
assignment to a frozen field.  Importing the package loads none of
``dataclasses``, ``inspect`` and ``argparse``; the CLI imports ``argparse``
when it builds its parser.
"""

import os
import subprocess
import sys

import pytest

from coulombkit import (Circuit, Cone, FixedPoint, GaugeData, ModelError, Relation, Scalar,
                        VariableTable, WallCrossScenario)
from coulombkit.coulomb import CoulombAlgebra

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

CHI = ((1, 0), (0, 1), (-1, -1))


def _point(**change):
    fields = dict(support=(0, 1), plus=frozenset({0}), minus=frozenset({1}), coeffs=(2, -1),
                  restriction={0: (0, 1, 0, 0, 0, 0, 0)}, rays=((1, 0), (0, -1)))
    fields.update(change)
    return FixedPoint(**fields)


def _relation(**change):
    fields = dict(lhs=Scalar.one(7), rhs_degree=(1, 0), kind="dmodule", circuit=(1, 0),
                  weyl_rep=(0, 1))
    fields.update(change)
    return Relation(**fields)


def test_keyword_construction_reads_back_every_field():
    table = VariableTable(3, 2)
    data = GaugeData(n=3, k=2, chi=CHI, theta=(2, 1), blocks=None,
                     a_specialization={"a1": "a2"}, cofactors={(0,): [0, 1]}, walls=(),
                     table=table)
    assert (data.n, data.k, data.chi, data.theta, data.blocks) == (3, 2, CHI, (2, 1), None)
    assert (data.a_specialization, data.cofactors, data.walls) == ({"a1": "a2"},
                                                                   {(0,): [0, 1]}, ())
    assert data.table is table
    bare = GaugeData(n=3, k=2, chi=CHI, theta=(2, 1))
    assert (bare.blocks, bare.a_specialization, bare.cofactors, bare.walls,
            bare.table) == (None,) * 5
    circ = Circuit(vector=(1, -1), wall_rows=frozenset({2}))
    assert (circ.vector, circ.wall_rows) == ((1, -1), frozenset({2}))
    p = _point()
    assert (p.support, p.plus, p.minus, p.coeffs, p.rays) == (
        (0, 1), frozenset({0}), frozenset({1}), (2, -1), ((1, 0), (0, -1)))
    assert FixedPoint(support=(0,), plus=frozenset({0}), minus=frozenset(), coeffs=(1,),
                      restriction={}).rays == ()
    cone = Cone(generators=((1, 0), (0, 1)), facet_normals=((0, 1), (1, 0)))
    assert (cone.generators, cone.facet_normals) == (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    rel = _relation()
    assert (rel.lhs, rel.rhs_degree, rel.kind, rel.circuit, rel.weyl_rep) == (
        Scalar.one(7), (1, 0), "dmodule", (1, 0), (0, 1))


def test_cone_refuses_disagreeing_descriptions():
    with pytest.raises(ModelError, match="cone descriptions disagree on generator"):
        Cone(generators=((1, 0), (-1, 0)), facet_normals=((1, 0),))


def test_gauge_data_compares_the_model_and_ignores_what_create_derives(a2):
    same = GaugeData(n=a2.n, k=a2.k, chi=a2.chi, theta=a2.theta, blocks=a2.blocks,
                     a_specialization={"a1": "a2"}, cofactors={}, walls=(),
                     table=VariableTable(a2.n, a2.k))
    assert same.table is not a2.table
    assert same == a2 and hash(same) == hash(a2)
    assert {a2: "a2"}[same] == "a2"
    for change in ({"theta": (1, 2)}, {"chi": CHI[::-1]}, {"blocks": (2,)},
                   {"n": 4}, {"k": 3}):
        fields = dict(n=a2.n, k=a2.k, chi=a2.chi, theta=a2.theta, blocks=a2.blocks)
        fields.update(change)
        assert GaugeData(**fields) != a2


def test_fixed_point_ignores_its_restriction_only():
    p = _point()
    other = _point(restriction={0: (9, 9, 9, 9, 9, 9, 9)})
    assert p == other and hash(p) == hash(other)
    assert len({p: 1, other: 2}) == 1
    for change in ({"support": (0, 2)}, {"plus": frozenset()}, {"minus": frozenset()},
                   {"coeffs": (1, -1)}, {"rays": ()}):
        assert _point(**change) != p


def test_circuit_and_cone_compare_every_field():
    circ = Circuit(vector=(1, -1), wall_rows=frozenset({2}))
    twin = Circuit(vector=(1, -1), wall_rows=frozenset({2}))
    assert circ == twin and hash(circ) == hash(twin) and len({circ: 0, twin: 1}) == 1
    assert circ != Circuit(vector=(1, -1), wall_rows=frozenset())
    assert circ != Circuit(vector=(-1, 1), wall_rows=frozenset({2}))
    cone = Cone(generators=((1, 0), (0, 1)), facet_normals=((0, 1), (1, 0)))
    twin = Cone(generators=((1, 0), (0, 1)), facet_normals=((0, 1), (1, 0)))
    assert cone == twin and hash(cone) == hash(twin) and len({cone: 0, twin: 1}) == 1
    assert cone != Cone(generators=((1, 0),), facet_normals=((0, 1), (1, 0)))
    assert cone != Cone(generators=((1, 0), (0, 1)), facet_normals=((1, 0), (0, 1)))
    # records of different classes with equal fields are not equal
    assert Circuit(vector=((1, 0),), wall_rows=((0, 1),)) != Cone(generators=((1, 0),),
                                                                   facet_normals=((0, 1),))


def test_relation_compares_every_field_and_is_unhashable():
    rel = _relation()
    assert rel == _relation()
    for change in ({"lhs": Scalar.one(7) + Scalar.one(7)}, {"rhs_degree": (0, 1)},
                   {"kind": "bethe_q1"}, {"circuit": (0, 1)}, {"weyl_rep": (1, 0)}):
        assert _relation(**change) != rel
    with pytest.raises(TypeError):
        hash(rel)


def test_wallcross_scenario_compares_every_field_and_is_unhashable(tp1):
    alg, alg2 = CoulombAlgebra(tp1), CoulombAlgebra(tp1)
    scn = WallCrossScenario(algebra=alg, algebra2=alg2, reversing=(), kept=((1,),))
    assert (scn.algebra, scn.algebra2, scn.reversing, scn.kept) == (alg, alg2, (), ((1,),))
    assert scn == WallCrossScenario(algebra=alg, algebra2=alg2, reversing=(), kept=((1,),))
    assert scn != WallCrossScenario(algebra=alg, algebra2=alg2, reversing=((1,),), kept=())
    with pytest.raises(TypeError):
        hash(scn)


def test_frozen_records_refuse_assignment(a2):
    """``WallCrossScenario`` is left out: it is read-only now but was a mutable
    record before, and this file checks what both kinds of record share."""
    records = [a2, a2.walls[0], a2.points[0], a2.cone, _relation()]
    for record, name in zip(records, ["theta", "vector", "restriction", "generators", "kind"]):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert a2.theta == (2, 1)


def test_gauge_data_builds_points_and_cone_once():
    data = GaugeData.create(CHI, (2, 1))
    assert "points" not in vars(data) and "cone" not in vars(data)
    points, cone = data.points, data.cone
    assert vars(data)["points"] is points and vars(data)["cone"] is cone
    assert data.points is points and data.cone is cone
    assert len(points) == 3 and cone.contains((1, 0))


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(ROOT, "src")),
               COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


IMPORT_FOOTPRINT = """
import sys
heavy = {"dataclasses", "inspect", "argparse"}
for name in ("coulombkit", "coulombkit.cli"):
    before = set(sys.modules)
    __import__(name)
    print(name, sorted(heavy & (set(sys.modules) - before)))
"""


def test_importing_the_package_loads_no_dataclasses_inspect_or_argparse():
    assert _fresh_interpreter(IMPORT_FOOTPRINT).splitlines() == [
        "coulombkit []", "coulombkit.cli []"]


def test_help_in_a_fresh_interpreter_matches_a_parser_built_here(monkeypatch):
    from coulombkit.cli import build_parser
    monkeypatch.setenv("COLUMNS", "80")
    code = ("import sys\nfrom coulombkit.cli import main\ncode = main(['--help'])\n"
            "print('exit', code, 'argparse' in sys.modules)")
    assert _fresh_interpreter(code) == (build_parser.__wrapped__().format_help()
                                        + "exit 0 True\n")
