"""The three workloads: their set-up, their seeded jobs and each job's check.

A job is what one researcher's request does: a library call or a CLI
command on one model, returning the text a user would see.  Every job
builds its own ``CoulombAlgebra``, so every repetition starts from cold
caches as a fresh command would.  The seed picks the descendent insertions,
the associativity triples and the generator words, and the evaluation point
of the checks; it never changes how many inputs there are or how large they
are (triples and words are drawn at fixed Pochhammer lengths).

Workloads, and why each was chosen:

* ``closed-series``: ``vertex_fp`` over a ladder of abelian models and
  orders, plus the block model tgr(2,4) through ``vertex_fp_nonab``, each
  series rendered as the ``vertex`` command prints it.  Construction only:
  Pochhammer kernels, ``Scalar`` multiply/normalise, ``Poly`` expansion,
  substitution and rendering; no ``Scalar.__eq__``, no ``inv``, no module
  code.  Its top rung (TP^4 at order 3) carries the exponential growth.
* ``pairing-check``: the flagship identity ``vertex_fp == whittaker_function``
  at every fixed point of tp1, TP^2 and a2 (top rung: a2 at order 2).
  Module code (``verma``) and the algebra's caches under many repeated
  keys, ``Scalar.inv`` and the trial division in ``Scalar.__init__``; the
  closing equality adds some ``Scalar.__eq__``.
* ``algebra-identities``: deciding identities and emitting relation
  systems, half through the CLI's ``dispatch``.  Decide-heavy
  (``Scalar.__eq__`` cross-multiplication), ``coulomb.mul`` with mostly fresh
  keys, the bethe renderer, wall-crossing and circuit combinatorics; no
  ``verma`` code.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from fractions import Fraction

import coulombkit
from coulombkit import cli, exactring, hypertoric, vertex
from coulombkit.coulomb import CoulombAlgebra
from coulombkit.exactring import Poly, Scalar
from coulombkit.pochhammer import q_shifted
from coulombkit.vertex import Descendent

import oracle

WORKLOAD_MODELS = {
    "closed-series": ["tp1", "tp2", "tp3", "tp4", "a2", "tgr24"],
    "pairing-check": ["tp1", "tp2", "a2"],
    "algebra-identities": ["tp1", "tp2", "tp3", "a2", "sqed11", "tgr24", "tgr25", "tgr34"],
}


class CheckFailed(Exception):
    """A job's output is wrong."""


class Model:
    """A loaded model and the combinatorics computed for it at set-up."""

    def __init__(self, name, path, data, points, circuits):
        self.name = name
        self.path = path
        self.data = data
        self.points = points
        self.circuits = circuits
        self.layout = oracle.Layout(data.n, data.k)

    def point(self, support):
        for p in self.points:
            if p.support == tuple(sorted(support)):
                return p
        raise KeyError(support)


def setup(workload: str, paths: dict) -> dict:
    """Load the workload's models and compute their fixed points, circuits and cones."""
    models = {}
    for name in WORKLOAD_MODELS[workload]:
        data = cli.load_model(paths[name])
        points = hypertoric.fixed_points(data)
        circs = hypertoric.circuits(data)
        hypertoric.eff_cone(data)
        for p in points:
            hypertoric.eff_cone_fp(data, p)
        models[name] = Model(name, paths[name], data, points, circs)
    return models


class Job:
    """One request: ``run()`` returns (user-visible text, payload for the check)."""

    def __init__(self, name, run, check, top=False):
        self.name = name
        self.run = run
        self.check = check
        self.top = top


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _nonzero(rng, lo=-3, hi=3):
    return rng.choice([c for c in range(lo, hi + 1) if c])


def seeded_descendent(rng, layout):
    """c1*a_i*s_j + c2*h: the shape of the acceptance descendent a1*s1 - h."""
    i = rng.randrange(layout.n)
    j = rng.randrange(layout.k)
    c1, c2 = _nonzero(rng), _nonzero(rng)
    terms = [(Fraction(c1), layout.mono({layout.a(i): 1, layout.s(j): 1})),
             (Fraction(c2), layout.mono({oracle.H_HALF: 2}))]
    text = "%d*a%d*s%d %s %d*h" % (c1, i + 1, j + 1, "-" if c2 < 0 else "+", abs(c2))
    return terms, text


def acceptance_descendents(layout):
    one = [(Fraction(1), layout.mono({}))]
    s1 = [(Fraction(1), layout.mono({layout.s(0): 1}))]
    a1s1_h = [(Fraction(1), layout.mono({layout.a(0): 1, layout.s(0): 1})),
              (Fraction(-1), layout.mono({oracle.H_HALF: 2}))]
    return [(one, "1"), (s1, "s1"), (a1s1_h, "a1*s1 - h")]


def to_descendent(terms, width):
    return Descendent(Poly.from_terms(width, [(m, c) for c, m in terms]))


def _length(chi, x, y):
    """Total Pochhammer length of the structure constant gamma(x, y)."""
    total = 0
    for row in chi:
        a, b = oracle.pair(row, x), oracle.pair(row, y)
        if a * b < 0:
            total += min(abs(a), abs(b))
    return total


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def seeded_triple(rng, chi, k, size, span=4):
    """A triple (c, d, e) whose two bracketings have total kernel length ``size``."""
    for _ in range(100_000):
        c, d, e = (tuple(rng.randint(-span, span) for _ in range(k)) for _ in range(3))
        if (_length(chi, c, d) + _length(chi, _add(c, d), e)
                + _length(chi, d, e) + _length(chi, c, _add(d, e))) == size:
            return c, d, e
    raise ValueError("no triple of kernel length %d" % size)


def seeded_word(rng, chi, k, size, span=4):
    """Degrees of a word r[c] r[d] r[e] whose left-to-right product has length ``size``."""
    for _ in range(100_000):
        c, d, e = (tuple(rng.randint(-span, span) for _ in range(k)) for _ in range(3))
        if _length(chi, c, d) + _length(chi, _add(c, d), e) == size:
            return c, d, e
    raise ValueError("no word of kernel length %d" % size)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def render_series(alg, series) -> str:
    """The series exactly as the ``vertex`` command prints it."""
    lines = ["order %d" % series.order]
    for d, f in sorted(series.coeffs.items()):
        lines.append("Q^(%s): %s" % (",".join(str(x) for x in d),
                                     exactring.scalar_str(alg.table, f)))
    return "\n".join(lines) + "\n"


def run_cli(argv):
    """A CLI command through ``dispatch``, capturing what it prints."""
    args = cli.build_parser().parse_args(argv)
    buf = io.StringIO()
    code = cli.dispatch(args, out=buf)
    return buf.getvalue(), code


def _value(ev, scalar) -> Fraction:
    return ev.structured(exactring.scalar_structured(scalar))


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _check_exit(code, want=0):
    _expect(code == want, "exit code %r, expected %r" % (code, want))


# ---------------------------------------------------------------------------
# closed-series
# ---------------------------------------------------------------------------

CLOSED_RUNGS = [  # (model, order, points: None = point 0, "all", or supports)
    ("tp1", 2, None), ("tp1", 4, None), ("tp1", 6, None),
    ("tp2", 2, None), ("tp2", 4, None),
    ("tp3", 3, None),
    ("a2", 4, "all"),
    ("tgr24", 1, [(0, 5), (1, 4)]),
    ("tp4", 3, None),
]


def _closed_job(model, order, points, tau, ev, top):
    terms, text = tau
    nonab = model.data.blocks is not None

    def run():
        alg = CoulombAlgebra(model.data)
        desc = to_descendent(terms, alg.table.width)
        fn = vertex.vertex_fp_nonab if nonab else vertex.vertex_fp
        results = [(p, fn(alg, p, desc, order)) for p in points]
        return "".join(render_series(alg, s) for _, s in results), results

    def check(results, outputs):
        data, layout = model.data, model.layout
        roots = []
        if nonab:
            for a, b in data.block_slices():
                roots += [(u, v) for u in range(a, b) for v in range(a, b) if u != v]
        degrees = hypertoric.enumerate_degrees(hypertoric.eff_cone(data), data.theta, order)
        for p, series in results:
            images = oracle.point_images(layout, p.restriction,
                                         data.a_specialization if nonab else None)
            want = {}
            for d in degrees:
                key = tuple(sum(d[a:b]) for a, b in data.block_slices()) if nonab else d
                want[key] = want.get(key, 0) + oracle.vertex_coefficient(
                    ev, layout, data.chi, images, d, terms, roots)
            want = {d: v for d, v in want.items() if v != 0}
            _expect(set(series.coeffs) == set(want),
                    "%s: degrees %s, expected %s" % (p.label(), sorted(series.coeffs), sorted(want)))
            for d, f in series.coeffs.items():
                _expect(_value(ev, f) == want[d],
                        "%s: coefficient of Q^%r differs from the closed product" % (p.label(), d))

    label = "%s/o%d/%s" % (model.name, order, text.replace(" ", ""))
    return Job("closed-series:" + label, run, check, top)


def closed_series(models, rng, ev_for):
    jobs = []
    for name, order, which in CLOSED_RUNGS:
        model = models[name]
        if which is None:
            points = [model.points[0]]
        elif which == "all":
            points = list(model.points)
        else:
            points = [model.point(s) for s in which]
        tau = seeded_descendent(rng, model.layout)
        jobs.append(_closed_job(model, order, points, tau, ev_for(model),
                                top=(name, order) == ("tp4", 3)))
    return jobs


# ---------------------------------------------------------------------------
# pairing-check
# ---------------------------------------------------------------------------

# tp1 at order 3 (about 3 s) is left out: one job that long repeats too few
# times in a run for a steady median on a shared machine.
PAIRING_RUNGS = [("tp1", 1), ("tp1", 2), ("tp2", 1), ("a2", 1), ("a2", 2)]


def _pairing_job(model, order, taus, ev, top):
    def run():
        alg = CoulombAlgebra(model.data)
        lines, results = [], []
        for p in model.points:
            for terms, text in taus:
                desc = to_descendent(terms, alg.table.width)
                v = vertex.vertex_fp(alg, p, desc, order)
                w = vertex.whittaker_function(alg, p, desc, order)
                ok = v == w
                lines.append("%s %s tau=%s: %s\n" % (model.name, p.label(), text,
                                                      "PASS" if ok else "FAIL"))
                results.append((p, text, ok, v, w))
        return "".join(lines), results

    def check(results, outputs):
        for p, text, ok, v, w in results:
            where = "%s tau=%s" % (p.label(), text)
            _expect(ok, "%s: closed formula and module pairing differ" % where)
            for d in set(v.coeffs) | set(w.coeffs):
                a = _value(ev, v.coeffs[d]) if d in v.coeffs else 0
                b = _value(ev, w.coeffs[d]) if d in w.coeffs else 0
                _expect(a == b, "%s: the two sides differ at the check point in Q^%r" % (where, d))

    return Job("pairing-check:%s/o%d" % (model.name, order), run, check, top)


def pairing_check(models, rng, ev_for):
    jobs = []
    for name, order in PAIRING_RUNGS:
        model = models[name]
        taus = acceptance_descendents(model.layout) + [seeded_descendent(rng, model.layout)]
        jobs.append(_pairing_job(model, order, taus, ev_for(model),
                                 top=(name, order) == ("a2", 2)))
    return jobs


# ---------------------------------------------------------------------------
# algebra-identities
# ---------------------------------------------------------------------------

# total kernel length of each seeded associativity triple, per model
ASSOC_SIZES = {"tp1": [8] * 10 + [12] * 10, "a2": [12] * 40}
WORD_SIZES = [6, 8, 10, 12]
SC_CASES = {"tp1": (1, 2, 3), "tp2": (1, 2, 3), "tp3": (1, 2)}
BETHE_MODELS = ["tgr24", "tgr25", "tgr34"]
GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tests", "data", "bethe_tgr24_golden.txt")


def _assoc_job(model, triples, ev, top):
    def run():
        alg = CoulombAlgebra(model.data)
        lines, results = [], []
        for c, d, e in triples:
            a, b, cc = alg.r(c), alg.r(d), alg.r(e)
            lhs = alg.mul(alg.mul(a, b), cc)
            rhs = alg.mul(a, alg.mul(b, cc))
            ok = lhs == rhs
            lines.append("(r%s r%s) r%s == r%s (r%s r%s): %s\n"
                         % (list(c), list(d), list(e), list(c), list(d), list(e),
                            "PASS" if ok else "FAIL"))
            results.append((c, d, e, ok, lhs, rhs))
        return "".join(lines), results

    def check(results, outputs):
        layout, chi = model.layout, model.data.chi
        for c, d, e, ok, lhs, rhs in results:
            where = "triple %r" % ((c, d, e),)
            _expect(ok, "%s: associativity not decided true" % where)
            total = _add(_add(c, d), e)
            want_l = (oracle.structure_constant(ev, layout, chi, c, d)
                      * oracle.structure_constant(ev, layout, chi, _add(c, d), e))
            want_r = (oracle.structure_constant(ev, layout, chi, d, e,
                                                s_shift=tuple(-x for x in c))
                      * oracle.structure_constant(ev, layout, chi, c, _add(d, e)))
            _expect(want_l == want_r, "%s: reference bracketings disagree" % where)
            for side, elem in (("left", lhs), ("right", rhs)):
                _expect(set(elem.terms) == {total}, "%s: %s side has degrees %s"
                        % (where, side, sorted(elem.terms)))
                _expect(_value(ev, elem.terms[total]) == want_l,
                        "%s: %s side differs from the structure constants" % (where, side))

    return Job("algebra-identities:assoc/%s" % model.name, run, check, top)


def _sc_job(model, ds, ev):
    def run():
        alg = CoulombAlgebra(model.data)
        t = alg.table
        w = t.width
        h = t.mono({oracle.H_HALF: 2})
        lines, results = [], []
        for d in ds:
            got = alg.structure_constant((-d,), (d,))
            expected = Scalar.one(w)
            for i in range(model.data.n):
                x = alg.x_mono(i)
                expected = expected * coulombkit.sign_kernel(-d, w) \
                    * coulombkit.poch(q_shifted(x, 1), d) \
                    / coulombkit.poch(exactring.mono_mul(h, x), d)
            ok = got == expected
            lines.append("%s gamma(%d,%d): %s\n" % (model.name, -d, d, "PASS" if ok else "FAIL"))
            results.append((d, ok, got))
        return "".join(lines), results

    def check(results, outputs):
        for d, ok, got in results:
            _expect(ok, "gamma(%d,%d) closed form not decided true" % (-d, d))
            want = oracle.structure_constant(ev, model.layout, model.data.chi, (-d,), (d,))
            _expect(_value(ev, got) == want, "gamma(%d,%d) differs from the reference" % (-d, d))

    return Job("algebra-identities:sc/%s" % model.name, run, check)


def _cli_job(name, argv, check_text):
    def run():
        text, code = run_cli(argv)
        return text, (text, code)

    def check(payload, outputs):
        text, code = payload
        _check_exit(code)
        check_text(text, outputs)

    return Job("algebra-identities:" + name, run, check)


def _bethe_check(model, q1, ev):
    def check(text, outputs):
        lines = text.splitlines()
        _expect(len(lines) == math.factorial(model.data.k),
                "%d relations, expected %d" % (len(lines), math.factorial(model.data.k)))
        if model.name == "tgr24" and q1:
            with open(GOLDEN) as fh:
                _expect(text == fh.read(), "bethe --q1 output differs from %s" % GOLDEN)
        if q1:
            # the q = 1 system is the q -> 1 limit of the difference system
            qtext = outputs["algebra-identities:bethe/%s" % model.name][0]
            ev1 = ev.with_q_half(1)
            for qline, line in zip(qtext.splitlines(), lines):
                _expect(qline.split("]:")[0].replace("dmodule", "bethe_q1")
                        == line.split("]:")[0], "relation tags differ: %r" % line)
                _expect(oracle.bethe_line_value(ev1, model.layout, qline)
                        == oracle.bethe_line_value(ev1, model.layout, line),
                        "q = 1 limit differs for %r" % line.split("]:")[0])
    return check


def _mul_check(model, c, d, e, ev):
    def check(text, outputs):
        items = json.loads(text)
        total = _add(_add(c, d), e)
        _expect([it["degree"] for it in items] == [list(total)],
                "degrees %s, expected %s" % ([it["degree"] for it in items], list(total)))
        chi = model.data.chi
        want = (oracle.structure_constant(ev, model.layout, chi, c, d)
                * oracle.structure_constant(ev, model.layout, chi, _add(c, d), e))
        _expect(ev.structured(items[0]["value"]) == want,
                "product differs from the structure constants")
    return check


def _pass_lines(want_lines):
    def check(text, outputs):
        lines = text.splitlines()
        _expect(len(lines) == want_lines and all("PASS" in ln for ln in lines),
                "expected %d PASS lines, got %r" % (want_lines, text))
    return check


def algebra_identities(models, rng, ev_for):
    jobs = []
    for name in ("tp1", "a2"):
        model = models[name]
        triples = [seeded_triple(rng, model.data.chi, model.data.k, size)
                   for size in ASSOC_SIZES[name]]
        jobs.append(_assoc_job(model, triples, ev_for(model), top=name == "a2"))
    for name, ds in SC_CASES.items():
        jobs.append(_sc_job(models[name], ds, ev_for(models[name])))
    for name in BETHE_MODELS:
        model = models[name]
        for q1 in (False, True):
            argv = ["bethe", model.path] + (["--q1"] if q1 else [])
            jobs.append(_cli_job("bethe%s/%s" % ("-q1" if q1 else "", name), argv,
                                 _bethe_check(model, q1, ev_for(model))))
    for name, theta2, nchecks in (("a2", "1,2", 3), ("sqed11", "-1", 1)):
        jobs.append(_cli_job("wallcross/%s" % name,
                             ["wallcross", models[name].path, "--theta2", theta2],
                             _pass_lines(nchecks)))
    a2 = models["a2"]
    for idx in range(len(a2.circuits)):
        jobs.append(_cli_job("qde-check/a2/c%d" % idx,
                             ["qde-check", a2.path, "--circuit", str(idx), "--order", "3"],
                             _pass_lines(len(a2.points))))
    for name in ("tp1", "tp2"):
        jobs.append(_cli_job("qde-check/%s/c0" % name,
                             ["qde-check", models[name].path, "--circuit", "0", "--order", "3"],
                             _pass_lines(len(models[name].points))))
    for i, size in enumerate(WORD_SIZES):
        c, d, e = seeded_word(rng, a2.data.chi, a2.data.k, size)
        word = " ".join("r[%s]" % ",".join(str(x) for x in g) for g in (c, d, e))
        jobs.append(_cli_job("mul/a2/w%d" % i, ["mul", a2.path, word, "--json"],
                             _mul_check(a2, c, d, e, ev_for(a2))))
    return jobs


WORKLOAD_JOBS = {
    "closed-series": closed_series,
    "pairing-check": pairing_check,
    "algebra-identities": algebra_identities,
}


def build(workload: str, models: dict, seed: int):
    """The workload's jobs for this seed, in run order."""
    rng = random.Random("perfbench:%s:%d" % (workload, seed))
    point_rng = random.Random("perfbench-point:%s:%d" % (workload, seed))
    evaluators = {}

    def ev_for(model):
        if model.name not in evaluators:
            evaluators[model.name] = oracle.Evaluator(point_rng, model.layout.width)
        return evaluators[model.name]

    return WORKLOAD_JOBS[workload](models, rng, ev_for)
