"""Spans around the engine's public functions, installed from outside.

Each wrapped function is replaced at every name where it is looked up: the
attribute of every ``coulombkit`` module that refers to it (functions
imported by name into another module are rebound there too), or the class
attribute for methods.  No engine file changes.

A span records its start, its end, its parent span and the job it belongs
to.  Spans stay in memory (up to ``SPAN_CAP`` of them; aggregates are always
kept) and are written out when the run ends.  A layer's self time is its
span's duration minus the time its child spans cover.  Cache hit ratios are
inferred from the keys a wrapper has already seen on the same object, never
from the engine's private caches.
"""

from __future__ import annotations

import json
import sys
import time
import weakref

SPAN_CAP = 50_000

# layer metric name -> [(module, attribute or Class.method), ...]
LAYERS = {
    "exactring.poly_mul": [("exactring", "Poly.__mul__")],
    "exactring.exact_div": [("exactring", "Poly.exact_div")],
    "exactring.scalar_init": [("exactring", "Scalar.__init__")],
    "exactring.scalar_eq": [("exactring", "Scalar.__eq__")],
    "exactring.scalar_mul": [("exactring", "Scalar.__mul__")],
    "exactring.scalar_add": [("exactring", "Scalar.__add__")],
    "exactring.scalar_inv": [("exactring", "Scalar.inv")],
    "exactring.scalar_subs": [("exactring", "Scalar.subs")],
    "exactring.render": [("exactring", "scalar_str"), ("exactring", "scalar_structured")],
    "pochhammer.kernel": [("pochhammer", "poch"), ("pochhammer", "poch_qinv"),
                          ("pochhammer", "hq_ratio"), ("pochhammer", "hq_ratio_inv")],
    "hypertoric.combinatorics": [("hypertoric", "GaugeData.create"),
                                 ("hypertoric", "circuits"), ("hypertoric", "fixed_points"),
                                 ("hypertoric", "eff_cone"), ("hypertoric", "eff_cone_fp"),
                                 ("hypertoric", "enumerate_degrees"),
                                 ("hypertoric", "mixed_polarization"),
                                 ("hypertoric", "separating_circuits")],
    "coulomb.structure_constant": [("coulomb", "CoulombAlgebra.structure_constant")],
    "coulomb.mixed_coefficient": [("coulomb", "CoulombAlgebra.mixed_coefficient")],
    "coulomb.mixed_coefficient_inv": [("coulomb", "CoulombAlgebra.mixed_coefficient_inv")],
    "coulomb.mul": [("coulomb", "CoulombAlgebra.mul")],
    "verma.norm": [("verma", "VermaModule.norm")],
    "verma.act": [("verma", "VermaModule.act")],
    "verma.evaluate": [("verma", "VermaModule.evaluate")],
    "vertex.vertex_fp": [("vertex", "vertex_fp")],
    "vertex.vertex_fp_nonab": [("vertex", "vertex_fp_nonab")],
    "vertex.whittaker_function": [("vertex", "whittaker_function")],
    "vertex.qde_check": [("vertex", "qde_check")],
    "bethe.relations": [("bethe", "dmodule_relations"), ("bethe", "bethe_relations_q1")],
    "bethe.render": [("bethe", "render_bethe_system")],
    "wallcross.checks": [("wallcross", "make_scenario"), ("wallcross", "check_reversal"),
                         ("wallcross", "dmodule_match")],
    "cli.load_model": [("cli", "load_model")],
    "cli.dispatch": [("cli", "dispatch")],
}
JOB = "bench.job"

# cache keys, mirroring how each engine method normalizes its arguments
def _sc_key(alg, c, d, pol=None):
    return (tuple(c), tuple(d), frozenset(range(alg.data.n)) if pol is None else frozenset(pol))


def _degree_key(obj, d):
    return tuple(d)


HIT_KEYS = {
    "coulomb.structure_constant": _sc_key,
    "coulomb.mixed_coefficient": _degree_key,
    "coulomb.mixed_coefficient_inv": _degree_key,
    "verma.norm": _degree_key,
}


class Stats:
    """Aggregates of one phase of a run."""

    def __init__(self, names):
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.total_s = dict.fromkeys(names, 0.0)
        self.hits = dict.fromkeys(HIT_KEYS, 0)
        self.useful_div = 0
        self.terms_out = 0
        self.render_bytes = 0
        self.num_terms_max = 0
        self.atoms_max = 0


class Tracer:
    def __init__(self):
        self.names = list(LAYERS) + [JOB]
        self.enabled = False
        self.stats = Stats(self.names)
        self.stack = []          # frames: [span id, child time]
        self.spans = []          # (id, parent id, layer, job, start, end)
        self.next_id = 1
        self.job = None
        self._seen = {name: weakref.WeakKeyDictionary() for name in HIT_KEYS}
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {name: m for name, m in sys.modules.items()
                if name == "coulombkit" or name.startswith("coulombkit.")}
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                mod = mods["coulombkit." + modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, raw)
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(layer, orig)
                for m in mods.values():
                    for name, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, name, orig))
                            setattr(m, name, wrapped)

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self  # its stats object is swapped per phase, so read it at call time
        perf = time.perf_counter
        seen = self._seen.get(layer)
        key_fn = HIT_KEYS.get(layer)
        if layer == "exactring.poly_mul":
            def extra(args, result):
                tracer.stats.terms_out += len(result.terms)
        elif layer == "exactring.exact_div":
            def extra(args, result):
                if result is not None:
                    tracer.stats.useful_div += 1
        elif layer == "exactring.scalar_init":
            def extra(args, result):
                obj = args[0]
                st = tracer.stats
                nt = len(obj.num.terms)
                if nt > st.num_terms_max:
                    st.num_terms_max = nt
                na = len(obj.atoms)
                if na > st.atoms_max:
                    st.atoms_max = na
        elif layer == "exactring.render":
            def extra(args, result):
                if isinstance(result, str):
                    tracer.stats.render_bytes += len(result)
        else:
            extra = None

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if key_fn is not None:
                obj = args[0]
                keys = seen.get(obj)
                if keys is None:
                    keys = seen[obj] = set()
                key = key_fn(*args, **kwargs)
                if key in keys:
                    tracer.stats.hits[layer] += 1
                else:
                    keys.add(key)
            stack = tracer.stack
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = tracer.stats
                st.calls[layer] += 1
                st.self_s[layer] += dur - frame[1]
                st.total_s[layer] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], parent, layer, tracer.job, t0, t1))
            if extra is not None:
                extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_job(self, name, fn):
        """Run one job as a root span."""
        self.job = name
        return self._wrap(JOB, fn)()

    def new_phase(self) -> Stats:
        """Start fresh aggregates; return the finished ones."""
        done = self.stats
        self.stats = Stats(self.names)
        return done

    def write(self, path: str, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "span_cap": SPAN_CAP,
                       "fields": ["id", "parent", "layer", "job", "start_s", "end_s"],
                       "spans": self.spans}, fh)


def layer_metrics(setup: Stats, setup_s: float, reps: list) -> dict:
    """Per-layer metrics from the traced set-up and traced batch repetitions.

    Counts come from set-up plus the first repetition (every repetition
    starts from fresh algebras, so they repeat exactly).  Times are given as
    shares of the traced time (set-up plus one repetition), median over
    repetitions: a layer a workload does not use has share 0, where a time
    in seconds would read 0.0 on every run.
    """
    from statistics import median

    first = reps[0]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def share(field, layer):
        base = getattr(setup, field)[layer]
        return median([(base + getattr(r, field)[layer]) / (setup_s + r.total_s[JOB])
                       for r in reps])

    for layer in LAYERS:
        calls = setup.calls[layer] + first.calls[layer]
        put(layer + ".calls", calls, "count")
        put(layer + ".self_share", share("self_s", layer), "ratio")
        if layer in HIT_KEYS:
            hits = setup.hits[layer] + first.hits[layer]
            put(layer + ".hit_ratio", hits / calls if calls else 0.0, "ratio")
    put("exactring.scalar_eq.total_share", share("total_s", "exactring.scalar_eq"), "ratio")
    div_calls = setup.calls["exactring.exact_div"] + first.calls["exactring.exact_div"]
    put("exactring.exact_div.useful_ratio",
        (setup.useful_div + first.useful_div) / div_calls if div_calls else 0.0, "ratio")
    put("exactring.poly_mul.terms_out", setup.terms_out + first.terms_out, "count")
    put("exactring.num_terms_max", max(setup.num_terms_max, first.num_terms_max), "count")
    put("exactring.atoms_max", max(setup.atoms_max, first.atoms_max), "count")
    put("exactring.render.bytes", setup.render_bytes + first.render_bytes, "bytes")
    put("bench.job.self_share", share("self_s", JOB), "ratio")
    put("trace.wall_s", median([setup_s + r.total_s[JOB] for r in reps]), "s")
    return out
