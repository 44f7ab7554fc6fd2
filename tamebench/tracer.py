"""Per-layer tracing of tamenorm from outside the package.

`Tracer.install()` replaces the public functions of every layer module with
timing wrappers, wherever the name is looked up: in the defining module, in
every module that imported it with ``from .x import name``, in module-level
dispatch dicts (``cli.DRIVERS``), and on the few classes whose methods are the
hot kernels.  `Tracer.uninstall()` puts every original back.

Two kinds of wrapper share one frame stack, so self time is exact for both:

* span wrappers, for coarse entry points, keep one span per call
  ``(id, parent span id, op id, key, start, end, aggregated child time)``;
  their self time is computed afterwards from the span tree (`self_times`);
* aggregate wrappers, for leaf kernels that run hundreds of thousands of
  times per op (ExactScalar ops, FiniteGroup.mul, matrices, lattice
  containment, form reduction), keep only ``[calls, total_s, self_s]``.

Self time is a wrapped call's duration minus the time its wrapped callees
cover.  An exception that leaves a layer (the caller is in another layer, or
is the harness) counts once in ``<layer>.errors``.
"""

import functools
import importlib
import sys
import time

LAYERS = ("exactnum", "qcomb", "lattice", "hecke", "matrices", "lfactor",
          "mackey", "fingroup", "classfield", "cli")

# Coarse entry points traced as spans; every other wrapped name is aggregated.
SPAN_NAMES = {
    "hecke": {"um_cosets", "reduce_um_to_psi", "assemble_phi", "orbit_stabilizer",
              "a_coefficients", "certify_index_rule", "flag_orbit_check",
              "iwahori_coset_check"},
    "lattice": {"enumerate_X_ge1", "sublattices_up_to_depth", "enumerate_sublattices",
                "verify_inclusion_exclusion", "verify_measure_identity",
                "solve_lambda_from_counts"},
    "lfactor": {"frob_poly_from_satake", "local_l_inverse", "check_central_value",
                "weil_weight_check", "tame_factor", "tame_group_algebra_check"},
    "mackey": {"upsilon_closure", "check_c_axioms", "check_galois_axiom",
               "check_cartesian_axiom", "check_double_coset_dependence",
               "check_coset_expansion", "check_convolution", "completed_pushforward",
               "check_pushforward_well_defined", "check_pushforward_equivariance",
               "check_finite_level_diagram", "catalog_model", "model_from_generators",
               "ordinary_projector", "ordinary_projector_perturbed_route"},
    "classfield": {"ring_class_group", "norm_map", "character_group",
                   "class_number_table", "class_number_formula_sweep",
                   "TowerStep.build"},
    "cli": {"main", "emit", "run_coeffs", "run_verify_incl_excl", "run_mackey_test",
            "run_lfactor", "run_classgroup", "run_tower", "run_norm_relation"},
}

# Methods wrapped on their class (module-level functions are found by scan).
METHODS = {
    "exactnum": {"ExactScalar": ("__mul__", "__rmul__", "__add__", "__radd__",
                                 "__sub__", "lift", "inverse"),
                 "Poly": ("eval",)},
    "classfield": {"TowerStep": ("build",)},
}


def self_times(spans):
    """Self time per span id: duration minus direct child spans minus the
    aggregated calls made directly under it.

    ``spans`` holds tuples ``(id, parent, op, key, start, end, agg_child)``.
    """
    child = {}
    for sid, parent, _op, _key, start, end, _agg in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child.get(sid, 0.0) - agg
            for sid, _parent, _op, _key, start, end, agg in spans}


class Tracer:
    """Holds the wrappers' spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.stats = {}        # aggregated key -> [calls, total_s, self_s]
        self.span_calls = {}   # span key -> calls
        self.errors = {layer: 0 for layer in LAYERS}
        self.counters = {}
        self.op = None         # id of the op in flight, stamped on its spans
        self._stack = []       # [child_s, agg_child_s, spans_inside_s, layer, span id]
        self._patches = []     # callables that undo one patch each
        self._next_id = 0

    # -- counters fed by post-call hooks ----------------------------------

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    # -- the wrapper ------------------------------------------------------

    def wrap(self, fn, layer, key, span, post=None):
        stack = self._stack
        clock = time.perf_counter
        stats = self.stats.setdefault(key, [0, 0.0, 0.0]) if not span else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = None
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, 0.0, 0.0, layer, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if len(stack) < 2 or stack[-2][3] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                parent = stack[-1] if stack else None
                if span:
                    pspan = next((f[4] for f in reversed(stack) if f[4] is not None), None)
                    tracer.spans.append((sid, pspan, tracer.op, key, start, end, frame[1]))
                    tracer.span_calls[key] = tracer.span_calls.get(key, 0) + 1
                    if parent is not None:
                        parent[0] += dt
                        if parent[4] is None:
                            parent[2] += dt
                else:
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - frame[0]
                    if parent is not None:
                        parent[0] += dt
                        parent[1] += dt - frame[2]
                        if parent[4] is None:
                            parent[2] += frame[2]
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, name, value, as_item=False):
        if as_item:
            old = owner[name]
            owner[name] = value
            self._patches.append(lambda: owner.__setitem__(name, old))
        else:
            old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            setattr(owner, name, value)
            self._patches.append(lambda: setattr(owner, name, old))

    def install(self):
        """Wrap every layer's public names; returns self."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"tamenorm.{layer}") for layer in LAYERS}
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tamenorm" or name.startswith("tamenorm."))]
        replaced = {}   # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            spans = SPAN_NAMES.get(layer, set())
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                w = self.wrap(obj, layer, f"{layer}.{name}", name in spans, POST.get(f"{layer}.{name}"))
                replaced[id(obj)] = (obj, w)
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in names:
                    raw = cls.__dict__[name]
                    key = f"{layer}.{cls_name}.{name}"
                    is_static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if is_static else raw
                    w = self.wrap(fn, layer, key, f"{cls_name}.{name}" in spans, POST.get(key))
                    self._set(cls, name, staticmethod(w) if is_static else w)
        # every place a wrapped function is looked up: module globals and dicts
        for mod in package:
            for name, obj in sorted(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        hit = replaced.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._set(obj, k, hit[1], as_item=True)
        self._wrap_group_mul(mods["fingroup"])
        return self

    def _wrap_group_mul(self, fingroup):
        """FiniteGroup.mul is an instance attribute: wrap it as groups are built."""
        cls = fingroup.FiniteGroup
        orig_init = cls.__dict__["__init__"]
        wrapped = {}
        tracer = self

        def __init__(self, elements, mul, *rest, **kw):
            w = wrapped.get(id(mul))
            if w is None or w[0] is not mul:
                w = wrapped[id(mul)] = (mul, tracer.wrap(mul, "fingroup", "fingroup.FiniteGroup.mul", False))
            orig_init(self, elements, w[1], *rest, **kw)

        self._set(cls, "__init__", functools.wraps(orig_init)(__init__))

    def uninstall(self):
        for restore in reversed(self._patches):
            restore()
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def key_totals(self):
        """key -> (calls, self_s) over aggregated keys and span keys alike."""
        out = {k: (v[0], v[2]) for k, v in self.stats.items()}
        self_by_id = self_times(self.spans)
        span_self = {}
        for sid, _p, _op, key, *_ in self.spans:
            span_self[key] = span_self.get(key, 0.0) + self_by_id[sid]
        for key, calls in self.span_calls.items():
            out[key] = (calls, span_self.get(key, 0.0))
        return out

    def dump(self):
        """A JSON-able summary: per-key totals, errors, counters and the spans."""
        return {"keys": {k: list(v) for k, v in self.key_totals().items()},
                "errors": dict(self.errors), "counters": dict(self.counters),
                "spans": [list(s) for s in self.spans]}


# -- post-call hooks feeding the useful-work counters -----------------------

def _post_lift(tracer, args, result):
    tracer.count("exactnum.lift.changed", int(args[1] != args[0].k))


def _post_reduce_um(tracer, args, result):
    _psi, counts, cert = result
    tracer.count("hecke.cosets_reduced", cert.get("total", sum(counts.values())))


def _post_candidates(tracer, args, result):
    tracer.count("lattice.candidates", len(result))


def _post_lattice_cert(tracer, args, result):
    tracer.count("lattice.cases", result["cases_checked"])


def _post_c_axioms(tracer, args, result):
    tracer.count("mackey.c_axioms.samples", args[1])
    tracer.count("mackey.c_axioms.cases", result["cases_checked"])


POST = {
    "exactnum.ExactScalar.lift": _post_lift,
    "hecke.reduce_um_to_psi": _post_reduce_um,
    "lattice.sublattices_up_to_depth": _post_candidates,
    "lattice.verify_inclusion_exclusion": _post_lattice_cert,
    "lattice.verify_measure_identity": _post_lattice_cert,
    "mackey.check_c_axioms": _post_c_axioms,
}


def _sum(keys, pred, idx):
    return sum(v[idx] for k, v in keys.items() if pred(k))


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(dumps):
    """Per-layer metrics from one or more `Tracer.dump()` results, summed."""
    keys, errors, counters = {}, {layer: 0 for layer in LAYERS}, {}
    for d in dumps:
        for k, (calls, self_s) in d["keys"].items():
            c0, s0 = keys.get(k, (0, 0.0))
            keys[k] = (c0 + calls, s0 + self_s)
        for layer, n in d["errors"].items():
            errors[layer] += n
        for k, n in d["counters"].items():
            counters[k] = counters.get(k, 0) + n

    def calls(*names):
        return _sum(keys, lambda k: k in names, 0)

    def self_s(*names):
        return _sum(keys, lambda k: k in names, 1)

    def layer(prefix, idx):
        return _sum(keys, lambda k: k.startswith(prefix), idx)

    es = "exactnum.ExactScalar."
    mul = (es + "__mul__", es + "__rmul__")
    add = (es + "__add__", es + "__radd__", es + "__sub__")
    checks = [k for k in keys if k.startswith("mackey.check_")]
    drivers = [k for k in keys if k.startswith("cli.run_")]
    out = {
        "exactnum.mul.calls": (calls(*mul), "count"),
        "exactnum.mul.self_s": (self_s(*mul), "s"),
        "exactnum.add.calls": (calls(*add), "count"),
        "exactnum.add.self_s": (self_s(*add), "s"),
        "exactnum.lift.calls": (calls(es + "lift"), "count"),
        "exactnum.lift.self_s": (self_s(es + "lift"), "s"),
        "exactnum.lift.changed_frac": (_frac(counters.get("exactnum.lift.changed", 0),
                                             calls(es + "lift")), "ratio"),
        "exactnum.inverse.calls": (calls(es + "inverse"), "count"),
        "exactnum.inverse.self_s": (self_s(es + "inverse"), "s"),
        "exactnum.poly_eval.self_s": (self_s("exactnum.Poly.eval"), "s"),
        "lfactor.calls": (layer("lfactor.", 0), "count"),
        "lfactor.self_s": (layer("lfactor.", 1), "s"),
        "hecke.cosets_reduced": (counters.get("hecke.cosets_reduced", 0), "count"),
        "hecke.reduce_um.self_s": (self_s("hecke.reduce_um_to_psi"), "s"),
        "hecke.orbit.calls": (calls("hecke.orbit_stabilizer"), "count"),
        "hecke.orbit.self_s": (self_s("hecke.orbit_stabilizer"), "s"),
        "matrices.calls": (layer("matrices.", 0), "count"),
        "matrices.self_s": (layer("matrices.", 1), "s"),
        "qcomb.calls": (layer("qcomb.", 0), "count"),
        "qcomb.self_s": (layer("qcomb.", 1), "s"),
        "lattice.contains.calls": (calls("lattice.contains"), "count"),
        "lattice.contains.self_s": (self_s("lattice.contains"), "s"),
        "lattice.relative_position.calls": (calls("lattice.relative_position"), "count"),
        "lattice.relative_position.self_s": (self_s("lattice.relative_position"), "s"),
        "lattice.join.calls": (calls("lattice.join"), "count"),
        "lattice.candidates_useful_frac": (_frac(counters.get("lattice.cases", 0),
                                                 counters.get("lattice.candidates", 0)), "ratio"),
        "classfield.compose.calls": (calls("classfield.compose"), "count"),
        "classfield.compose.self_s": (self_s("classfield.compose"), "s"),
        "classfield.reduce_form.calls": (calls("classfield.reduce_form"), "count"),
        "classfield.character_group.self_s": (self_s("classfield.character_group"), "s"),
        "classfield.sweep.self_s": (self_s("classfield.class_number_formula_sweep"), "s"),
        "mackey.checks.calls": (calls(*checks), "count"),
        "mackey.self_s": (layer("mackey.", 1), "s"),
        "mackey.c_axioms.useful_frac": (_frac(counters.get("mackey.c_axioms.cases", 0),
                                              counters.get("mackey.c_axioms.samples", 0)), "ratio"),
        "fingroup.mul.calls": (calls("fingroup.FiniteGroup.mul"), "count"),
        "fingroup.mul.self_s": (self_s("fingroup.FiniteGroup.mul"), "s"),
        "cli.driver.self_s": (self_s(*drivers), "s"),
        "cli.emit.self_s": (self_s("cli.emit"), "s"),
    }
    for name in LAYERS:
        out[f"{name}.errors"] = (errors[name], "count")
    return out
