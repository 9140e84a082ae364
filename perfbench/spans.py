"""Outside-in span tracing of the qreflect layers.

install() replaces public functions and methods of the package with
wrappers, from outside the package: a module function is replaced in every
qreflect module that holds it (so `from .threedk import k_element` in
tensorops is traced too), a method on its class.  uninstall() puts the
originals back.

Each wrapper records one span: its duration, and its self time, which is
the duration minus the time covered by the spans it caused.  Spans are
folded into per-name totals as they close, grouped by the pass they ran
in, so memory stays bounded even for the millions of coefficient products
a pass makes.  The wrapper's own bookkeeping lands in its parent's self
time; `trace.overhead_ratio` reports the total cost of tracing.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

REFLECTION_FACTORS = 7


class Tracer:
    def __init__(self):
        self.passes: dict[str, dict[str, dict[str, float]]] = {}
        self.stats: dict[str, dict[str, float]] = {}
        # One frame per open span: [name, child seconds, factor ordinal].
        self.stack: list[list] = [["root", 0.0, 0]]
        self._restore: list[tuple[object, str, object]] = []

    def begin_pass(self, name: str) -> None:
        self.stats = self.passes.setdefault(name, {})

    def record(self, name: str, seconds: float, self_seconds: float) -> dict[str, float]:
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        rec["calls"] += 1
        rec["s"] += seconds
        rec["self_s"] += self_seconds
        return rec

    def wrap(self, name: str, fn, observe=None):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                parent[1] += seconds
            rec = self.record(name, seconds, seconds - frame[1])
            if observe is not None:
                observe(self, rec, parent, args, result, seconds, seconds - frame[1])
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, observe=None) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qreflect" or mod_name.startswith("qreflect."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def patch_method(self, cls, attrs: tuple[str, ...], name: str, observe=None) -> None:
        wrapper = self.wrap(name, vars(cls)[attrs[0]], observe)
        for attr in attrs:
            self._restore.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- observers: counts measured where the work happens ------------------------------


def _observe_mul(tracer, rec, parent, args, result, seconds, self_seconds):
    if result is NotImplemented:
        return
    terms = len(result)
    if terms > rec.get("max_terms", 0):
        rec["max_terms"] = terms
    bits = max((abs(c).bit_length() for _, c in result.items()), default=0)
    if bits > rec.get("max_bits", 0):
        rec["max_bits"] = bits


def _observe_apply(tracer, rec, parent, args, result, seconds, self_seconds):
    terms_in = len(args[0].terms)
    terms_out = len(result.terms)
    rec["terms_in"] = rec.get("terms_in", 0) + terms_in
    rec["terms_out"] = rec.get("terms_out", 0) + terms_out
    if parent[0] == "tensorops.verify_reflection":
        ordinal = parent[2]
        parent[2] += 1
        side = "lhs" if ordinal < REFLECTION_FACTORS else "rhs"
        factor = f"tensorops.reflection.{side}.f{ordinal % REFLECTION_FACTORS + 1}"
        frec = tracer.record(factor, seconds, self_seconds)
        frec["terms_out"] = frec.get("terms_out", 0) + terms_out


def _observe_export(tracer, rec, parent, args, result, seconds, self_seconds):
    rec["entries"] = rec.get("entries", 0) + result
    rec["bytes"] = rec.get("bytes", 0) + os.path.getsize(args[0])


def _observe_import(tracer, rec, parent, args, result, seconds, self_seconds):
    rec["entries"] = rec.get("entries", 0) + result


def install(tracer: Tracer) -> None:
    """Wrap every traced public function and method of the package."""
    from qreflect import cache, exactq, multipoly, qfamily, tensorops, threedk, threedr

    laurent, poly, vector = exactq.LaurentQ, multipoly.MultiPolyQ, tensorops.SparseVector
    tracer.patch_method(laurent, ("__mul__", "__rmul__"), "exactq.mul", _observe_mul)
    tracer.patch_method(laurent, ("__add__", "__radd__"), "exactq.add")
    tracer.patch_method(laurent, ("exact_div",), "exactq.exact_div")
    tracer.patch_method(poly, ("__mul__", "__rmul__"), "multipoly.mul")
    tracer.patch_method(poly, ("shift_multi",), "multipoly.shift_multi")
    tracer.patch_method(poly, ("evaluate_at_q_powers",), "multipoly.evaluate")
    tracer.patch_method(vector, ("first_difference",), "tensorops.compare")
    tracer.patch_function(qfamily, "q_polynomial", "qfamily.q_polynomial")
    tracer.patch_function(qfamily, "closed_form_q", "qfamily.closed_form_q")
    tracer.patch_function(threedr, "p_polynomial", "threedr.p_polynomial")
    tracer.patch_function(threedr, "r_element", "threedr.r_element")
    tracer.patch_function(threedk, "k_element", "threedk.k_element")
    tracer.patch_function(threedk, "e_residual", "threedk.e_residual")
    tracer.patch_function(tensorops, "apply_R", "tensorops.apply_R", _observe_apply)
    tracer.patch_function(tensorops, "apply_K", "tensorops.apply_K", _observe_apply)
    tracer.patch_function(tensorops, "verify_reflection", "tensorops.verify_reflection")
    tracer.patch_function(tensorops, "verify_tetrahedron", "tensorops.verify_tetrahedron")
    tracer.patch_function(cache, "export_cache", "cache.export", _observe_export)
    tracer.patch_function(cache, "import_cache", "cache.import", _observe_import)


# -- per-layer metrics ---------------------------------------------------------------

# (metric name, span, field) for the cold pass; the same with a "rerun."
# prefix for the warm pass.
_COLD = [
    ("exactq.mul.calls", "exactq.mul", "calls"),
    ("exactq.mul.self_s", "exactq.mul", "self_s"),
    ("exactq.mul.max_terms", "exactq.mul", "max_terms"),
    ("exactq.mul.max_bits", "exactq.mul", "max_bits"),
    ("exactq.add.calls", "exactq.add", "calls"),
    ("exactq.add.self_s", "exactq.add", "self_s"),
    ("exactq.exact_div.calls", "exactq.exact_div", "calls"),
    ("exactq.exact_div.self_s", "exactq.exact_div", "self_s"),
    ("multipoly.mul.calls", "multipoly.mul", "calls"),
    ("multipoly.mul.self_s", "multipoly.mul", "self_s"),
    ("multipoly.shift_multi.calls", "multipoly.shift_multi", "calls"),
    ("multipoly.shift_multi.self_s", "multipoly.shift_multi", "self_s"),
    ("multipoly.evaluate.calls", "multipoly.evaluate", "calls"),
    ("multipoly.evaluate.self_s", "multipoly.evaluate", "self_s"),
    ("qfamily.q_polynomial.calls", "qfamily.q_polynomial", "calls"),
    ("qfamily.q_polynomial.self_s", "qfamily.q_polynomial", "self_s"),
    ("qfamily.closed_form_q.self_s", "qfamily.closed_form_q", "self_s"),
    ("threedr.p_polynomial.calls", "threedr.p_polynomial", "calls"),
    ("threedr.p_polynomial.self_s", "threedr.p_polynomial", "self_s"),
    ("threedr.r_element.calls", "threedr.r_element", "calls"),
    ("threedr.r_element.self_s", "threedr.r_element", "self_s"),
    ("threedk.k_element.calls", "threedk.k_element", "calls"),
    ("threedk.k_element.self_s", "threedk.k_element", "self_s"),
    ("threedk.e_residual.calls", "threedk.e_residual", "calls"),
    ("threedk.e_residual.self_s", "threedk.e_residual", "self_s"),
    ("tensorops.apply_R.calls", "tensorops.apply_R", "calls"),
    ("tensorops.apply_R.self_s", "tensorops.apply_R", "self_s"),
    ("tensorops.apply_R.terms_in", "tensorops.apply_R", "terms_in"),
    ("tensorops.apply_R.terms_out", "tensorops.apply_R", "terms_out"),
    ("tensorops.apply_K.calls", "tensorops.apply_K", "calls"),
    ("tensorops.apply_K.self_s", "tensorops.apply_K", "self_s"),
    ("tensorops.apply_K.terms_in", "tensorops.apply_K", "terms_in"),
    ("tensorops.apply_K.terms_out", "tensorops.apply_K", "terms_out"),
    ("tensorops.compare.calls", "tensorops.compare", "calls"),
    ("tensorops.compare.self_s", "tensorops.compare", "self_s"),
    ("cache.export.s", "cache.export", "s"),
    ("cache.export.bytes", "cache.export", "bytes"),
    ("cache.export.entries", "cache.export", "entries"),
    ("cache.import.s", "cache.import", "s"),
    ("cache.import.entries", "cache.import", "entries"),
] + [
    (f"tensorops.reflection.{side}.f{n}.{field}", f"tensorops.reflection.{side}.f{n}", field)
    for side in ("lhs", "rhs")
    for n in range(1, REFLECTION_FACTORS + 1)
    for field in ("s", "self_s", "terms_out")
]

_RERUN = [
    ("rerun.exactq.mul.calls", "exactq.mul", "calls"),
    ("rerun.exactq.mul.self_s", "exactq.mul", "self_s"),
    ("rerun.exactq.add.calls", "exactq.add", "calls"),
    ("rerun.exactq.add.self_s", "exactq.add", "self_s"),
    ("rerun.multipoly.evaluate.calls", "multipoly.evaluate", "calls"),
    ("rerun.threedk.k_element.calls", "threedk.k_element", "calls"),
    ("rerun.tensorops.apply_R.calls", "tensorops.apply_R", "calls"),
    ("rerun.tensorops.apply_R.self_s", "tensorops.apply_R", "self_s"),
    ("rerun.tensorops.apply_K.calls", "tensorops.apply_K", "calls"),
    ("rerun.tensorops.apply_K.self_s", "tensorops.apply_K", "self_s"),
] + [
    (f"rerun.tensorops.reflection.{side}.f{n}.s", f"tensorops.reflection.{side}.f{n}", "s")
    for side in ("lhs", "rhs")
    for n in range(1, REFLECTION_FACTORS + 1)
]


def unit(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    return {"s": "s", "self_s": "s", "bytes": "bytes", "max_bits": "bits", "overhead_ratio": "ratio"}.get(
        field, "s" if field.endswith("_s") else "count"
    )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the cold and rerun passes; absent spans read 0."""
    out = {}
    for table, pass_name in ((_COLD, "cold"), (_RERUN, "rerun")):
        stats = tracer.passes.get(pass_name, {})
        for metric, span, field in table:
            out[metric] = stats.get(span, {}).get(field, 0)
    return out
