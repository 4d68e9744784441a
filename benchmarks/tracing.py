"""Tracing wrappers installed from outside reflexa, for the traced run only.

`install()` replaces each traced function with a wrapper in every
`reflexa.*` module namespace that binds it (modules use
`from .linalg import rref`, so patching the defining module alone misses
most calls), and patches the traced methods on their classes.

Every wrapped call is a span: name, start, end, parent span and the
current context (a corpus task or a query).  Self time is a span's
duration minus the time its child spans cover, accumulated when the
span closes.  Spans outside the linear-algebra layer are kept in memory
and written out by `write_spans` (the first MAX_KEPT_SPANS of them;
later ones are counted as dropped); linear algebra runs millions of times
per corpus task, so those spans are folded into per-name totals only.
Matrix construction is counted, not timed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs timed per call; "Class.method" names a method.
LAYERS = {
    "linalg": ("rref", "solve", "solve_left", "kernel_basis", "Matrix.mul"),
    "algebra": ("bound_quiver_algebra", "FiniteDimAlgebra.opposite"),
    "modules": (
        "hom_space",
        "submodule",
        "quotient",
        "kernel",
        "cokernel",
        "projective_cover",
        "is_isomorphic",
        "is_indecomposable",
    ),
    "homology": (
        "min_proj_resolution",
        "evaluation",
        "star_dual",
        "transpose",
        "ext_dims_up_to",
        "ext_regular_module",
        "tor",
        "double_dual",
    ),
    "enumeration": ("enumerate_modules", "enumerate_maps"),
    "refl": (
        "is_reflexive",
        "condition_report",
        "dominant_dimension",
        "certify_quasi_abelian",
        "certify_abelian",
        "serre_exact_structure",
    ),
    "morita": ("end_algebra", "verify_equivalence"),
    "corpus": ("build_algebra",),
    "cli": ("parse_workspace",),
}
FIELD_SPLIT = ("F2", "Fp", "Q")
MAX_KEPT_SPANS = 100_000


def field_bucket(fieldspec) -> str:
    if not fieldspec.is_prime_field:
        return "Q"
    return "F2" if fieldspec.p == 2 else "Fp"


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for layer, funcs in LAYERS.items():
        for fn in funcs:
            base = f"{layer}.{fn}"
            for suffix in FIELD_SPLIT if layer == "linalg" else ("",):
                stem = f"{base}.{suffix}" if suffix else base
                out.append((f"{stem}.calls", "count"))
                out.append((f"{stem}.self_s", "s"))
    out += [
        ("linalg.Matrix.constructed", "count"),
        ("homology.evaluation.repeat_ratio", "ratio"),
        ("enumeration.enumerate_modules.kept", "count"),
        ("enumeration.enumerate_maps.capped", "count"),
        ("refl.certify_quasi_abelian.stage2_checks", "count"),
        ("refl.certify_quasi_abelian.capped", "count"),
        ("refl.certify_abelian.nested_qa_calls", "count"),
    ]
    return out


class Tracer:
    """Span stack plus per-name totals for one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []  # (id, name, start, end, parent id, context)
        self.dropped_spans = 0
        self.context = ""
        self._stack = []  # [span id, name, parent id, start, child seconds]
        self._next_id = 1
        self._seen_eval = set()

    def set_context(self, context: str):
        self.context = context
        self._seen_eval = set()

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def enter(self, name):
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, name, parent, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame, keep):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, parent, start, child = frame
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        if keep:
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((sid, name, start, end, parent, self.context))
            else:
                self.dropped_spans += 1

    def observe(self, name, args, result):
        """Counters read from arguments and results at the layer boundary.

        This runs after the call's span closed.  Its time is tracer work, so
        it is added to the parent span's child seconds: no layer's self time
        includes it.
        """
        t0 = time.perf_counter()
        if name == "homology.evaluation":
            key = _module_key(args[0])
            self.counts["homology.evaluation.repeats"] += key in self._seen_eval
            self._seen_eval.add(key)
        elif name == "enumeration.enumerate_modules":
            self.counts["enumeration.enumerate_modules.kept"] += len(result.modules)
        elif name == "enumeration.enumerate_maps":
            self.counts["enumeration.enumerate_maps.capped"] += not result[1]
        elif name == "refl.certify_quasi_abelian":
            self.counts["refl.certify_quasi_abelian.stage2_checks"] += result.detail.get(
                "stage2_checks", 0
            )
            self.counts["refl.certify_quasi_abelian.capped"] += not result.detail.get(
                "search_exhaustive", True
            )
        if self._stack:
            self._stack[-1][4] += time.perf_counter() - t0

    def layer_totals(self) -> dict:
        """Flat counters for one process; `merge_totals` sums them."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "context"],
                    "dropped": self.dropped_spans,
                    "spans": self.spans,
                },
                fh,
            )


def _module_key(m):
    """A key equal for equal modules (as `Module.__eq__` compares them).

    It calls no hash of the program's own objects: `Matrix` caches its
    hash, and filling that cache would change what later code pays for
    hashing in the traced run.
    """
    return (m.algebra, m.side, m.dims, tuple((a.cols, a.entries) for a in m.act))


TRACER = Tracer()


def _wrap_function(orig, name, bucketed, keep):
    tracer = TRACER
    observed = name in (
        "homology.evaluation",
        "enumeration.enumerate_modules",
        "enumeration.enumerate_maps",
        "refl.certify_quasi_abelian",
    )
    nested = name == "refl.certify_quasi_abelian"
    by_field = {b: f"{name}.{b}" for b in FIELD_SPLIT}

    def wrapper(*args, **kwargs):
        span = by_field[field_bucket(args[0].field)] if bucketed else name
        if nested and tracer.parent_name() == "refl.certify_abelian":
            tracer.counts["refl.certify_abelian.nested_qa_calls"] += 1
        frame = tracer.enter(span)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.leave(frame, keep)
        if observed:
            tracer.observe(name, args, result)
        return result

    wrapper.__wrapped__ = orig
    wrapper.__name__ = getattr(orig, "__name__", name)
    return wrapper


def _wrap_constructor(orig):
    counts = TRACER.counts

    def __init__(self, *args, **kwargs):
        counts["linalg.Matrix.constructed"] += 1
        orig(self, *args, **kwargs)

    __init__.__wrapped__ = orig
    return __init__


_installed = False


def install():
    """Patch every traced name; idempotent."""
    global _installed
    if _installed:
        return
    import reflexa  # noqa: F401  (loads every submodule the package imports)
    import reflexa.cli  # noqa: F401
    import reflexa.corpus  # noqa: F401
    import reflexa.enumeration  # noqa: F401

    namespaces = [m for k, m in sys.modules.items() if k == "reflexa" or k.startswith("reflexa.")]
    for layer, funcs in LAYERS.items():
        home = sys.modules[f"reflexa.{layer}"]
        for fn in funcs:
            name = f"{layer}.{fn}"
            bucketed = layer == "linalg"
            keep = layer != "linalg"
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, _wrap_function(cls.__dict__[meth], name, bucketed, keep))
                continue
            orig = getattr(home, fn)
            wrapper = _wrap_function(orig, name, bucketed, keep)
            for ns in namespaces:
                if ns.__dict__.get(fn) is orig:
                    setattr(ns, fn, wrapper)
    matrix = sys.modules["reflexa.linalg"].Matrix
    matrix.__init__ = _wrap_constructor(matrix.__init__)
    _installed = True


def merge_totals(parts) -> dict:
    total = Counter()
    for part in parts:
        for k, v in part.items():
            total[k] += v
    return dict(total)


def layer_metrics(totals: dict) -> dict:
    """The per-layer metrics of `metric_names` from merged totals."""
    out = {}
    for name, unit in metric_names():
        if name == "homology.evaluation.repeat_ratio":
            calls = totals.get("homology.evaluation.calls", 0)
            value = totals.get("homology.evaluation.repeats", 0) / calls if calls else 0.0
        else:
            value = totals.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
