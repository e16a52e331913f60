"""In-memory span tracer that wraps sincsum's layer functions from outside.

The benchmark never edits the library: ``install`` replaces each traced
function with a wrapper in every ``sincsum`` module that holds a reference
to it (so ``from .core import power_sum`` in another module is traced too),
wraps ``EvalPoint`` construction, and counts ``Interval`` constructions.
Internal calls of the pure kernel module go through module globals, so
``zeta_em`` inside ``power_sum_zeta`` gets its own span on the pure
backend; a compiled backend calls it in C, out of reach of the wrapper.

A span is (name, parent, start, end) in nanoseconds, stored in flat arrays.
Self time is a span's duration minus the durations of its direct children.
"""

import importlib
import json
import sys
import time
from array import array

#: Traced functions, by module.  Span names drop the ``sincsum.`` prefix.
LAYERS = (
    (
        "sincsum.backend",
        ("power_sum_fixed", "power_sum_zeta", "power_sum_deriv", "sinc_sq", "zeta_em"),
    ),
    ("sincsum.core", ("select_m_terms", "power_sum")),
    ("sincsum.evaluate", ("evaluate",)),
    ("sincsum.specfun", ("power_sum_zeta", "bernoulli")),
    ("sincsum.exactpoly", ("poly_f", "poly_step", "poly_eval")),
    ("sincsum.constants", ("exact_min_constant",)),
    ("sincsum.verify.certify", ("certify",)),
    ("sincsum.verify.corpus", ("corpus",)),
    (
        "sincsum.verify.engine",
        ("verify_global_min", "majorization_property", "proof_chain"),
    ),
    ("sincsum.verify.suite", ("run_suite",)),
    ("sincsum.manifest", ("load_default_manifest", "manifest_check")),
    ("sincsum.cli", ("main",)),
)

#: Classes whose construction is a span.
CLASS_SPANS = (("sincsum.core", "EvalPoint"),)

#: Classes whose constructions are only counted: too many for spans.
COUNTED_CLASSES = (("sincsum.verify.interval", "Interval", "verify.interval.intervals"),)


#: Work counts read off a traced function's return value: span name ->
#: function of the result giving (counter, increment) pairs.
RESULT_COUNTERS = {
    "core.select_m_terms": lambda m: (("core.m_terms_sum", m),),
    "evaluate.evaluate": lambda res: (("evaluate.routes", len(res.methods)),),
    "verify.certify.certify": lambda res: (
        ("verify.certify.certify.boxes", res.boxes_visited),
        ("verify.certify.certify.undecided", int(res.status == "inconclusive")),
    ),
    "verify.engine.verify_global_min": lambda rep: (
        ("verify.engine.verify_global_min.grid_points", rep.grid_n),
    ),
    "verify.engine.majorization_property": lambda rep: (
        ("verify.engine.majorization_property.trials", rep.trials),
    ),
}

ROOT_SPAN = "bench.op"


class Tracer:
    """Records nested spans of wrapped callables and named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                for key, inc in on_result(result):
                    counters[key] = counters.get(key, 0) + inc
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Trace every layer in LAYERS, CLASS_SPANS and COUNTED_CLASSES."""
        mods = _import_all()
        for modname, funcs in LAYERS:
            short = modname.removeprefix("sincsum.")
            for func in funcs:
                name = f"{short}.{func}"
                orig = getattr(mods[modname], func)
                _replace_everywhere(orig, self.wrap(name, orig, RESULT_COUNTERS.get(name)))
        for modname, clsname in CLASS_SPANS:
            cls = getattr(mods[modname], clsname)
            short = modname.removeprefix("sincsum.")
            cls.__init__ = self.wrap(f"{short}.{clsname}", cls.__init__)
        for modname, clsname, counter in COUNTED_CLASSES:
            self._count_constructions(getattr(mods[modname], clsname), counter)

    def _count_constructions(self, cls, counter: str) -> None:
        """Count calls of ``cls(lo, hi)``, the only way Interval is built."""
        counters = self.counters
        counters[counter] = 0
        orig = cls.__init__

        def __init__(self, lo, hi):
            counters[counter] += 1
            orig(self, lo, hi)

        cls.__init__ = __init__

    def aggregate(self) -> dict:
        """Per-name [calls, total_ns, self_ns], root time and counters."""
        n = len(self.start)
        child_ns = [0] * n
        parent, start, end = self.parent, self.start, self.end
        root_ns = 0
        for i in range(n):
            p = parent[i]
            d = end[i] - start[i]
            if p >= 0:
                child_ns[p] += d
            else:
                root_ns += d
        table = [[0, 0, 0] for _ in self.names]
        name_id = self.name_id
        for i in range(n):
            row = table[name_id[i]]
            d = end[i] - start[i]
            row[0] += 1
            row[1] += d
            row[2] += d - child_ns[i]
        return {
            "layers": {name: table[k] for k, name in enumerate(self.names)},
            "counters": dict(self.counters),
            "root_ns": root_ns,
            "spans": n,
        }

    def dump(self, path, limit: int) -> None:
        """Write the first ``limit`` spans as JSON, times relative to the first."""
        n = min(len(self.start), limit)
        t0 = self.start[0] if n else 0
        rows = [
            [self.parent[i], self.name_id[i], self.start[i] - t0, self.end[i] - t0]
            for i in range(n)
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["parent", "name", "start_ns", "end_ns"],
                    "names": self.names,
                    "total_spans": len(self.start),
                    "spans": rows,
                },
                handle,
                separators=(",", ":"),
            )


def _import_all() -> dict:
    names = {m for m, _ in LAYERS} | {m for m, _ in CLASS_SPANS}
    names |= {m for m, _, _ in COUNTED_CLASSES}
    return {name: importlib.import_module(name) for name in names}


def _replace_everywhere(orig, new) -> None:
    """Point every sincsum module attribute that is ``orig`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sincsum" or modname.startswith("sincsum.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
