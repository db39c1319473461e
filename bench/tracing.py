"""Layer spans and counts for the traced benchmark run.

The wrappers live here, not in the package: ``Tracer.install`` replaces each
public function named in ``SPANS`` in every loaded ``nwgb`` module that
holds it (``ideals`` imports ``determinant``, ``cli`` imports
``load_spec``, and so on), and replaces the methods on their classes.  A
span records its name, start, end and the span that called it; spans stay
in memory and are written out once, after the job.  A layer's self time is
its span's duration minus the durations of its child spans.

``COUNTS`` are methods so small and so frequent that timing them would
distort the run, so their wrappers only count calls.  ``sort_key`` is read
through its own ``cache_info()`` and is not wrapped.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# metric prefix -> (defining module, attribute or Class.method)
SPANS = {
    "polynomials.determinant": ("polynomials", "determinant"),
    "polynomials.Polynomial.mul": ("polynomials", "Polynomial.__mul__"),
    "polynomials.polynomial_to_json": ("polynomials", "polynomial_to_json"),
    "ideals.fulton_generators": ("ideals", "fulton_generators"),
    "ideals.antidiagonals_of_spec": ("ideals", "antidiagonals_of_spec"),
    "union.union_basis": ("union", "union_basis"),
    "union.generator_product": ("union", "generator_product"),
    "groebner.normal_form": ("groebner", "normal_form"),
    "groebner.s_polynomial": ("groebner", "s_polynomial"),
    "groebner.is_groebner": ("groebner", "is_groebner"),
    "groebner.buchberger": ("groebner", "buchberger"),
    "groebner.intersect": ("groebner", "intersect"),
    "groebner.intersect_many": ("groebner", "intersect_many"),
    "groebner.initial_ideal": ("groebner", "initial_ideal"),
    "groebner.ideals_equal": ("groebner", "ideals_equal"),
    "cli.load_spec": ("ideals", "load_spec"),
    "cli.main": ("cli", "main"),
}
COUNTS = {
    "polynomials.Monomial.divides": ("polynomials", "Monomial.divides"),
    "polynomials.Monomial.mul": ("polynomials", "Monomial.__mul__"),
}


def _sized(name: str, result) -> int:
    """Work a call produced, beyond being called: generators built, basis
    elements returned, nonzero remainders."""
    if name in ("ideals.fulton_generators", "union.union_basis", "groebner.buchberger"):
        return len(result)
    if name == "groebner.normal_form":
        return 1 if result else 0
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.produced: dict[str, int] = {}
        self.choices = 0  # generator_product calls made by union_basis
        self._stack: list[list] = []  # [span index, name, start, child seconds]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _timed(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.spans[index] = (name, frame[2], end, parent[0] if parent else -1)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - frame[3]
                tracer.total_s[name] = tracer.total_s.get(name, 0.0) + duration
                if parent is not None:
                    parent[3] += duration
                    if name == "union.generator_product" and parent[1] == "union.union_basis":
                        tracer.choices += 1
            tracer.produced[name] = tracer.produced.get(name, 0) + _sized(name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "nwgb" or key.startswith("nwgb.")]
        for table, make in ((SPANS, self._timed), (COUNTS, self._counted)):
            for name, (module, attr) in table.items():
                owner = sys.modules[f"nwgb.{module}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name, None)
                    original = getattr(cls, method, None) if cls is not None else None
                    if original is None:
                        self.missing.append(name)
                        continue
                    self._patch(cls, method, original, make(name, original))
                    continue
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapped = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def _patch(self, target, key, original, wrapped):
        self._restore.append((target, key, original))
        setattr(target, key, wrapped)

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-name calls, self and inclusive seconds, work produced, and
        the ``sort_key`` cache figures."""
        info = sys.modules["nwgb.polynomials"].sort_key.cache_info()
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "produced": self.produced,
            "choices": self.choices,
            "sort_key": {"hits": info.hits, "misses": info.misses},
            "missing": self.missing,
        }

    def write_spans(self, path: str, job_id: str):
        """One JSON line per span: job, name, start, end, parent index."""
        with open(path, "a", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([job_id, name, start, end, parent]) + "\n")
