"""Spans and counts at the multivalley layer boundaries, for the traced run.

Each public function in ``TARGETS`` is wrapped where its callers look it up:
every ``multivalley`` module attribute bound to the function object is
replaced for the duration of the traced run and restored afterwards.  A span
records name, start, end and parent span; spans stay in memory until the run
ends.  The hottest kernels (``shape_b*``, ``bessel_k*``) get count-only
wrappers, since a span per call would cost more than the call.  A target
that no longer resolves is reported as missing, never as zero.

Counts are thread-safe without a lock: ``list.append``, ``set.add`` and
``next()`` on an ``itertools.count`` are single C calls under the GIL, so
``workers=2`` sweeps give the same counts on every run.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter

# (metric prefix, module, attribute, mode).  "span" records timed spans,
# "count" only counts calls.
TARGETS = [
    ("cli.main", "cli", "main", "span"),
    ("config.parse_config", "config", "parse_config", "span"),
    ("config.run_sweep", "config", "run_sweep", "span"),
    ("config.write_csv", "config", "write_csv", "span"),
    ("guard.check_classical_impurity", "impurity", "check_classical_impurity", "span"),
    ("guard.check_quantum_impurity", "impurity", "check_quantum_impurity", "span"),
    ("guard.check_classical_acoustic", "acoustic", "check_classical_acoustic", "span"),
    ("guard.check_quantum_acoustic", "acoustic", "check_quantum_acoustic", "span"),
    ("impurity.absorption", "impurity", "absorption_impurity", "span"),
    ("impurity.spectral_endpoints", "impurity", "spectral_endpoints", "span"),
    ("emission.impurity", "emission", "emission_impurity", "span"),
    ("emission.p_plus", "emission", "p_plus", "span"),
    ("emission.acoustic", "emission", "emission_acoustic", "span"),
    ("acoustic.absorption", "acoustic", "absorption_acoustic", "span"),
    ("quadrature", "quadrature", "integrate_spectral_with_error", "span"),
    ("special.shape_b1", "special", "shape_b1", "count"),
    ("special.shape_b2", "special", "shape_b2", "count"),
] + [(f"special.bessel_{n}", "special", f"bessel_{n}", "count")
     for n in ("k0", "k1", "k2", "k0e", "k1e", "k2e")]

GUARDS = [name for name, *_ in TARGETS if name.startswith("guard.")]
BESSELS = [name for name, *_ in TARGETS if name.startswith("special.bessel_")]


class Tracer:
    """Installs the wrappers, collects spans and counts, restores on exit."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent id, name, start, end)
        self.errors: list[tuple[str, str]] = []   # (name, exception type)
        self.endpoint_keys: set = set()
        self.err_ratios: list[float] = []
        self.missing: list[str] = []
        self._counters: dict[str, itertools.count] = {}
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == "multivalley" or name.startswith("multivalley.")]
        for name, module, attr, mode in TARGETS:
            try:
                fn = getattr(importlib.import_module(f"multivalley.{module}"), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._span(name, fn) if mode == "span" else self._count(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        hook = {"impurity.spectral_endpoints": self._endpoint_hook,
                "quadrature": self._quadrature_hook}.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, errors, ids, clock = self.spans, self.errors, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A pool thread's first span hangs under the main thread's open
            # span (the run_sweep that submitted it).
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors.append((name, type(exc).__name__))
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if hook:
                hook(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counter = self._counters[name] = itertools.count()

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _endpoint_hook(self, bound, _result) -> None:
        args = bound.arguments
        self.endpoint_keys.add((args["material"], args["theta"], args["omega"]))

    def _quadrature_hook(self, bound, result) -> None:
        bound.apply_defaults()
        value, abserr = result
        if value != 0.0:
            self.err_ratios.append(abserr / (bound.arguments["spec"].rel_tol * abs(value)))

    # -- results ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Calls per resolved target; read once, after the wrappers are gone."""
        result = {name: next(counter) for name, counter in self._counters.items()}
        for _sid, _parent, name, _start, _end in self.spans:
            result[name] = result.get(name, 0) + 1
        for name, *_ in TARGETS:
            if name not in self.missing:
                result.setdefault(name, 0)
        return result

    def times_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name, in ms.

        Self time is a span's duration minus the part of it that its child
        spans cover (children of one parent may overlap across threads).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _sid, parent, _name, start, end in self.spans:
            children.setdefault(parent, []).append((start, end))
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for sid, _parent, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total[name] = total.get(name, 0.0) + (end - start) * 1e3
            self_time[name] = self_time.get(name, 0.0) + (end - start - covered) * 1e3
        return total, self_time


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one traced run, plus the names left missing.

    A metric is missing when any target it is built from did not resolve.
    """
    total, own = tracer.times_ms()
    counts = tracer.counts()
    errors = Counter(tracer.errors)
    endpoint_calls = counts.get("impurity.spectral_endpoints", 0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def c(name: str) -> int:
        return counts.get(name, 0)

    rows = [  # (metric, targets it is built from, value)
        ("cli.main_ms", ["cli.main"], t("cli.main")),
        ("config.parse_config_ms", ["config.parse_config"], t("config.parse_config")),
        ("config.run_sweep.self_ms", ["config.run_sweep"], own.get("config.run_sweep", 0.0)),
        ("config.write_csv_ms", ["config.write_csv"], t("config.write_csv")),
        ("config.guards_ms", GUARDS, sum(t(g) for g in GUARDS)),
        ("impurity.absorption.calls", ["impurity.absorption"], c("impurity.absorption")),
        ("impurity.absorption.self_ms", ["impurity.absorption"],
         own.get("impurity.absorption", 0.0)),
        ("impurity.spectral_endpoints.calls", ["impurity.spectral_endpoints"], endpoint_calls),
        ("impurity.spectral_endpoints_ms", ["impurity.spectral_endpoints"],
         t("impurity.spectral_endpoints")),
        ("impurity.endpoint_useful_ratio", ["impurity.spectral_endpoints"],
         len(tracer.endpoint_keys) / endpoint_calls if endpoint_calls else 0.0),
        ("emission.impurity.calls", ["emission.impurity"], c("emission.impurity")),
        ("emission.impurity.self_ms", ["emission.impurity"], own.get("emission.impurity", 0.0)),
        ("emission.p_plus.calls", ["emission.p_plus"], c("emission.p_plus")),
        ("emission.acoustic.calls", ["emission.acoustic"], c("emission.acoustic")),
        ("emission.acoustic.self_ms", ["emission.acoustic"], own.get("emission.acoustic", 0.0)),
        ("acoustic.absorption.calls", ["acoustic.absorption"], c("acoustic.absorption")),
        ("acoustic.absorption.self_ms", ["acoustic.absorption"],
         own.get("acoustic.absorption", 0.0)),
        ("acoustic.value_errors", ["acoustic.absorption"],
         errors[("acoustic.absorption", "ValueError")]),
        ("quadrature.calls", ["quadrature"], c("quadrature")),
        ("quadrature_ms", ["quadrature"], t("quadrature")),
        ("quadrature.errors", ["quadrature"], errors[("quadrature", "QuadratureError")]),
        ("quadrature.max_err_ratio", ["quadrature"], max(tracer.err_ratios, default=0.0)),
        ("special.shape_b.calls", ["special.shape_b1", "special.shape_b2"],
         c("special.shape_b1") + c("special.shape_b2")),
        ("special.bessel.calls", BESSELS, sum(c(b) for b in BESSELS)),
    ]
    metrics, missing = {}, []
    for metric, needs, value in rows:
        if any(name in tracer.missing for name in needs):
            missing.append(metric)
        else:
            metrics[metric] = value
    return metrics, missing
