"""Per-layer spans and counters, recorded from outside the engine.

The tracer replaces public functions of the ``liesphere`` modules with timing
wrappers for the length of one traced run and puts the originals back
afterwards.  A function is replaced under every module attribute that holds
it, so calls through ``RB.transform`` and calls made inside ``ribaucour``
itself are both seen.  Nothing in ``src/`` is changed.

Spans nest: a span's self time is its duration minus the time covered by the
spans it encloses.  Inclusive times are summed only over outermost calls of a
name, so recursion is not counted twice.  Four stages also record the peak
of ``tracemalloc``-traced memory above what was live on entry; tracemalloc
runs only while one of them is open.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) of every wrapped function; the span is named
# "<module without the liesphere. prefix>.<attribute>".
SPANS = (
    ("liesphere.cli", "load_scene"),
    ("liesphere.charts", "eval_chart"),
    ("liesphere.liegeom", "lift_frame"),
    ("liesphere.exprs", "eval_at"),
    ("liesphere.exprs", "eval_jet"),
    ("liesphere.jets", "mat_inverse"),
    ("liesphere.ribaucour", "run_grid"),
    ("liesphere.ribaucour", "transform"),
    ("liesphere.ribaucour", "minus_metric"),
    ("liesphere.ribaucour", "ribaucour_residual"),
    ("liesphere.ribaucour", "residual_suite"),
    ("liesphere.ribaucour", "curvature_identity"),
    ("liesphere.ribaucour", "reconstruct"),
    ("liesphere.ribaucour", "alpha_hat"),
    ("liesphere.ribaucour", "pointwise_residuals"),
    ("liesphere.gridio", "export_obj"),
    ("liesphere.gridio", "write_fields_csv"),
    ("liesphere.gridio", "write_json"),
    ("liesphere.demoulin", "build_family"),
    ("liesphere.demoulin", "integrate_potential"),
    ("liesphere.demoulin", "r_operator"),
    ("liesphere.demoulin", "bianchi_check"),
    ("liesphere.demoulin", "demoulin_tau"),
    ("liesphere.demoulin", "member_closedness"),
    ("liesphere.demoulin", "parallel_sections"),
    ("liesphere.demoulin", "dual_family_step"),
    ("liesphere.demoulin", "family_report"),
)

# Spans whose peak traced allocation is recorded.
MEMORY_SPANS = frozenset(
    {
        "ribaucour.transform",
        "ribaucour.residual_suite",
        "ribaucour.reconstruct",
        "demoulin.dual_family_step",
    }
)

# Writers whose first argument is the path of the file they write.
WRITER_SPANS = frozenset({"gridio.export_obj", "gridio.write_fields_csv", "gridio.write_json"})

# Spans reported by self time instead of inclusive time.
SELF_TIME_SPANS = frozenset({"ribaucour.reconstruct"})


@dataclass
class SpanStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    peak_bytes: int = 0


@dataclass
class _Open:
    start: float
    child_s: float = 0.0  # time covered by the spans it encloses


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    top_level_s: float = 0.0
    mul_calls: int = 0
    nan_hessian_muls: int = 0
    bytes_written: int = 0
    _stack: list = field(default_factory=list)
    _active: dict = field(default_factory=dict)
    _mem: list = field(default_factory=list)  # [base, peak] per open memory span
    _undo: list = field(default_factory=list)

    # ----- installation -----

    def install(self) -> None:
        for module_name, attr in SPANS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            name = f"{module_name.split('.', 1)[1]}.{attr}"
            if original is None:
                self.missing.append(name)
                continue
            self.stats[name] = SpanStats()
            wrapper = self._span_wrapper(name, original)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        jet_cls = getattr(sys.modules.get("liesphere.jets"), "Jet2", None)
        if jet_cls is None:
            self.missing.append("jets.Jet2")
            return
        for key in ("__mul__", "__rmul__"):
            value = jet_cls.__dict__.get(key)
            if value is not None:
                self._undo.append((jet_cls, key, value))
                setattr(jet_cls, key, self._mul_wrapper(value))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    # ----- wrappers -----

    def _span_wrapper(self, name, fn):
        tracer = self
        track_memory = name in MEMORY_SPANS
        writer = name in WRITER_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_memory:
                tracer._memory_enter()
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name)
                if track_memory:
                    tracer._memory_exit(name)
                if writer and args and os.path.exists(args[0]):
                    tracer.bytes_written += os.path.getsize(args[0])

        return wrapper

    def _mul_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            tracer.mul_calls += 1
            hess = getattr(out, "hess", None)
            # Test one element first so that the full scan runs only when it can succeed.
            if hess is not None and hess.size and np.isnan(hess.flat[0]) and np.isnan(hess).all():
                tracer.nan_hessian_muls += 1
            return out

        return wrapper

    # ----- span bookkeeping -----

    def _enter(self, name: str) -> None:
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append(_Open(time.perf_counter()))

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        span = self._stack.pop()
        duration = end - span.start
        st = self.stats[name]
        st.calls += 1
        st.self_s += duration - span.child_s
        self._active[name] -= 1
        if self._active[name] == 0:
            st.inclusive_s += duration
        if self._stack:
            self._stack[-1].child_s += duration
        else:
            self.top_level_s += duration

    def _memory_enter(self) -> None:
        if not self._mem:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for entry in self._mem:
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _memory_exit(self, name: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        base, top = self._mem.pop()
        top = max(top, peak)
        for entry in self._mem:
            entry[1] = max(entry[1], top)
        st = self.stats[name]
        st.peak_bytes = max(st.peak_bytes, top - base)
        if not self._mem:
            tracemalloc.stop()

    # ----- results -----

    def metrics(self, wall_s: float) -> dict:
        """Flat per-layer metrics of one traced run of ``wall_s`` seconds."""
        out = {}
        for module_name, attr in SPANS:
            name = f"{module_name.split('.', 1)[1]}.{attr}"
            st = self.stats.get(name, SpanStats())
            out[f"{name}_s"] = st.self_s if name in SELF_TIME_SPANS else st.inclusive_s
            out[f"{name}_self_s"] = st.self_s
            out[f"{name}_calls"] = st.calls
            if name in MEMORY_SPANS:
                out[f"{name}.peak_mb"] = st.peak_bytes / 2**20
        out["jets.mul_calls"] = self.mul_calls
        out["jets.nan_hessian_muls"] = self.nan_hessian_muls
        out["jets.nan_hessian_mul_share"] = (
            self.nan_hessian_muls / self.mul_calls if self.mul_calls else 0.0
        )
        out["gridio.bytes_written"] = self.bytes_written
        out["trace.coverage"] = self.top_level_s / wall_s if wall_s > 0 else 0.0
        return out


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "liesphere" or key.startswith("liesphere."))
    ]
