"""Outside-in layer trace: timing wrappers around copekit's public functions.

The tracer replaces each listed function with a wrapper in every loaded
``copekit.*`` namespace that binds it, because ``certify``, ``nmf`` and
``enmf_decision`` bind their callees with ``from .x import f`` and ``enmf``
imports its callee inside its body.  A wrapper records calls, total time and
self time (its span minus the spans of traced callees), counts a
``GuardExceeded`` passing through it, and for a few layers the sizes that
drive their cost.  A function that no longer exists is listed as missing
and reports zero calls.

Spans nest per thread; the counters are shared and guarded by a lock, since
the heuristic restarts may run on a thread pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time

# (module, function) pairs, named ``<module>.<function>`` in the metrics.
LAYERS = (
    ("certify", "certify"),
    ("certify", "vertex_forcing_certificate"),
    ("enmf_decision", "decide_enmf_existence"),
    ("rational_linalg", "lp_feasibility"),
    ("rational_linalg", "lp_feasible"),
    ("rational_linalg", "convex_combination"),
    ("polytope", "span_simplex_polytope"),
    ("polytope", "extreme_rays"),
    ("nmf", "enmf"),
    ("nmf", "search_candidates"),
    ("nmf", "equirank_simplex_model"),
    ("sperner", "sperner_submatrix"),
    ("models", "classify_model"),
    ("cope", "rank"),
    ("cope", "merge_measurements"),
    ("planar", "nested_triangle"),
    ("jsonio", "parse_cope"),
    ("jsonio", "emit_certificate"),
    ("jsonio", "parse_certificate"),
)

LAYER_NAMES = tuple(f"{m}.{f}" for m, f in LAYERS)


def _lp_shape(stats, args, kwargs, result):
    a_eq = args[0] if args else kwargs.get("a_eq", ())
    stats["rows"] = max(stats.get("rows", 0), len(a_eq))
    stats["vars"] = max(stats.get("vars", 0), len(a_eq[0]) if a_eq else 0)


def _absence(stats, args, kwargs, result):
    if type(result).__name__ == "AbsenceResult":
        stats["absence"] = stats.get("absence", 0) + 1


def _vertices(stats, args, kwargs, result):
    stats["vertices"] = stats.get("vertices", 0) + len(getattr(result, "vertices", ()))


# Sizes recorded after a call returns.  LP shape is the largest program seen;
# vertices and absences are summed.
_SIZES = {
    "rational_linalg.lp_feasibility": _lp_shape,
    "enmf_decision.decide_enmf_existence": _absence,
    "polytope.span_simplex_polytope": _vertices,
}


def resolve() -> dict:
    """The listed functions that exist, by metric name."""
    found = {}
    for module_name, fn_name in LAYERS:
        try:
            module = importlib.import_module(f"copekit.{module_name}")
        except ImportError:
            continue
        original = getattr(module, fn_name, None)
        if callable(original):
            found[f"{module_name}.{fn_name}"] = original
    return found


def missing_layers() -> list[str]:
    present = resolve()
    return [name for name in LAYER_NAMES if name not in present]


def empty_stats() -> dict:
    return {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "guard": 0} for name in LAYER_NAMES}


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.stats`` afterwards."""

    def __init__(self):
        self.stats = empty_stats()
        self._patched: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._enabled = True

    def reset(self) -> None:
        with self._lock:
            self.stats = empty_stats()

    @contextlib.contextmanager
    def paused(self):
        """Call through without recording, e.g. while the benchmark checks outputs."""
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = True

    def _wrap(self, name: str, fn):
        sizes = _SIZES.get(name)
        guard_type = getattr(sys.modules.get("copekit.polytope"), "GuardExceeded", ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [0.0]  # seconds spent in traced callees
            stack.append(frame)
            start = time.perf_counter()
            guarded = False
            try:
                result = fn(*args, **kwargs)
            except guard_type:
                guarded = True
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    st = self.stats[name]
                    st["calls"] += 1
                    st["total_ms"] += elapsed * 1000.0
                    st["self_ms"] += (elapsed - frame[0]) * 1000.0
                    st["guard"] += guarded
            if sizes is not None:
                with self._lock:
                    try:
                        sizes(self.stats[name], args, kwargs, result)
                    except (TypeError, IndexError, KeyError, AttributeError):
                        pass  # a changed signature loses the size, never the call
            return result

        return wrapper

    def install(self) -> None:
        for name, original in resolve().items():
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "copekit" or mod_name.startswith("copekit.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def add_stats(total: dict, part: dict) -> None:
    """Sum ``part`` into ``total``; shape keys (vars, rows) take the maximum."""
    for name, st in part.items():
        into = total.setdefault(name, {})
        for key, value in st.items():
            if key in ("vars", "rows"):
                into[key] = max(into.get(key, 0), value)
            else:
                into[key] = into.get(key, 0) + value
