"""Span tracing of the package's public functions, installed from outside.

A `Tracer` wraps every traced function and rebinds the wrapper on each
module namespace of the package that holds the function, so calls made
through a name imported with `from .x import f` are seen as well.  Each call
records one span (parent span, function, request, start, end, returned
normally) into flat arrays kept in memory; `dump` writes them out once the
run is over.  Self time is a span's duration minus the part covered by its
child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer (module) -> public functions traced in it.
TRACED = {
    "algebra": ("exp_ad", "adjoint_of", "jacobi_check", "invariance_residual"),
    "lorentz": ("trig_c", "trig_s", "trig_h", "rotation_matrix", "boost_matrix",
                "lorentz_matrix", "lorentz_decompose", "axis_angle_of_rotation3",
                "lorentz_inverse_params", "rapidity"),
    "xlorentz": ("dirac_boost_mat5", "embed_lorentz5", "xl_matrix",
                 "xl_decompose", "xl_compose", "xl_inverse", "b_residual"),
    "poincare": ("compose", "compose_via_affine", "inverse", "oplus",
                 "theta_numeric", "theta_closed", "to_affine", "from_affine"),
    "checks": ("suite_jacobi", "suite_casimir", "suite_oracle",
               "suite_group_axioms", "suite_oplus_hom", "suite_theta",
               "sample_omega", "sample_xl", "sample_params"),
    "cli": ("main", "parse_element_obj", "canonical_json"),
}

PACKAGE = "xpoincare"

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.parent = array("i")
        self.fn = array("H")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.current_request = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        parent, fns, request = self.parent, self.fn, self.request
        start, end, ok, stack = self.start, self.end, self.ok, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            fns.append(index)
            request.append(tracer.current_request)
            ok.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                ok[sid] = 1
                return result
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every traced function on every module of the package."""
        wrappers = {}
        for index, name in enumerate(SPAN_NAMES):
            mod, fn = name.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod}"), fn, None)
            if original is None:
                self.missing.append(name)
                continue
            wrappers[id(original)] = (original, self._wrap(index, original))
        for mname, module in list(sys.modules.items()):
            if module is None or not (mname == PACKAGE
                                      or mname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "fn": np.frombuffer(self.fn, dtype=np.uint16).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
        }

    def summary(self) -> dict:
        """Per traced function: calls, normal returns, self and total time."""
        a = self.arrays()
        n, k = len(a["start"]), len(SPAN_NAMES)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self_time = dur - child
        # total time counts only the outermost span of recursive calls
        outer = np.ones(n, dtype=bool)
        if n:
            outer[has_parent] = a["fn"][a["parent"][has_parent]] != a["fn"][has_parent]
        calls = np.bincount(a["fn"], minlength=k)
        returned = np.bincount(a["fn"], weights=a["ok"], minlength=k)
        self_s = np.bincount(a["fn"], weights=self_time, minlength=k)
        total_s = np.bincount(a["fn"][outer], weights=dur[outer], minlength=k)
        return {name: {"calls": int(calls[i]), "returned": int(returned[i]),
                       "self_s": float(self_s[i]), "total_s": float(total_s[i])}
                for i, name in enumerate(SPAN_NAMES)}

    def dump(self, path) -> None:
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())
