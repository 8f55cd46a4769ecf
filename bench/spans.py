"""Span recorder for the traced benchmark run.

The recorder wraps public functions of every ``iumps`` layer from outside the
package.  Modules bind each other's functions by name (``from .entropy import
qcmi``) and keep some in dicts (the CLI's table of Kraus builders), so a
wrapper replaces every binding of the same function object in every loaded
``iumps.*`` module, not only the one in the defining module.  The bindings
are restored when the recorder is uninstalled.

Each span stores its name, start, end, parent span, the instance it belongs
to and, for a few functions, one integer argument or result that the derived
counts need.  Spans stay in memory until the run writes them out.  The span
stack is per thread, so ``run_ensemble --jobs`` worker threads nest their
spans correctly.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# Public functions timed per layer, keyed by the module that defines them.
TRACED = {
    "numerics": ("haar_unitary", "eig_general", "eig_hermitian", "mat_power"),
    "mps": ("build_case1", "build_case2", "build_case3", "transfer_matrix", "fixed_point"),
    "entropy": (
        "region_entropy",
        "support_decomposition",
        "projected_density",
        "rho_disjoint",
        "qmi",
        "qcmi",
    ),
    "bounds": ("jordan_constants", "decay_bound"),
    "experiments": ("scan_instance", "run_ensemble", "gap_statistics"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)
# The three Kraus builders share one span name, mps.build_case.
_BUILDERS = {"mps.build_case1", "mps.build_case2", "mps.build_case3"}
BUILD_CASE = "mps.build_case"


def span_name(layer: str, function: str) -> str:
    name = f"{layer}.{function}"
    return BUILD_CASE if name in _BUILDERS else name


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    instance: tuple | None
    value: int | None
    error: str | None


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every ``iumps.*`` binding of ``original`` at ``replacement``.

    Covers module attributes and the values of module-level dicts.  Returns
    the undo list that ``restore`` takes.
    """
    undo: list[tuple[object, str, object]] = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "iumps" or mod_name.startswith("iumps.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                undo.append((namespace, key, original))
                namespace[key] = replacement
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        undo.append((value, k, original))
                        value[k] = replacement
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, key, original in reversed(undo):
        owner[key] = original


class Tracer:
    """Records spans around the functions in ``TRACED``.

    Installed wrappers record only inside ``recording()``, so the benchmark's
    own checks, which call the same library functions, leave no spans.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {layer: sys.modules[f"iumps.{layer}"] for layer in TRACED}
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(modules[layer], name)
                self._undo += rebind(original, self._wrap(span_name(layer, name), original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.instance = None
        return local

    def _wrap(self, name: str, fn):
        is_builder = name == BUILD_CASE
        arg_n = name in ("numerics.mat_power", "entropy.region_entropy")
        returns_curve = name == "experiments.scan_instance"
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = self._state()
            if is_builder:
                # build_case*(d_s, d_m, stream): one sampled instance per call
                stream = args[2] if len(args) > 2 else kwargs["stream"]
                state.instance = (stream.master_seed, stream.stream_index)
            stack = state.stack
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            value = None
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if arg_n:
                    value = args[1] if len(args) > 1 else kwargs["n"]
                elif returns_curve and error is None:
                    value = len(result.points)
                spans.append(Span(sid, parent, name, start, end, state.instance, value, error))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _matmuls(n: int) -> int:
    """Matrix products in binary exponentiation: squarings plus multiplies."""
    return 0 if n < 2 else (n.bit_length() - 1) + (bin(n).count("1") - 1)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the time direct children cover."""
    by_id = {s.sid: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.sid]
    return dict(out)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def counts(spans: list[Span]) -> dict[str, float]:
    """Work counts that repeat exactly for a given seed and amount of work."""
    by_id = {s.sid: s for s in spans}
    calls = Counter(s.name for s in spans)
    region_keys = {(s.instance, s.value) for s in spans if s.name == "entropy.region_entropy"}
    fixed_point_eigs = sum(
        1
        for s in spans
        if s.name == "numerics.eig_general"
        and s.parent in by_id
        and by_id[s.parent].name == "mps.fixed_point"
    )
    scans = [s for s in spans if s.name == "experiments.scan_instance"]
    return {
        **{f"{name}.calls": calls[name] for name in _names()},
        "numerics.mat_power.matmuls": sum(
            _matmuls(s.value) for s in spans if s.name == "numerics.mat_power"
        ),
        "mps.fixed_point.eig_calls": _ratio(fixed_point_eigs, calls["mps.fixed_point"]),
        "entropy.region_entropy.reuse_ratio": _ratio(
            len(region_keys), calls["entropy.region_entropy"]
        ),
        "experiments.qcmi_evals_per_instance": _ratio(calls["entropy.qcmi"], len(scans)),
        "experiments.points_per_instance": _ratio(
            sum(s.value for s in scans if s.value is not None), len(scans)
        ),
    }


def _names() -> list[str]:
    return sorted({span_name(layer, name) for layer, names in TRACED.items() for name in names})


def layer_self_times(per_name: dict[str, float]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, t in per_name.items():
        out[name.split(".", 1)[0]] += t
    return out
