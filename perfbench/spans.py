"""Span recorder for latticeqm, installed from outside the package.

``Tracer`` replaces every public module-level function of the eight
latticeqm modules, and every public method of their public classes, with a
wrapper that records a span (name, start, end, parent, op).  Names that one
module re-binds from another (``oscillator.build_kravchuk``,
``cli.format_float``, ``cli.LatticeState``) are replaced wherever they are
bound, so calls through either name are seen.  Per-value functions get a
call counter instead of a span, keyed by the innermost open span, because
one CLI ``evolve`` call formats over a million floats.  Spans stay in memory;
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("cli", "report", "lattice", "planewave", "cayley", "kravchuk", "oscillator", "hermite")

# called once per value written or per table entry: counted, never spanned
COUNTED = frozenset({"report.format_float", "kravchuk.wigner_d_entry"})

# span groups whose self time is reported as one per-layer metric
GROUPS = {
    "kravchuk.build_wigner_d": ("kravchuk.build_wigner_d",),
    "kravchuk.wigner_d_direct": ("kravchuk.wigner_d_direct",),
    "cayley.build_propagator": ("cayley.build_propagator",),
    "cayley.evolve": ("cayley.evolve_state", "cayley.evolve_trajectory"),
    "cayley.schemes": (
        "cayley.heisenberg_scheme_residuals",
        "cayley.involution_identities",
        "cayley.heisenberg_evolve",
        "cayley.evolution_operator",
        "cayley.evolution_operator_residual",
        "cayley.CayleyPropagator.spectral_function",
    ),
}


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _columns_built(args, kwargs, result):
    return {"kravchuk.build_wigner_d.columns": result.table.shape[1]}


def _evolve_flops(args, kwargs, result):
    # one complex d x d matrix-vector product per step: 8 d^2 real flops
    prop = _argument(args, kwargs, 0, "prop")
    steps = int(_argument(args, kwargs, 2, "n"))
    return {"cayley.evolve.flops": 8 * prop.dim * prop.dim * steps}


# extra counts taken from a spanned call's arguments or result
PROBES = {
    "kravchuk.build_wigner_d": _columns_built,
    "cayley.evolve_state": _evolve_flops,
    "cayley.evolve_trajectory": _evolve_flops,
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int      # index of the benchmark op that caused it


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    """Records spans and counts for calls into the given latticeqm modules.

    ``modules`` maps a layer name to its module.  Use as a context manager,
    or call ``install`` and ``uninstall``; set ``op`` before each benchmark op.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.calls: Counter = Counter()    # name -> calls, spanned or counted
        self.nested: Counter = Counter()   # (counted name, innermost open span) -> calls
        self.probed: Counter = Counter()   # totals returned by PROBES
        self.op = -1
        self._open: list = []      # (index, name) of spans not yet closed
        self._patched: list = []   # (owner, attribute, original) in patch order

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _layer(self, module_name: str) -> str | None:
        for layer, module in self.modules.items():
            if module.__name__ == module_name:
                return layer
        return None

    def _targets(self):
        """(owner, attribute, raw object, qualified name) of every public callable."""
        classes = set()
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                layer = self._layer(getattr(obj, "__module__", None))
                if attr.startswith("_") or layer is None:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, obj, f"{layer}.{obj.__name__}"
                elif inspect.isclass(obj) and obj not in classes:
                    classes.add(obj)
                    for name, raw in list(vars(obj).items()):
                        if name.startswith("_"):
                            continue
                        if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                            yield obj, name, raw, f"{layer}.{obj.__name__}.{name}"

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        for owner, attr, raw, name in list(self._targets()):
            if id(raw) not in wrapped:
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped[id(raw)] = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped[id(raw)] = self._wrap(name, raw)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped[id(raw)])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name: str, fn):
        spans, calls, open_ = self.spans, self.calls, self._open
        clock = time.perf_counter

        if name in COUNTED:
            nested = self.nested

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                nested[(name, open_[-1][1] if open_ else None)] += 1
                return fn(*args, **kwargs)
            return counted

        probe = PROBES.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            spans.append(None)
            parent = open_[-1][0] if open_ else -1
            open_.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if probe is not None:
                self.probed.update(probe(args, kwargs, result))
            return result
        return spanned


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values computed from one traced phase, keyed by metric name."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: Counter = Counter()
    for span, t in zip(spans, own):
        by_name[span.name] += t

    def group(prefix):
        return sum(by_name[n] for n in GROUPS[prefix])

    out = {f"{layer}.self_s": sum(t for n, t in by_name.items() if n.split(".", 1)[0] == layer)
           for layer in LAYERS}
    for prefix in GROUPS:
        out[f"{prefix}.self_s"] = group(prefix)
    for name in ("report.format_float", "kravchuk.build_wigner_d", "hermite.psi_table"):
        out[f"{name}.calls"] = tracer.calls[name]
    # oracle entries evaluated to fix a column sign: wasted work per column built
    columns = tracer.probed["kravchuk.build_wigner_d.columns"]
    fallbacks = tracer.nested[("kravchuk.wigner_d_entry", "kravchuk.build_wigner_d")]
    out["kravchuk.sign_fallback_ratio"] = fallbacks / columns if columns else 0.0
    evolve_s = group("cayley.evolve")
    flops = tracer.probed["cayley.evolve.flops"]
    out["cayley.evolve.gflops_computed"] = flops / evolve_s / 1e9 if evolve_s > 0 else 0.0
    return out
