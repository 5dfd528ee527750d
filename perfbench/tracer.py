"""Span tracing of the package's public functions, from outside ``src/``.

``Tracer.install`` replaces every public function of each layer module in
every ``padic_orbits`` namespace that binds it (``eichlerselberg.hurwitz_hw``
is bound by ``from .quadglobal import ...``, for example).  Each call records
a span (name, start, end, parent, item id) in flat arrays; ``uninstall``
puts the originals back.  Per-layer metrics are computed from the spans after
the pass, and ``write`` dumps the spans as gzip'd TSV.

Some counters are computed from call arguments rather than measured inside
the package; their names say so in the README:
``pointcount.enum_pairs`` from (p, k, constraint) or the digit depth, and
``quadglobal.L_terms`` from (disc, terms).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("exact", "localquad", "pointcount", "weylsteinberg", "gl2local",
          "quadglobal", "eichlerselberg", "kirillov", "acceptance")
# Function groups whose busy time (union of their outermost spans) is reported.
BUSY_GROUPS = {
    "quadglobal.dirichlet_L1": ("quadglobal.dirichlet_L1",),
    "quadglobal.class_number_scan": ("quadglobal.class_number_scan",),
    "eichlerselberg.trace_formula": ("eichlerselberg.trace_formula",),
    "eichlerselberg.oracle": ("eichlerselberg.eigenform_coeffs", "eichlerselberg.eta_tau"),
}
# Counters that must repeat exactly for the same seed.
COUNT_METRICS = tuple(f"{layer}.calls" for layer in LAYERS) + (
    "quadglobal.L_terms", "quadglobal.class_number.calls",
    "quadglobal.class_number.distinct_frac", "eichlerselberg.series_products",
    "eichlerselberg.eta_tau.calls", "pointcount.count_calls",
    "pointcount.useful_count_frac", "pointcount.enum_pairs")
ITEM_SPAN = "item"


def _enum_pairs(p: int, k: int, constraint: str, image: bool) -> int:
    """Residue pairs a count touches: the mod-p grid for the unit-norm set;
    a square-root table plus one lookup per y mod m for the norm-one curve,
    with m = 2^(k+2) for the projected p = 2 image and p^k otherwise."""
    if constraint == "unit":
        return p * p
    if image and p == 2:
        return 2 * 2 ** (k + 2)
    return 2 * p ** k


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.item = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._item_id = -1
        self._patched: list[tuple[dict, str, object]] = []
        self.class_number_args: list[int] = []
        self.count_keys: list[tuple] = []
        self.enum_pairs = 0
        self.L_terms = 0
        self.series_products = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.item.append(self._item_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_item(self, item_id: int) -> None:
        self._item_id = item_id
        self._item_span = self._open(self._name_id(ITEM_SPAN))

    def end_item(self) -> None:
        self._close(self._item_span)

    def _wrap(self, qualname: str, fn, on_call):
        name_id = self._name_id(qualname)
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return functools.wraps(fn)(traced)

    # -- argument-derived counters -----------------------------------------

    def _on_class_number(self, D, *args, **kwargs):
        self.class_number_args.append(D)

    def _on_count(self, image: bool):
        def hook(eq, p, k, *args, **kwargs):
            key = (eq.epsilon, eq.constraint.value, p, k)
            self.count_keys.append(key)
            self.enum_pairs += _enum_pairs(p, k, eq.constraint.value, image)
        return hook

    def _on_digit_table(self, eq, depth, *args, **kwargs):
        # digit_table enumerates the curve mod 2^(depth + 3).
        self.enum_pairs += 2 * 2 ** (depth + 3)

    def _on_dirichlet_L1(self, disc, terms, *args, **kwargs):
        period = abs(disc)
        if period:
            self.L_terms += (terms // period) * period

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every public function of each layer in every package namespace."""
        hooks = {
            "quadglobal.class_number": self._on_class_number,
            "quadglobal.dirichlet_L1": self._on_dirichlet_L1,
            "pointcount.count_mod": self._on_count(image=True),
            "pointcount.raw_count_mod": self._on_count(image=False),
            "pointcount.digit_table": self._on_digit_table,
        }
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"padic_orbits.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    qualname = f"{layer}.{attr}"
                    replacement[fn] = self._wrap(qualname, fn, hooks.get(qualname))
        for modname, module in list(sys.modules.items()):
            if modname != "padic_orbits" and not modname.startswith("padic_orbits."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if inspect.isfunction(value) and value in replacement:
                    self._patched.append((namespace, attr, value))
                    namespace[attr] = replacement[value]
        series = importlib.import_module("padic_orbits.eichlerselberg").PowerSeriesZ
        mul = series.__mul__

        def counted_mul(a, b):
            self.series_products += 1
            return mul(a, b)

        self._patched.append((series, "__mul__", mul))
        series.__mul__ = counted_mul

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, busy and self time, plus the named function metrics."""
        n = len(self.start)
        names = self.names
        layer_of = [name.split(".")[0] for name in names]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out.update({f"{layer}.calls": 0, f"{layer}.busy_s": 0.0, f"{layer}.self_s": 0.0})
        out.update({f"{group}.busy_s": 0.0 for group in BUSY_GROUPS})
        group_of = {member: group for group, members in BUSY_GROUPS.items()
                    for member in members}
        for i in range(n):
            name = names[self.name[i]]
            if name == ITEM_SPAN:
                continue
            layer = layer_of[self.name[i]]
            duration = self.end[i] - self.start[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration - covered[i]
            ancestors = self._ancestor_name_ids(i)
            if not any(layer_of[a] == layer for a in ancestors):
                out[f"{layer}.busy_s"] += duration
            group = group_of.get(name)
            if group and not any(group_of.get(names[a]) == group for a in ancestors):
                out[f"{group}.busy_s"] += duration
        class_numbers = len(self.class_number_args)
        out["quadglobal.L_terms"] = self.L_terms
        out["quadglobal.class_number.calls"] = class_numbers
        out["quadglobal.class_number.distinct_frac"] = (
            len(set(self.class_number_args)) / class_numbers if class_numbers else 0.0)
        out["eichlerselberg.series_products"] = self.series_products
        out["eichlerselberg.eta_tau.calls"] = self.name.count(
            self._name_ids.get("eichlerselberg.eta_tau", -1))
        counts = len(self.count_keys)
        out["pointcount.count_calls"] = counts
        out["pointcount.useful_count_frac"] = len(set(self.count_keys)) / counts if counts else 0.0
        out["pointcount.enum_pairs"] = self.enum_pairs
        return out

    def _ancestor_name_ids(self, i: int) -> list[int]:
        out = []
        j = self.parent[i]
        while j >= 0:
            out.append(self.name[j])
            j = self.parent[j]
        return out

    def write(self, path) -> None:
        """Dump spans as TSV: id, name, item, parent, start and end in seconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\titem\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.item[i]}\t{self.parent[i]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
