"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the program's modules. A wrapped
function is patched under every name that any loaded program module binds
to it, so calls are seen wherever the caller looks the name up
(`numfield.factor_mod_p`, `construct.interval_certificate`, ...), and
uninstall() restores every such name, also in modules imported meanwhile. A
function that no longer exists is reported as absent instead of failing the
run.

Spans are kept in memory: name, layer, start, end and the index of the
enclosing span. Aggregation turns them into per-layer sums.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

PACKAGE = "torsionfree"


@dataclass(frozen=True)
class Target:
    layer: str                  # metric prefix, e.g. "polyalg"
    module: str                 # where the name is looked up first
    name: str
    # cheap facts about one call, taken after its span has closed
    note: Callable | None = None


def _degree_of_first(args, kwargs, result):
    return {"degree": getattr(args[0], "degree", 0)} if args else {}


def _range_at(i: int):
    """Note the half-open range [lo, hi) passed as positional args i, i+1."""
    def note(args, kwargs, result):
        return {"lo": args[i], "hi": args[i + 1]} if len(args) > i + 1 else {}
    return note


def _truth(args, kwargs, result):
    return {"ok": bool(result)}


CHECK_FUNCTIONS = ("interval_certificate", "archimedean_ok",
                   "two_adic_condition", "form_preservation_check",
                   "verify_order")

TARGETS = (
    Target("polyalg", "torsionfree.polyalg", "isolate_real_roots"),
    Target("polyalg", "torsionfree.polyalg", "compare_root"),
    Target("polyalg", "torsionfree.polyalg", "sign_at_root"),
    Target("polyalg", "torsionfree.polyalg", "discriminant"),
    Target("polyalg", "torsionfree.polyalg", "factor_mod_p", _degree_of_first),
    Target("numfield", "torsionfree.numfield", "dedekind_split"),
    Target("numfield", "torsionfree.numfield", "make_field"),
    Target("numfield", "torsionfree.numfield", "element_charpoly"),
    Target("numfield", "torsionfree.numfield", "sign_at_embeddings"),
    Target("numfield", "torsionfree.numfield", "count_prime_ideals"),
    Target("selberg", "torsionfree.selberg", "find_congruence_level"),
    Target("selberg", "torsionfree.selberg", "logarithmic_integral"),
    Target("selberg", "torsionfree.selberg", "grh_threshold"),
    Target("construct", "torsionfree.construct", "build_construction"),
    Target("construct", "torsionfree.construct", "choose_T"),
    Target("construct", "torsionfree.construct", "interval_certificate",
           _truth),
    Target("construct", "torsionfree.construct", "two_adic_condition"),
    Target("construct", "torsionfree.construct", "archimedean_ok"),
    Target("construct", "torsionfree.construct", "form_preservation_check"),
    Target("construct", "torsionfree.construct", "verify_order"),
    Target("construct", "torsionfree.construct", "sweep"),
    Target("construct", "torsionfree.construct", "mod2k_isotropy_probe"),
    Target("kernels", "torsionfree._kernels", "poly_root_count_over_primes",
           _range_at(1)),
    Target("kernels", "torsionfree._kernels", "prime_count_in_classes",
           _range_at(0)),
    Target("ntheory", "torsionfree.ntheory", "primes_in_range"),
    Target("ntheory", "torsionfree.ntheory", "primes_upto"),
    Target("ntheory", "torsionfree.ntheory", "factorize"),
    Target("torsion", "torsionfree.torsion", "max_torsion_order"),
    Target("report", "torsionfree.report", "dumps_report"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))


@dataclass
class Span:
    name: str       # "<layer>.<function>"
    layer: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 at top level
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets=TARGETS, package: str = PACKAGE):
        self.targets = tuple(targets)
        self.package = package
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        # id(wrapper) -> (wrapper, original); holding both keeps the ids valid
        self._originals: dict[int, tuple[object, object]] = {}

    def _program_modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(prefix))]

    def _rebind(self, mapping: dict[int, tuple[object, object]]) -> None:
        """In every loaded program module, bind `new` wherever `old` is bound,
        for each (old, new) in mapping.values()."""
        for mod in self._program_modules():
            for attr, value in list(vars(mod).items()):
                old, new = mapping.get(id(value), (None, None))
                if old is value:
                    setattr(mod, attr, new)

    def install(self) -> "Tracer":
        if self._originals:
            raise RuntimeError("tracer already installed")
        # Import every target module before patching any: a module imported
        # later would bind names that are already wrapped.
        modules = {}
        for target in self.targets:
            if target.module not in modules:
                try:
                    modules[target.module] = importlib.import_module(
                        target.module)
                except ImportError:
                    modules[target.module] = None
        wrappers: dict[int, tuple[object, object]] = {}
        for target in self.targets:
            original = getattr(modules[target.module], target.name, None)
            if not callable(original):
                self.absent.append(f"{target.module}.{target.name}")
                continue
            wrapper = self._wrap(target, original)
            wrappers[id(original)] = (original, wrapper)
            self._originals[id(wrapper)] = (wrapper, original)
        self._rebind(wrappers)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped name, also in program modules imported
        after install()."""
        self._rebind(self._originals)
        self._originals = {}

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: Target, original):
        spans, stack = self.spans, self._stack
        name = f"{target.layer}.{target.name}"
        layer, note = target.layer, target.note

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            result = None
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                if note is not None:
                    span.note = note(args, kwargs, result)

        return traced


# ------------------------------------------------------------ aggregation

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    j = spans[i].parent
    while j >= 0:
        if spans[j].name == name:
            return True
        j = spans[j].parent
    return False


def prime_count(lo: int, hi: int) -> int:
    """Number of primes in [lo, hi)."""
    from oracles import primes_upto

    return sum(1 for q in primes_upto(hi - 1) if q >= lo)


def raw_counts(spans: list[Span]) -> dict[str, float]:
    """Additive per-layer sums of one trace; add several with merge()."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for layer in LAYERS:
        add(f"{layer}.self_s", 0.0)
    add("trace.spans", len(spans))
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        add(f"{s.layer}.self_s", own)
        add(f"{s.name}.calls", 1)
        if not _has_ancestor(spans, i, s.name):
            add(f"{s.name}.s", s.duration)
        parent = spans[s.parent].name if s.parent >= 0 else ""
        if s.name == "polyalg.factor_mod_p":
            add("polyalg.factor_mod_p.degree_sum", s.note.get("degree", 0))
        elif s.name == "numfield.dedekind_split" and _has_ancestor(
                spans, i, "selberg.find_congruence_level"):
            add("selberg.find_congruence_level.primes_scanned", 1)
        elif s.name == "kernels.poly_root_count_over_primes" and s.note:
            add("kernels.poly_root_count_over_primes.primes",
                prime_count(s.note["lo"], s.note["hi"]))
        elif s.name == "kernels.prime_count_in_classes" and s.note:
            add("kernels.prime_count_in_classes.span",
                max(0, s.note["hi"] - s.note["lo"]))
        if s.name == "construct.interval_certificate" and \
                parent == "construct.choose_T":
            add("construct.T_candidates", 1)
            add("construct.T_hits", int(s.note.get("ok", False)))
        if parent == "construct.build_construction" and \
                s.name.split(".", 1)[1] in CHECK_FUNCTIONS:
            add("construct.checks.s", s.duration)
    return out


def call_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """What a wrapper adds to one call: the median over `repeats` batches of
    a wrapped no-op's time minus the bare no-op's, per call."""
    def noop(*args):
        return None

    tr = Tracer(targets=())
    wrapped = tr._wrap(Target("trace", "", "noop"), noop)
    costs = []
    for _ in range(repeats):
        tr.spans.clear()
        t0 = perf_counter()
        for i in range(calls):
            noop(i)
        t1 = perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(costs))


def merge(*raws: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for raw in raws:
        for key, value in raw.items():
            out[key] = out.get(key, 0) + value
    return out


def finalize(raw: dict[str, float]) -> dict[str, float]:
    """Turn additive sums into reported values (ratios need both sums)."""
    out = {k: v for k, v in raw.items() if k != "construct.T_hits"}
    tries = raw.get("construct.T_candidates", 0)
    out["construct.T_hit_ratio"] = (raw.get("construct.T_hits", 0) / tries
                                    if tries else 0.0)
    return out
