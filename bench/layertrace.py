"""Spans and counters around the package's layers, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent) and then
calls the original.  A function imported by name into another
``quadbalance`` module is replaced there too, and ``SimplicialComplex``
methods are replaced on the class, so calls between layers are seen
whichever way they are made.  ``uninstall`` puts every original back.

Self time is a span's duration minus the time its child spans cover,
accumulated as spans close.  Spans stay in memory (compact arrays, up to
``MAX_SPANS``) and are written out once, at the end of the run.  The
counters are read from arguments, return values and module state at the
same boundaries.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "cli", "covers", "linalg", "regseq", "hilbert", "lpp", "homology",
    "simplicial", "balance", "reports", "jsonio",
)
# the enumeration behind minimal_primes and independence_complex; private,
# but it is where the covers layer spends its time
EXTRA = (("covers", "_minimal_transversals"), ("monomials", "polarize"))
HOMOLOGY_ENTRIES = (
    "homology.is_cohen_macaulay", "homology.total_betti_numbers",
    "homology.depth_and_pd", "homology.reduced_homology_ranks",
)
MAX_SPANS = 1_000_000


def _field_is_q(args, kwargs) -> bool:
    field = args[1] if len(args) > 1 else kwargs.get("field")
    return field is None or getattr(field, "name", None) == "Q"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack: list = []  # [span index, child seconds]
        self._homology_q: list = []  # field of each open homology entry span
        self._patches: list = []  # (owner, attribute, original)
        self.wrapped: set = set()  # names of the functions install() replaced
        self.reset()

    def reset(self):
        """Start a new aggregation window; spans already kept stay kept."""
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)

    # ---------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        index = -1
        if len(self.span_name) < MAX_SPANS:
            index = len(self.span_name)
            self.span_name.append(self._name_id(name))
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            if index >= 0:
                self.span_start[index] = start
                self.span_end[index] = end
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_s[name] += duration - frame[1]

    # ---------------------------------------------------------- installing

    def _wrap(self, name: str, fn):
        self.wrapped.add(name)
        hook = _HOOKS.get(name)
        homology_entry = name in HOMOLOGY_ENTRIES
        tracer = self

        def traced(*args, **kwargs):
            if homology_entry:
                tracer._homology_q.append(_field_is_q(args, kwargs))
            try:
                result = tracer.span(name, fn, *args, **kwargs)
            finally:
                if homology_entry:
                    tracer._homology_q.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute: str, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        modules = {name: importlib.import_module(f"quadbalance.{name}") for name in LAYERS}
        modules["monomials"] = importlib.import_module("quadbalance.monomials")
        targets = []  # (module name, attribute name, function)
        for name in LAYERS:
            mod = modules[name]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    targets.append((name, attr, value))
        for name, attr in EXTRA:
            targets.append((name, attr, getattr(modules[name], attr)))
        wrappers = {id(fn): self._wrap(f"{name}.{attr}", fn) for name, attr, fn in targets}
        # every quadbalance namespace holding one of the originals, by any name
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        cx = modules["simplicial"].SimplicialComplex
        for attr, value in list(vars(cx).items()):
            if inspect.isfunction(value) and not attr.startswith("_"):
                self._patch(cx, attr, self._wrap(f"simplicial.SimplicialComplex.{attr}", value))
            elif isinstance(value, classmethod):
                fn = value.__func__
                name = f"simplicial.SimplicialComplex.{attr}"
                self._patch(cx, attr, classmethod(self._wrap(name, fn)))
        unhooked = sorted(set(_HOOKS) - self.wrapped)
        if unhooked:
            self.uninstall()
            raise LookupError(f"counter hooks on functions that were not wrapped: {unhooked}")

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------------- output

    def write(self, path: str):
        n = len(self.span_name)
        doc = {
            "names": self.names,
            "dropped": self.dropped,
            "columns": ["name", "parent", "start", "end"],
            "spans": [
                [self.span_name[i], self.span_parent[i],
                 round(self.span_start[i], 7), round(self.span_end[i], 7)]
                for i in range(n)
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if (name == "quadbalance" or name.startswith("quadbalance.")) and mod is not None
    ]


# ---------------------------------------------------------------------------
# counters, keyed by the wrapped function they are read from


def _rank_hook(tracer, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    rows = list(rows) if not isinstance(rows, list) else rows
    tracer.counters["linalg.rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _bareiss_hook(tracer, args, kwargs, result):
    _rank_hook(tracer, args, kwargs, result)
    if tracer._homology_q and tracer._homology_q[-1]:
        tracer.counters["linalg.homology_q_bareiss"] += 1


def _modular_hook(tracer, args, kwargs, result):
    _rank_hook(tracer, args, kwargs, result)
    if tracer._homology_q and tracer._homology_q[-1]:
        tracer.counters["linalg.homology_q_modular"] += 1


def _count(key: str, measure):
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] += measure(args, kwargs, result)

    return hook


def _lpp_hook(tracer, args, kwargs, result):
    tracer.counters["lpp.generators_built"] += len(result.ideal.generators)
    tracer.maxima["lpp.top_degree_max"] = max(
        tracer.maxima["lpp.top_degree_max"], result.top_degree
    )


def _verify_hook(tracer, args, kwargs, result):
    obj = args[0] if args else kwargs["obj"]
    cap = getattr(importlib.import_module("quadbalance.reports"), "_SERIES_RECHECK_CAP", 3000)
    if obj.get("kind") == "egh" and len(obj.get("generators", ())) > cap:
        tracer.counters["reports.series_skipped"] += 1


# every counter a hook can raise, so that one no call raised still reads 0
COUNTERS = (
    "covers.primes_listed", "regseq.attempts", "regseq.subsets_checked",
    "linalg.rank_cells", "linalg.homology_q_bareiss", "linalg.homology_q_modular",
    "lpp.generators_built", "lpp.top_degree_max", "homology.faces_checked",
    "homology.pd_null", "reports.series_skipped", "jsonio.bytes_parsed",
    "jsonio.bytes_emitted",
)

_HOOKS = {
    "linalg.bareiss_rank": _bareiss_hook,
    "linalg.modular_rank": _modular_hook,
    "covers._minimal_transversals": _count("covers.primes_listed", lambda a, k, r: len(r)),
    "regseq.find_regular_sequence": _count("regseq.attempts", lambda a, k, r: r.attempts),
    "regseq.certify_transversal_ranks": _count(
        "regseq.subsets_checked", lambda a, k, r: r.subsets_checked
    ),
    "lpp.construct_lex_plus_powers": _lpp_hook,
    "homology.is_cohen_macaulay": _count(
        "homology.faces_checked", lambda a, k, r: r.faces_checked
    ),
    "reports.egh_report": _count(
        "homology.pd_null", lambda a, k, r: int(r["pd_result"] is None)
    ),
    "reports.verify_report": _verify_hook,
    "jsonio.parse_json_text": _count("jsonio.bytes_parsed", lambda a, k, r: len(a[0])),
    "jsonio.canonical_json": _count("jsonio.bytes_emitted", lambda a, k, r: len(r)),
}
