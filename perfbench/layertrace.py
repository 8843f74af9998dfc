"""Timing wrappers for the traced run, installed from outside the library.

Each wrapped entry point records a span (name, start, end, parent span, op
id) and aggregate counts.  Self time is a call's duration minus the time of
the wrapped calls it made.  A function is replaced under every name a
``stablimits`` module binds it to, because ``cli`` and ``pipeline`` import
``q_limit``, ``apply_limit_theorem`` and others by name; methods are replaced
on their class.  The hottest wrappers (the ``chars`` methods and
``theta_leading``) keep counts and self time only, so that the spans kept in
memory stay few; the others keep every span.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from typing import Any, Callable

# (metric prefix, module, attribute path, keep spans)
TARGETS = (
    ("chars.monomial_mul", "chars", "Monomial.__mul__", False),
    ("chars.monomial_new", "chars", "Monomial.__init__", False),
    ("chars.character_mul", "chars", "Character.__mul__", False),
    ("chars.rational_add", "chars", "RationalExpr.__add__", False),
    ("chars.rational_eq", "chars", "RationalExpr.__eq__", False),
    ("qseries.theta_leading", "qseries", "theta_leading", False),
    ("qseries.theta_series", "qseries", "theta_series", True),
    ("qseries.qseries_mul", "qseries", "QSeries.__mul__", True),
    ("qseries.numeric_theta_argument", "qseries", "numeric_theta_argument", True),
    ("balanced.q_limit", "balanced", "q_limit", True),
    ("balanced.z_limit", "balanced", "z_limit", True),
    ("balanced.quasiperiod_pairing", "balanced", "quasiperiod_pairing", True),
    ("hilbert.polarization", "hilbert", "polarization", True),
    ("hilbert.difference_scan", "hilbert", "difference_scan", True),
    ("hilbert.conjugation_matrices", "hilbert", "conjugation_matrices", True),
    ("framing.framing_report", "framing", "framing_report", True),
    ("framing.enumerate_fixed_components", "framing", "enumerate_fixed_components", True),
    ("pipeline.from_json", "pipeline", "RestrictionMatrix.from_json", True),
    ("pipeline.validate_section", "pipeline", "validate_section", True),
    ("pipeline.apply_limit_theorem", "pipeline", "apply_limit_theorem", True),
    ("pipeline.check_stab_axioms", "pipeline", "check_stab_axioms", True),
    ("pipeline.expected_diagonal", "pipeline", "expected_diagonal", True),
    ("cli.main", "cli", "main", True),
)
LAYERS = ("chars", "qseries", "balanced", "hilbert", "framing", "pipeline", "cli")
MAX_SPANS = 1_000_000


class Stat:
    __slots__ = ("calls", "self_ns", "extra")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.extra: dict[str, Any] = {}


def _terms(expr) -> tuple[int, int]:
    """Numerator and denominator term counts, read from the JSON form."""
    data = expr.to_json()
    return len(data["num"]["terms"]), len(data["den"]["terms"])


def _freeze(x):
    if isinstance(x, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return x


def _q_limit_hook(stat: Stat, args, kwargs, result):
    num, den = _terms(result[1])
    e = stat.extra
    e["num_terms_max"] = max(e.get("num_terms_max", 0), num)
    e["den_terms_max"] = max(e.get("den_terms_max", 0), den)
    e["den_terms_sum"] = e.get("den_terms_sum", 0) + den


def _z_limit_hook(stat: Stat, args, kwargs, result):
    e = stat.extra
    e["terms_in"] = e.get("terms_in", 0) + sum(_terms(args[0]))
    e["terms_out"] = e.get("terms_out", 0) + sum(_terms(result))


def _distinct_hook(stat: Stat, args, kwargs, result):
    stat.extra.setdefault("distinct", set()).add(_freeze((args, kwargs)))


HOOKS: dict[str, Callable] = {
    "balanced.q_limit": _q_limit_hook,
    "balanced.z_limit": _z_limit_hook,
    "hilbert.polarization": _distinct_hook,
    "pipeline.expected_diagonal": _distinct_hook,
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_id = 0
        # frame: [child time in ns, id of the nearest kept span, layer]
        self._stack: list[list] = [[0, None, "bench"]]
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn: Callable, keep: bool) -> Callable:
        layer = name.split(".")[0]
        stat = self.stats[name]
        hook = HOOKS.get(name)
        stack, spans, ids, errors = self._stack, self.spans, self._ids, self.errors
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids) if keep else parent[1]
            frame = [0, sid, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent[2] != layer:
                    errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                stat.calls += 1
                stat.self_ns += t1 - t0 - frame[0]
                parent[0] += t1 - t0
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((sid, parent[1], tracer.op_id, name, t0, t1))
                    else:
                        tracer.dropped_spans += 1
            if hook is not None:
                h0 = clock()
                hook(stat, args, kwargs, result)
                parent[0] += clock() - h0  # keep hook time out of every self time
            return result

        return traced

    def prepare(self, modules: dict[str, Any]) -> None:
        """Build the wrappers for every target in the given ``stablimits``
        modules (by short name); ``install`` and ``remove`` then swap them."""
        for name, module, path, keep in TARGETS:
            owner = modules[module]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"stablimits.{module}.{path}")  # its metrics read 0
                continue
            if outer:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, keep))
                else:
                    new = self._wrap(name, raw, keep)
                self._patches.append((owner, attr, raw, new))
                continue
            original = getattr(owner, attr)
            new = self._wrap(name, original, keep)
            for mod in modules.values():
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, new))

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def op_span(self, label: str, fn: Callable) -> Any:
        """Run one benchmark operation as a root span with a fresh op id."""
        self.op_id += 1
        sid = next(self._ids)
        self._stack.append([0, sid, "bench"])
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, None, self.op_id, label, t0, t1))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")

    def metrics(self, entries: int, cli_records: int, cli_bytes: int) -> dict:
        """The per-layer metrics of the traced pass, as {name: (value, unit)}."""
        s = self.stats

        def calls(name):
            return s[name].calls

        def self_s(name):
            return s[name].self_ns / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in ("chars.monomial_mul", "chars.character_mul", "chars.rational_add",
                     "chars.rational_eq", "chars.monomial_new", "qseries.theta_leading",
                     "qseries.theta_series", "qseries.qseries_mul",
                     "qseries.numeric_theta_argument", "balanced.q_limit", "balanced.z_limit",
                     "hilbert.polarization", "framing.enumerate_fixed_components",
                     "pipeline.expected_diagonal"):
            out[f"{name}.calls"] = (calls(name), "count")
        for name in ("chars.character_mul", "chars.rational_add", "chars.rational_eq",
                     "chars.monomial_new", "qseries.theta_leading", "qseries.theta_series",
                     "qseries.numeric_theta_argument", "balanced.q_limit", "balanced.z_limit",
                     "hilbert.polarization", "hilbert.difference_scan",
                     "hilbert.conjugation_matrices", "framing.framing_report",
                     "pipeline.from_json", "pipeline.apply_limit_theorem",
                     "pipeline.check_stab_axioms", "cli.main"):
            out[f"{name}.self_s"] = (self_s(name), "s")
        q = s["balanced.q_limit"].extra
        out["balanced.q_limit.num_terms_max"] = (q.get("num_terms_max", 0), "count")
        out["balanced.q_limit.den_terms_max"] = (q.get("den_terms_max", 0), "count")
        out["balanced.q_limit.den_terms_sum"] = (q.get("den_terms_sum", 0), "count")
        z = s["balanced.z_limit"].extra
        out["balanced.z_limit.kept_term_ratio"] = (
            ratio(z.get("terms_out", 0), z.get("terms_in", 0)), "1")
        out["balanced.quasiperiod_pairing.calls_per_entry"] = (
            ratio(calls("balanced.quasiperiod_pairing"), entries), "1")
        # per limit-apply run: every CLI run on the matrix workload is one
        out["pipeline.validate_section.calls_per_op"] = (
            ratio(calls("pipeline.validate_section"), calls("cli.main")), "1")
        for name in ("hilbert.polarization", "pipeline.expected_diagonal"):
            distinct = len(s[name].extra.get("distinct", ()))
            out[f"{name}.distinct_ratio"] = (ratio(distinct, calls(name)), "1")
        out["cli.records"] = (cli_records, "count")
        out["cli.bytes_out"] = (cli_bytes, "B")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out


def loaded_modules() -> dict[str, Any]:
    """The loaded ``stablimits`` package and its submodules, by short name."""
    mods = {"stablimits": sys.modules["stablimits"]}
    for layer in LAYERS:
        mods[layer] = sys.modules[f"stablimits.{layer}"]
    return mods
