"""Per-layer spans and counters for a traced benchmark round.

Nothing in ``src/`` is edited.  :meth:`Tracer.install` replaces public functions of
the ``k3bps`` modules, in every ``k3bps.*`` namespace that holds them, and
the hot public methods of the substrate classes, with wrappers that either
time a span or only count calls.  A span's self time is its duration minus
the time covered by the spans it encloses.  Spans are aggregated in memory
as they close; nothing is written until the round reports its numbers.

Cache and waste counters come from public attributes only:
``sine_bracket.cache_info()``, ``lambda_power.cache_info()`` and
``PairsLedger.imprimitive_entries``.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Spanned module-level functions: (module, attribute, metric prefix).
SPANNED_FUNCTIONS = (
    ("kkv", "bps_grid_from_kkv", "kkv.bps_grid_from_kkv"),
    ("kkv", "kkv_product", "kkv.kkv_product"),
    ("kkv", "lambda_decompose", "kkv.lambda_decompose"),
    ("bps", "sine_bracket", "bps.sine_bracket"),
    ("bps", "gw_grade_series", "bps.gw_grade_series"),
    ("bps", "bps_from_gw", "bps.bps_from_gw"),
    ("pairs", "substitute_q_minus_exp", "pairs.substitute_q_minus_exp"),
    ("pairs", "multiple_cover", "pairs.multiple_cover"),
    ("rational", "check_q_inversion_symmetry", "rational.check_q_inversion_symmetry"),
    ("nl", "combine", "nl.combine"),
    ("nl", "invert_correspondence", "nl.invert_correspondence"),
    ("nl", "transfer_mnop", "nl.transfer_mnop"),
    ("cli", "main", "cli.main"),
)

# Spanned methods: (module, class, attribute, metric prefix).
SPANNED_METHODS = (
    ("series", "LaurentSeries", "inverse", "series.inverse"),
    ("nl", "NlMatrix", "inverse_data", "nl.inverse_data"),
    ("graded", "GradedSeries", "exp", "graded.exp"),
    ("graded", "GradedSeries", "log", "graded.log"),
)

# Count-only methods, too hot for a span: (module, class, attributes, metric prefix).
COUNTED_METHODS = (
    ("symlaurent", "SymLaurentPoly", ("__mul__", "__rmul__"), "symlaurent.mul"),
    ("series", "LaurentSeries", ("__mul__", "__rmul__"), "series.mul"),
    ("scalars", "GaussianRational", ("__mul__", "__rmul__"), "scalars.gaussian_mul"),
    ("rational", "RationalFunction", ("__init__",), "rational.canonicalize"),
)

# The names ``k3bps check`` gives its checks, in run order.
CHECK_NAMES = (
    "kkv-table",
    "yau-zaslow",
    "grid-laws",
    "aspinwall-morrison",
    "footnote-series",
    "substitution-identity",
    "mnop-grid",
    "pairs-symmetry",
    "exp-log-roundtrip",
    "gv-roundtrip",
    "lambda-roundtrip",
    "nl-roundtrip",
    "nl-transfer",
)


class _Stat:
    __slots__ = ("calls", "raised", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.raised = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregates span times and call counts for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, int] = {}
        self.grid_columns = 0
        self.ledgers: dict[int, object] = {}
        self._open: list[float] = []  # child time accumulated by each open span
        self._originals: dict[str, object] = {}

    def stat(self, name: str) -> _Stat:
        if name not in self.stats:
            self.stats[name] = _Stat()
        return self.stats[name]

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` in a span named ``name``.

        ``on_result`` sees each return value; a string it returns files the
        span under that name instead.
        """
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            key = name
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    key = on_result(result) or name
                return result
            except BaseException:
                self.stat(key).raised += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stat = self.stat(key)
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public entry points of every loaded ``k3bps`` module."""
        import k3bps.cli  # noqa: F401  (loads checks and cli before wrapping)

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "k3bps"]

        def rebind(original, wrapped) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

        def submodule(name):
            return sys.modules[f"k3bps.{name}"]

        for mod, attr, name in SPANNED_FUNCTIONS:
            original = getattr(submodule(mod), attr)
            self._originals[name] = original
            hook = self._count_columns if name == "kkv.bps_grid_from_kkv" else None
            rebind(original, self.span(name, original, hook))
        checks = submodule("checks")
        for attr, check in list(vars(checks).items()):
            if attr.startswith("check_") and getattr(check, "__module__", "") == checks.__name__:
                rebind(check, self.span("checks.unnamed", check, self._check_key))
        for mod, cls_name, attr, name in SPANNED_METHODS:
            cls = getattr(submodule(mod), cls_name)
            setattr(cls, attr, self.span(name, getattr(cls, attr)))
        for mod, cls_name, attrs, name in COUNTED_METHODS:
            cls = getattr(submodule(mod), cls_name)
            for attr in attrs:
                setattr(cls, attr, self.counter(name, getattr(cls, attr)))
        ledger_cls = submodule("pairs").PairsLedger
        ledger_cls.imprimitive = self._ledger_lookup(ledger_cls.imprimitive)

    def _count_columns(self, grid) -> None:
        self.grid_columns += grid.h_max + 1

    @staticmethod
    def _check_key(result) -> str:
        return f"checks.{result.name}"

    def _ledger_lookup(self, method):
        counted = self.counter("pairs.ledger.lookups", method)
        ledgers = self.ledgers

        def imprimitive(ledger, d, h):
            ledgers.setdefault(id(ledger), ledger)
            return counted(ledger, d, h)

        return imprimitive

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the round, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def span(name, *fields):
            stat = self.stats.get(name, _Stat())
            for field in fields:
                unit = "count" if field in ("calls", "raised") else "s"
                out[f"{name}.{field}"] = (getattr(stat, field), unit)

        def calls(name):
            out[f"{name}.calls"] = (self.counts.get(name, 0), "count")

        def ratio(useful, attempted):
            return (useful / attempted if attempted else 0.0), "ratio"

        span("kkv.bps_grid_from_kkv", "total_s")
        span("kkv.kkv_product", "self_s")
        span("kkv.lambda_decompose", "self_s")
        out["kkv.grid_columns"] = (self.grid_columns, "count")
        lam = self._lru_info("kkv", "lambda_power")
        out["kkv.lambda_power.hits"] = (lam.hits, "count")
        out["kkv.lambda_power.misses"] = (lam.misses, "count")
        calls("symlaurent.mul")

        sine = self._lru_info("bps", "sine_bracket")
        out["bps.sine_bracket.hits"] = (sine.hits, "count")
        out["bps.sine_bracket.misses"] = (sine.misses, "count")
        out["bps.sine_bracket.hit_ratio"] = ratio(sine.hits, sine.hits + sine.misses)
        span("bps.sine_bracket", "self_s")
        span("bps.gw_grade_series", "calls", "self_s")
        span("bps.bps_from_gw", "self_s")

        span("pairs.substitute_q_minus_exp", "calls", "self_s", "raised")
        calls("series.mul")
        span("series.inverse", "calls", "self_s")
        calls("scalars.gaussian_mul")

        span("pairs.multiple_cover", "calls", "self_s")
        lookups = self.counts.get("pairs.ledger.lookups", 0)
        computed = sum(len(ledger.imprimitive_entries) for ledger in self.ledgers.values())
        out["pairs.ledger.lookups"] = (lookups, "count")
        out["pairs.ledger.hit_ratio"] = ratio(lookups - computed, lookups)
        calls("rational.canonicalize")
        span("rational.check_q_inversion_symmetry", "self_s")
        span("nl.combine", "self_s")
        span("nl.invert_correspondence", "self_s")
        inverse = self.stats.get("nl.inverse_data", _Stat())
        out["nl.inverse_data.calls"] = (inverse.calls, "count")
        out["nl.inverse_data.singular"] = (inverse.raised, "count")
        out["nl.inverse_data.useful_ratio"] = ratio(inverse.calls - inverse.raised, inverse.calls)
        span("nl.transfer_mnop", "self_s")

        span("graded.exp", "self_s")
        span("graded.log", "self_s")
        for check in CHECK_NAMES:
            span(f"checks.{check}", "total_s")
        span("cli.main", "self_s")
        return out

    def _lru_info(self, module: str, attr: str):
        original = self._originals.get(f"{module}.{attr}") or getattr(
            sys.modules[f"k3bps.{module}"], attr
        )
        return original.cache_info()
