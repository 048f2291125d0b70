"""Catalog conformance: no undocumented metric series, ever.

Walks every module under ``src/repro`` with the AST and collects the
string-literal names passed to ``inc(...)``, ``observe(...)`` and
``set_gauge(...)`` (bare or attribute calls — ``_metrics.inc``,
``registry.observe`` and friends all count).  Every name found must be
declared in the metrics catalog, so ``--stats`` tables, ``--metrics-out``
snapshots and the serve ``/stats`` report never surface a series the
catalog does not document.
"""

import ast
import pathlib

import repro
from repro.obs.metrics import CATALOG, GAUGES, LATENCY_HISTOGRAMS

SRC_ROOT = pathlib.Path(repro.__file__).parent

#: method name -> catalog the string-literal first argument must be in.
_SINKS = {
    "inc": ("counter", frozenset(CATALOG)),
    "observe": ("histogram", frozenset(LATENCY_HISTOGRAMS)),
    "set_gauge": ("gauge", frozenset(GAUGES)),
}


def emitted_names():
    """Yield (metric kind, name, file:line) for every emission site."""

    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name not in _SINKS or not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                kind, _ = _SINKS[name]
                where = f"{path.relative_to(SRC_ROOT.parent)}:{node.lineno}"
                yield kind, first.value, where


class TestCatalogConformance:
    def test_every_emitted_series_is_catalogued(self):
        strays = [
            (kind, name, where)
            for kind, name, where in emitted_names()
            if name not in _SINKS_BY_KIND[kind]
        ]
        assert not strays, (
            "metric series emitted but missing from the catalog "
            "(add them to repro.obs.metrics): "
            + ", ".join(f"{kind} {name!r} at {where}" for kind, name, where in strays)
        )

    def test_the_scan_actually_sees_the_hot_paths(self):
        found = {(kind, name) for kind, name, _ in emitted_names()}
        assert ("counter", "analysis.pairs_analyzed") in found
        assert ("counter", "serve.requests") in found
        assert ("histogram", "analysis.pair_seconds") in found
        assert ("gauge", "omega.cache.size") in found

    def test_catalog_has_no_duplicates(self):
        assert len(CATALOG) == len(set(CATALOG))
        assert len(LATENCY_HISTOGRAMS) == len(set(LATENCY_HISTOGRAMS))
        assert len(GAUGES) == len(set(GAUGES))


_SINKS_BY_KIND = {kind: names for kind, names in _SINKS.values()}
