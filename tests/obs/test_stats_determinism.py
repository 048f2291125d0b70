"""``--stats`` determinism: section ordering is a contract.

Run records and ``repro diff`` consume metric snapshots; the plain-text
``--stats`` table is the same data for humans.  Both must list each
section (counters, gauges, histograms) in sorted order so output is
stable across cache settings and dict insertion order.
"""

import re

from repro.cli import main
from repro.obs import MetricsRegistry

KILL_PROGRAM = """
a(n) :=
for i := n to n+10 do a(i) :=
for i := n to n+20 do := a(i)
"""


def summary_names(text):
    """Metric names in table order from a ``--stats`` table (or a bare
    ``registry.summary()``), header, rule and trailing prose skipped."""

    lines = text.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("metric")]
    assert starts, f"no metrics table in: {text!r}"
    names = []
    for line in lines[starts[0] + 2:]:
        match = re.match(r"([a-z][\w.]+)\s{2}", line)
        if not match:
            break
        names.append(match.group(1))
    return names


class TestSummaryOrdering:
    def test_sections_sorted_regardless_of_insertion_order(self):
        registry = MetricsRegistry(catalog=())
        registry.inc("z.last")
        registry.inc("a.first")
        registry.set_gauge("m.gauge", 1.0)
        registry.observe("b.lat", 0.1)
        registry.observe("a.lat", 0.1)
        names = summary_names(registry.summary())
        # counters sorted, then gauges, then histograms sorted.
        assert names == ["a.first", "z.last", "m.gauge", "a.lat", "b.lat"]

    def test_summary_is_reproducible(self):
        registry = MetricsRegistry(catalog=())
        registry.inc("x.one")
        registry.observe("x.lat", 0.5)
        assert registry.summary() == registry.summary()


class TestCliStatsDeterminism:
    def run_stats(self, tmp_path, capsys, *flags):
        path = tmp_path / "kill.loop"
        path.write_text(KILL_PROGRAM)
        assert main(["analyze", str(path), "--stats", *flags]) == 0
        return capsys.readouterr().out

    def test_each_section_is_sorted(self, tmp_path, capsys):
        from repro.obs.metrics import GAUGES

        out = self.run_stats(tmp_path, capsys)
        names = summary_names(out)
        assert names, "expected a metrics table"
        histograms = [n for n in names if n.endswith("_seconds")]
        gauges = [n for n in names if n in GAUGES]
        counters = [
            n for n in names if n not in histograms and n not in gauges
        ]
        assert counters == sorted(counters)
        assert gauges == sorted(gauges)
        assert histograms == sorted(histograms)
        # Section order is fixed: counters, then gauges, then histograms.
        assert names == counters + gauges + histograms
