"""Bench history tests: one summary line per run in bench_history.jsonl."""

import json

from repro.bench import HISTORY_SCHEMA, append_history, history_entry


def _artifact():
    """A synthetic repro.bench/1 artifact, small but structurally real."""

    def leg(median):
        return {
            "median_s": median,
            "iqr_s": 0.001,
            "min_s": median,
            "max_s": median * 1.1,
            "trials_s": [median] * 3,
        }

    return {
        "schema": "repro.bench/1",
        "machine": {"platform": "test", "python": "3.x", "cpus": 2},
        "settings": {"warmup": 1, "trials": 3},
        "suites": {
            "corpus": {
                "description": "the timing corpus",
                "legs": {
                    "on": leg(0.5),
                    "off": leg(1.0),
                    "guard": leg(0.51),
                },
                "cache_speedup": 2.0,
                "guard_overhead": 1.02,
                # An older artifact's ratio: not carried into new lines.
                "planner_speedup": 1.5,
            },
            "cholsky": {
                "description": "the kernel",
                "legs": {"on": leg(0.1), "off": leg(0.3)},
                "cache_speedup": 3.0,
                "guard_overhead": 1.0,
            },
        },
    }


class TestHistoryEntry:
    def test_entry_shape(self):
        entry = history_entry(
            _artifact(), sha="abc1234", when="2026-08-07T00:00:00+00:00"
        )
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["sha"] == "abc1234"
        assert entry["when"] == "2026-08-07T00:00:00+00:00"
        assert entry["machine"]["platform"] == "test"
        assert entry["settings"] == {"warmup": 1, "trials": 3}
        assert sorted(entry["suites"]) == ["cholsky", "corpus"]
        corpus = entry["suites"]["corpus"]
        assert corpus["median_s"] == {
            "guard": 0.51,
            "off": 1.0,
            "on": 0.5,
        }
        assert corpus["cache_speedup"] == 2.0
        assert corpus["guard_overhead"] == 1.02
        assert "planner_speedup" not in corpus

    def test_default_timestamp_is_utc_iso(self):
        entry = history_entry(_artifact(), sha="abc1234")
        assert "T" in entry["when"]
        assert entry["when"].endswith("+00:00")

    def test_medians_are_rounded(self):
        artifact = _artifact()
        artifact["suites"]["corpus"]["legs"]["on"]["median_s"] = 0.123456789
        entry = history_entry(artifact, sha="x", when="t")
        assert entry["suites"]["corpus"]["median_s"]["on"] == 0.123457


class TestAppendHistory:
    def test_appends_one_sorted_json_line_per_call(self, tmp_path):
        path = tmp_path / "bench_history.jsonl"
        first = append_history(
            _artifact(), path, sha="aaa", when="2026-08-07T00:00:00+00:00"
        )
        append_history(
            _artifact(), path, sha="bbb", when="2026-08-07T01:00:00+00:00"
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == first
        assert [json.loads(line)["sha"] for line in lines] == ["aaa", "bbb"]
        # Lines are emitted with sorted keys, so the file diffs cleanly.
        assert lines[0] == json.dumps(first, sort_keys=True)

    def test_real_sha_lookup_tolerates_no_git(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # outside any git repository? still fine
        entry = history_entry(_artifact())
        assert entry["sha"] is None or isinstance(entry["sha"], str)
