"""The shared-artifact writer: a refresh keeps other writers' sections."""

import json

from _harness import merge_json


def test_merge_keeps_other_sections(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    e17b = {"engine": "events-fast", "points": [{"events": 12}]}
    path.write_text(json.dumps({"curve": {"points": [1]}, "e17b": e17b}))

    merged = merge_json(path, {"curve": {"points": [2]}, "events": {"x": 1}})

    on_disk = json.loads(path.read_text())
    assert on_disk == merged
    assert on_disk == {"curve": {"points": [2]}, "e17b": e17b,
                       "events": {"x": 1}}
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_engine.json"]


def test_merge_creates_missing_file(tmp_path):
    path = tmp_path / "results" / "out.json"
    assert merge_json(path, {"a": 1}) == {"a": 1}
    assert json.loads(path.read_text()) == {"a": 1}
