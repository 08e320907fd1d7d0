"""The paper-table runner's CLI contract, which CI's report steps rely on."""

import json
import pathlib
import subprocess
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"


@pytest.fixture
def tables(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tables

    monkeypatch.setattr(tables, "REPORTS", tmp_path / "reports")
    return tables


def test_unknown_id_exits_non_zero():
    completed = subprocess.run(
        [sys.executable, str(BENCHMARKS / "tables.py"), "E3", "E99"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert "E99" in completed.stderr
    assert not completed.stdout, "no table runs when one id is unknown"


def test_json_holds_exactly_the_requested_ids(tables, tmp_path):
    out = tmp_path / "report.json"
    assert tables.main(["E17", "E16", "--json", str(out)]) == 0
    written = json.loads(out.read_text())
    assert list(written) == ["E17", "E16"]
    for table_id, report in written.items():
        assert report["schema"] == tables.TABLES[table_id].schema
    assert sorted(p.name for p in tables.REPORTS.iterdir()) == ["e16.txt", "e17.txt"]


def test_json_refuses_a_table_without_a_schema(tables, tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        tables.main(["E16", "E3", "--json", str(out)])
    assert exit_info.value.code != 0
    assert not out.exists() and not tables.REPORTS.exists()


def test_schemas_of_the_ci_artifacts_are_pinned(tables):
    assert {t.id: t.schema for t in tables.TABLES.values() if t.schema} == {
        "E16": "repro-bench-partition-failover/1",
        "E17": "repro-bench-elasticity/1",
        "E18": "repro-bench-read-paths/1",
    }
