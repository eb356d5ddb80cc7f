"""The perf-regression gate: floors, baselines, CLI exit codes."""

import json
import os

import pytest

from repro.cli import main
from repro.telemetry import benchgate

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))

#: Every committed benchmark result, auto-discovered so a newly added
#: BENCH_*.json is gated from the commit that introduces it — no
#: hand-maintained list to forget updating.
COMMITTED = benchgate.discover_bench_files(REPO_ROOT)

#: Files every checkout of this repo must carry (self-mode floors).
EXPECTED_COMMITTED = ("BENCH_simcore.json", "BENCH_blockplan.json",
                      "BENCH_windows.json")


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


class TestHeadlineLeaves:
    def test_nested_discovery(self):
        doc = {"floor": 2.0, "a": {"speedup": 3.0},
               "b": {"c": {"speedup": 4.0}},
               "throughput_kblocks_per_s": 120.0,
               "noise": {"profiles": 9}}
        leaves = dict(benchgate.headline_leaves(doc))
        assert leaves == {"a.speedup": 3.0, "b.c.speedup": 4.0,
                          "throughput_kblocks_per_s": 120.0}


class TestSelfMode:
    def test_best_leaf_vs_floor_passes(self):
        checks = benchgate.check_file(
            "x.json", {"floor": 2.0, "slow": {"speedup": 1.2},
                       "fast": {"speedup": 2.4}},
            baseline=None, tolerance=0.1)
        (check,) = checks
        assert check["mode"] == "floor"
        assert check["metric"] == "fast.speedup"
        assert check["ok"]

    def test_below_floor_fails(self):
        (check,) = benchgate.check_file(
            "x.json", {"floor": 2.0, "run": {"speedup": 1.5}},
            baseline=None, tolerance=0.1)
        assert not check["ok"]

    def test_no_headline_metrics_noted(self):
        (check,) = benchgate.check_file(
            "x.json", {"numbers": 3}, baseline=None, tolerance=0.1)
        assert check["ok"] and "note" in check


class TestBaselineMode:
    BASE = {"floor": 2.0, "unique": {"speedup": 3.0},
            "replicated": {"speedup": 27.0}}

    def test_fifteen_percent_regression_fails(self):
        current = {"floor": 2.0, "unique": {"speedup": 3.0 * 0.85},
                   "replicated": {"speedup": 27.0}}
        checks = benchgate.check_file("x.json", current, self.BASE,
                                      tolerance=0.10)
        by_metric = {c["metric"]: c for c in checks
                     if c["mode"] == "baseline"}
        assert not by_metric["unique.speedup"]["ok"]
        assert by_metric["replicated.speedup"]["ok"]

    def test_within_tolerance_passes(self):
        current = {"floor": 2.0, "unique": {"speedup": 3.0 * 0.95},
                   "replicated": {"speedup": 27.0}}
        checks = benchgate.check_file("x.json", current, self.BASE,
                                      tolerance=0.10)
        assert all(c["ok"] for c in checks)


class TestRunGate:
    def test_discovery_finds_every_expected_file(self):
        names = {os.path.basename(p) for p in COMMITTED}
        missing = set(EXPECTED_COMMITTED) - names
        assert not missing, f"committed BENCH files missing: {missing}"

    def test_committed_files_pass(self):
        assert len(COMMITTED) >= len(EXPECTED_COMMITTED)
        report = benchgate.run_gate(COMMITTED, tolerance=0.15)
        assert report["ok"], benchgate.render_gate(report)

    def test_unreadable_file_is_an_error_not_a_crash(self, tmp_path):
        bad = _write(tmp_path / "BENCH_bad.json", None)
        with open(bad, "w") as fh:
            fh.write("{nope")
        report = benchgate.run_gate([bad])
        assert report["errors"]
        assert not report["ok"]  # nothing checked -> fail closed


class TestCli:
    def test_pass_exit_zero(self, tmp_path):
        good = _write(tmp_path / "BENCH_g.json",
                      {"floor": 2.0, "run": {"speedup": 2.5}})
        assert main(["bench", "check", good]) == 0

    def test_injected_regression_exit_one(self, tmp_path, capsys):
        """Acceptance: a synthetic >=15% regression fails the gate."""
        committed = json.load(open(COMMITTED[0])) \
            if os.path.exists(COMMITTED[0]) else \
            {"floor": 3.0, "unique": {"speedup": 3.1}}
        regressed = json.loads(json.dumps(committed))
        for section in regressed.values():
            if isinstance(section, dict) and "speedup" in section:
                section["speedup"] *= 0.80  # 20% drop across the board

        baseline_dir = tmp_path / "base"
        baseline_dir.mkdir()
        _write(baseline_dir / "BENCH_r.json", committed)
        bad = _write(tmp_path / "BENCH_r.json", regressed)
        assert main(["bench", "check", bad, "--tolerance", "0.15",
                     "--against", str(baseline_dir)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        good = _write(tmp_path / "BENCH_g.json",
                      {"floor": 1.0, "run": {"speedup": 1.5}})
        assert main(["bench", "check", good, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["checks"][0]["metric"] == "run.speedup"

    def test_no_files_exit_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "check"]) == 2
