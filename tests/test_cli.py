"""Command-line interface."""

import pytest

from repro.cli import main


def test_profile_block_file(tmp_path, capsys):
    path = tmp_path / "block.s"
    path.write_text("xor %edx, %edx\ndiv %ecx\ntest %edx, %edx\n")
    assert main(["profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "22.00 cycles/iteration" in out
    assert "clean runs" in out


def test_profile_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.s"
    path.write_text("cpuid\n")
    assert main(["profile", str(path)]) == 1
    assert "unprofileable" in capsys.readouterr().out


def test_predict_all_models(tmp_path, capsys):
    path = tmp_path / "zi.s"
    path.write_text("vxorps %xmm2, %xmm2, %xmm2\n")
    assert main(["predict", str(path)]) == 0
    out = capsys.readouterr().out
    assert "IACA" in out and "llvm-mca" in out and "OSACA" in out


def test_predict_selected_model(tmp_path, capsys):
    path = tmp_path / "zi.s"
    path.write_text("vxorps %xmm2, %xmm2, %xmm2\n")
    assert main(["predict", str(path), "--model", "iaca"]) == 0
    out = capsys.readouterr().out
    assert "IACA" in out and "OSACA" not in out


def test_timings(capsys):
    assert main(["timings", "add", "imul"]) == 0
    out = capsys.readouterr().out
    assert "1.00" in out and "3.00" in out


def test_ports(capsys):
    assert main(["ports", "imul %rbx, %rax"]) == 0
    assert "p1" in capsys.readouterr().out


def test_corpus_export(tmp_path, capsys):
    out_path = tmp_path / "suite.csv"
    assert main(["corpus", "--scale", "0.0003",
                 "--out", str(out_path)]) == 0
    assert out_path.exists()
    from repro.corpus.io import load_csv
    blocks = list(load_csv(str(out_path)))
    assert len(blocks) > 50


def test_corpus_json_with_measurements(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
    out_path = tmp_path / "suite.json"
    assert main(["corpus", "--scale", "0.0002", "--measure",
                 "--out", str(out_path)]) == 0
    from repro.corpus.io import load_json
    corpus, measured = load_json(str(out_path))
    assert measured
    assert len(measured) <= len(corpus)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["warp"])


def test_trace_flag_exports_ndjson(tmp_path, capsys):
    from repro import telemetry

    block = tmp_path / "block.s"
    block.write_text("add %rbx, %rax\n")
    trace = tmp_path / "trace.ndjson"
    try:
        assert main(["profile", str(block),
                     "--trace", str(trace)]) == 0
    finally:
        telemetry.reset()
    records = telemetry.read_ndjson(str(trace))
    assert any(r["kind"] == "span" for r in records)


def test_telemetry_subcommand_writes_report(tmp_path, capsys,
                                            monkeypatch):
    from repro import telemetry

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
    try:
        assert main(["telemetry", "--scale", "0.0001", "--seed", "5",
                     "--report-dir", str(tmp_path / "reports")]) == 0
    finally:
        telemetry.reset()
    out = capsys.readouterr().out
    assert "coverage funnel" in out
    assert "stage timings" in out
    assert (tmp_path / "reports"
            / "run_validation_haswell.json").exists()


# ---------------------------------------------------------------------------
# One measurement path: every measuring command reads and fills the
# result store under $REPRO_CACHE.
# ---------------------------------------------------------------------------

VALIDATE = ["validate", "--scale", "0.0002", "--uarch", "haswell",
            "--jobs", "1"]


def _no_profiling(self, blocks):
    raise AssertionError("the store should have held every block")


@pytest.fixture()
def store_root(tmp_path, monkeypatch):
    """A fresh cache root; ``--strict``/``--salvage`` export
    ``REPRO_STRICT``, so it is restored after the test."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_STRICT", "0")
    return tmp_path / "cache"


def test_validate_twice_profiles_nothing_the_second_time(
        store_root, capsys, monkeypatch):
    from repro.profiler.harness import BasicBlockProfiler
    assert main(VALIDATE) == 0
    first = capsys.readouterr().out
    monkeypatch.setattr(BasicBlockProfiler, "profile_many",
                        _no_profiling)
    assert main(VALIDATE) == 0
    assert capsys.readouterr().out == first


def test_validate_over_a_corrupt_store(store_root, capsys):
    from repro.errors import StrictModeViolation
    assert main(VALIDATE) == 0
    clean = capsys.readouterr().out
    store = store_root / "results_0"
    log = store / "haswell.log"
    log.write_bytes(b"garbage " + log.read_bytes())  # its first line
    with pytest.raises(StrictModeViolation):
        main(VALIDATE + ["--strict"])
    assert not (store / "quarantine").exists()
    capsys.readouterr()
    assert main(VALIDATE + ["--salvage"]) == 0
    assert capsys.readouterr().out == clean
    assert len(list((store / "quarantine").iterdir())) == 1


def test_corpus_list_and_stream_share_one_store(store_root, tmp_path,
                                                monkeypatch):
    from repro.profiler.harness import BasicBlockProfiler
    listed, streamed = tmp_path / "list.csv", tmp_path / "stream.csv"
    corpus = ["corpus", "--scale", "0.0002", "--measure", "--jobs", "1"]
    assert main(corpus + ["--out", str(listed)]) == 0
    monkeypatch.setattr(BasicBlockProfiler, "profile_many",
                        _no_profiling)
    assert main(corpus + ["--stream", "--out", str(streamed)]) == 0
    assert streamed.read_bytes() == listed.read_bytes()


# ---------------------------------------------------------------------------
# ``repro corpus --out`` is replaced only by a run that succeeds.
# ---------------------------------------------------------------------------

MEASURE_CORPUS = ["corpus", "--scale", "0.0002", "--measure", "--jobs", "1",
                  "--uarch", "haswell"]


@pytest.mark.parametrize("stream", [False, True], ids=["list", "stream"])
@pytest.mark.parametrize("name", ["suite.csv", "suite.json"])
def test_failed_corpus_run_keeps_the_old_out_file(store_root, tmp_path,
                                                  name, stream):
    import os

    from repro.errors import StrictModeViolation
    outdir = tmp_path / "out"
    outdir.mkdir()
    out = outdir / name
    command = MEASURE_CORPUS + ["--out", str(out)] \
        + (["--stream"] if stream else [])
    assert main(command) == 0
    before = out.read_bytes()
    assert before.count(b"\n") > 100
    log = store_root / "results_0" / "haswell.log"
    log.write_bytes(b"garbage " + log.read_bytes())  # its first line
    with pytest.raises(StrictModeViolation):
        main(command + ["--strict"])
    assert out.read_bytes() == before
    assert os.listdir(outdir) == [name]


def test_successful_corpus_run_replaces_the_out_file(store_root, tmp_path):
    import os
    outdir = tmp_path / "out"
    outdir.mkdir()
    out, fresh = outdir / "suite.csv", outdir / "fresh.csv"
    out.write_text("stale\n")
    out.chmod(0o640)
    assert main(MEASURE_CORPUS + ["--out", str(out)]) == 0
    assert main(MEASURE_CORPUS + ["--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(outdir)) == ["fresh.csv", "suite.csv"]


def test_corpus_writes_devnull_in_place(store_root, capsys):
    import os
    assert main(MEASURE_CORPUS + ["--out", os.devnull]) == 0
    assert f"to {os.devnull}" in capsys.readouterr().out
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
