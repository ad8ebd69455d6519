"""The rebuilt telechat CLI: exit codes, --json inventories, and the
streaming campaign output."""

import json
from pathlib import Path

import pytest

from repro.papertests import FIG7_SOURCE
from repro.pipeline.cli import main


@pytest.fixture
def lb_file(tmp_path):
    path = tmp_path / "lb.litmus.c"
    path.write_text(FIG7_SOURCE)
    return str(path)


class TestExitCodes:
    def test_positive_verdict_exits_nonzero(self, lb_file, capsys):
        """Shell scripts and CI gate on ``telechat test``: a found bug
        (positive difference) is exit code 1."""
        assert main(["test", lb_file, "--arch", "aarch64"]) == 1
        assert "positive" in capsys.readouterr().out

    def test_clean_verdict_exits_zero(self, lb_file):
        assert main(["test", lb_file, "--arch", "aarch64",
                     "--cmem", "rc11+lb"]) == 0

    def test_truncated_test_file_exits_2(self, tmp_path, capsys):
        """Bad input exits 2 with a file:line diagnostic — never exit 1,
        which means "positive found"."""
        path = tmp_path / "cut.litmus.c"
        path.write_text(FIG7_SOURCE.split("exists")[0].rstrip().rstrip("}"))
        assert main(["test", str(path), "--arch", "aarch64"]) == 2
        assert "unexpected end of litmus test" in capsys.readouterr().err

    def test_campaign_resume_without_store_is_usage_error(self, capsys):
        assert main(["campaign", "--small", "--resume"]) == 2
        assert "--resume needs --store" in capsys.readouterr().err


#: (command line, the path the diagnostic must name) for every command
#: that reads an input file; ``{missing}`` does not exist and ``{dir}``
#: is a directory, so neither can be read
IO_ERROR_CASES = [
    (["test", "{missing}", "--arch", "aarch64"], "{missing}"),
    (["test", "{dir}", "--arch", "aarch64"], "{dir}"),
    (["explain", "{missing}"], "{missing}"),
    (["reduce", "{missing}"], "{missing}"),
    (["lint", "{missing_cat}"], "{missing_cat}"),
    (["lint", "{dir}"], "{dir}"),
    (["farm", "diff", "{missing}", "{missing}"], "{missing}"),
    (["farm", "diff", "{baseline}", "{missing}"], "{missing}"),
]

CORPUS = str(Path(__file__).parent / "corpus")

#: (command line, what the one-line diagnostic must say) for campaign
#: plans that fail validation: bad input, so exit 2 like a bad file
PLAN_ERROR_CASES = [
    (["campaign", "--small", "--processes", "-1"], "processes must be >= 0"),
    (["hunt", "--seeds", "examples", "--processes", "-1"],
     "processes must be >= 0"),
    (["farm", "run", "--root", CORPUS, "--processes", "-1"],
     "processes must be >= 0"),
    (["campaign", "--small", "--cmem", "nosuchmodel"], "'nosuchmodel'"),
    (["hunt", "--seeds", "examples", "--cmem", "nosuchmodel"],
     "'nosuchmodel'"),
    (["farm", "run", "--root", CORPUS, "--cmem", "nosuchmodel"],
     "'nosuchmodel'"),
    (["campaign", "--small", "--opt=-O9"], "'-O9'"),
    (["hunt", "--seeds", "examples", "--opt=-O9"], "'-O9'"),
]

#: (command line, what the one-line diagnostic must say) for single-test
#: commands whose profile or source model does not resolve; ``{lb}`` is
#: a readable litmus file
RUN_ERROR_CASES = [
    (["test", "{lb}", "--opt=-O9"], "does not support -O9"),
    (["explain", "fig7_lb", "--opt=-O9"], "does not support -O9"),
    (["explain", "fig7_lb", "--diff", "nosuch-O2-AArch64"],
     "--diff nosuch-O2-AArch64: unknown compiler"),
    (["explain", "fig7_lb", "--arch", "x86_64", "--diff", "gcc-O2-AArch64"],
     "common architecture"),
    (["test", "{lb}", "--cmem", "nosuch"], "--cmem nosuch: unknown model"),
    (["explain", "fig7_lb", "--cmem", "nosuch"],
     "--cmem nosuch: unknown model"),
    (["reduce", "fig7_lb", "--cmem", "nosuch"],
     "--cmem nosuch: unknown model"),
]


class TestInputErrors:
    @pytest.mark.parametrize("argv, path", IO_ERROR_CASES)
    def test_unreadable_input_exits_2_with_one_line(
        self, tmp_path, capsys, argv, path
    ):
        """A missing or unreadable input is exit 2 with one
        ``path: message`` line — no traceback, and never exit 1, which
        means "positive found"."""
        baseline = tmp_path / "blessed.jsonl"
        baseline.write_text("")
        paths = {
            "missing": str(tmp_path / "missing.litmus"),
            "missing_cat": str(tmp_path / "missing.cat"),
            "dir": str(tmp_path),
            "baseline": str(baseline),
        }
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(path.format(**paths) + ": ")

    @pytest.mark.parametrize("argv, message", PLAN_ERROR_CASES)
    def test_bad_plan_exits_2_with_one_line(self, capsys, argv, message):
        assert main(argv + ["--no-progress"]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, message", RUN_ERROR_CASES)
    def test_unresolvable_profile_or_model_exits_2(
        self, lb_file, capsys, argv, message
    ):
        """Single-test commands resolve their profiles and source model
        before running anything: a bad one is one line and exit 2."""
        with pytest.raises(SystemExit) as exc:
            main([arg.format(lb=lb_file) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert message in err
        assert "Traceback" not in err

    def test_misspelt_memory_order_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bogus.litmus.c"
        path.write_text(FIG7_SOURCE.replace("memory_order_relaxed",
                                            "memory_order_bogus", 1))
        assert main(["test", str(path), "--arch", "aarch64"]) == 2
        err = capsys.readouterr().err
        assert "unknown memory order 'memory_order_bogus'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["campaign", "hunt", "farm"])
    def test_workers_flag_is_a_usage_error(self, capsys, command):
        argv = {
            "campaign": ["campaign", "--small"],
            "hunt": ["hunt", "--seeds", "examples"],
            "farm": ["farm", "run", "--root", CORPUS],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["explain", "reduce", "lint"])
    def test_unknown_name_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "no-such-target-anywhere"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("no-such-target-anywhere: ")


class TestJsonInventories:
    def test_models_json(self, capsys):
        assert main(["models", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in entries}
        assert "x86-tso" in by_name["x86tso"]["aliases"]
        assert "c11-partialsc" in by_name["c11_partialsc"]["aliases"]
        assert by_name["rc11"]["doc"]

    def test_shapes_json(self, capsys):
        assert main(["shapes", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in entries}
        assert by_name["lb"]["display"] == "LB"
        assert by_name["iriw"]["threads"] == 4

    def test_profiles_json(self, capsys):
        assert main(["profiles", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "llvm-O3-AArch64" in payload["profiles"]
        assert any(e["name"] == "llvm-16" for e in payload["epochs"])

    def test_profiles_plain(self, capsys):
        assert main(["profiles"]) == 0
        assert "gcc-Og-ARM" in capsys.readouterr().out


class TestStreamingCampaign:
    def test_json_event_stream(self, capsys):
        assert main(["campaign", "--small", "--arch", "aarch64",
                     "--opt=-O2", "--json", "--no-progress"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        kinds = [line["event"] for line in lines]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        cells = [l for l in lines if l["event"] == "cell_finished"]
        assert len(cells) == lines[0]["cells_total"]
        assert all(c["record"]["status"] in ("ok", "timeout", "error")
                   for c in cells)
        # --json replaces the table entirely
        assert not any("Campaign under source model" in json.dumps(l)
                       for l in lines)

    def test_progress_stream_on_stderr(self, capsys):
        assert main(["campaign", "--small", "--arch", "aarch64",
                     "--opt=-O2", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "Campaign under source model" in captured.out  # table kept
        assert "[1/" in captured.err  # live per-cell progress
        assert "cells (" in captured.err

    def test_campaign_store_roundtrip_via_cli(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        assert main(["campaign", "--small", "--arch", "aarch64",
                     "--opt=-O2", "--store", store, "--no-progress"]) == 0
        first = capsys.readouterr().out
        assert "0 replayed" in first
        assert main(["campaign", "--small", "--arch", "aarch64",
                     "--opt=-O2", "--store", store, "--resume",
                     "--no-progress"]) == 0
        second = capsys.readouterr().out
        assert "0 appended" in second
