"""Tests for the repro-act command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.dataset == "neighborhoods"
        assert args.precision == 15.0

    def test_query_requires_coords(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--lng", "1.0"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_unknown_dataset_fails_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["info", "--dataset", "mars"])
        assert exc.value.code == 2  # argparse usage error
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.dataset == "neighborhoods"
        assert args.port == 8080
        assert args.cache_capacity == 65536
        assert args.budget_ms is None
        assert args.func.__name__ == "cmd_serve"

    def test_serve_accepts_index_file(self):
        args = build_parser().parse_args(
            ["serve", "--index-file", "idx.npz", "--port", "0"])
        assert args.index_file == "idx.npz"
        assert args.port == 0

    def test_serve_workers_flag(self):
        assert build_parser().parse_args(["serve"]).workers == 1
        args = build_parser().parse_args(["serve", "--workers", "4"])
        assert args.workers == 4


class TestCommands:
    def test_info_runs(self, capsys):
        code = main(["info", "--dataset", "neighborhoods", "--size", "12",
                     "--precision", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "indexed cells" in out
        assert "ACT size" in out

    def test_query_runs(self, capsys):
        code = main(["query", "--dataset", "neighborhoods", "--size", "12",
                     "--precision", "300", "--lng", "-73.97",
                     "--lat", "40.75"])
        assert code == 0
        out = capsys.readouterr().out
        assert "approximate" in out and "exact" in out

    def test_join_runs(self, capsys):
        code = main(["join", "--dataset", "neighborhoods", "--size", "12",
                     "--precision", "300", "--points", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "M points/s" in out

    def test_join_exact_mode(self, capsys):
        code = main(["join", "--dataset", "neighborhoods", "--size", "12",
                     "--precision", "300", "--points", "2000", "--exact"])
        assert code == 0
        assert "exact join" in capsys.readouterr().out

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["info", "--dataset", "mars"])

    def test_census_dataset(self, capsys):
        code = main(["info", "--dataset", "census", "--size", "50",
                     "--precision", "120"])
        assert code == 0

    def test_boroughs_query(self, capsys):
        code = main(["query", "--dataset", "boroughs",
                     "--precision", "300", "--lng", "-73.97",
                     "--lat", "40.75"])
        assert code == 0
