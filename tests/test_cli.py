"""End-to-end CLI tests: CSV schemas, round-trips, exit codes, reproducibility."""

import csv
import dataclasses
import os
import re
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import volmix
from volmix import cli, kernels, runner
from volmix.cli import main
from volmix.config import KEYS, KINDS
from volmix.kernels import BrownianIdentity, Refused, TimeGrid, cell_average_matrix
from volmix.simulate import draw_noise


def _read_matrix_csv(path) -> np.ndarray:
    """Rebuild a square matrix from a (t, s, cov) CSV written by the runner."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        triples = [(float(t), float(s), float(v)) for t, s, v in reader]
    nodes = sorted({t for t, _, _ in triples})
    index = {t: i for i, t in enumerate(nodes)}
    matrix = np.zeros((len(nodes), len(nodes)))
    for t, s, v in triples:
        matrix[index[t], index[s]] = v
    return matrix


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def _reference_fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _reference_csv(path, header, rows) -> None:
    """The per-field `csv.writer` formatting that `runner.write_csv` must match."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_reference_fmt(value) for value in row])


SMALL = ["--cells", "16", "--paths", "500"]


class TestPredict:
    def test_outputs_and_schema(self, tmp_path):
        out = tmp_path / "run"
        status = main(["predict", "--kernel", "bm", "--a", "1", "--b", "1",
                       "--u", "0.5", "--out", str(out)] + SMALL)
        assert status == 0
        header, rows = _read_rows(out / "mean.csv")
        assert header == ["t", "mean"]
        assert len(rows) == 17
        header, rows = _read_rows(out / "cov.csv")
        assert header == ["t", "s", "cov"]
        assert len(rows) == 17 * 17

    def test_noise_free_mean_reproduces_hidden_path(self, tmp_path):
        out = tmp_path / "run"
        status = main(["predict", "--kernel", "bm", "--a", "1", "--b", "0",
                       "--u", "1.0", "--seed", "42", "--out", str(out)] + SMALL)
        assert status == 0
        grid = TimeGrid(horizon=1.0, cells=16)
        hidden = cell_average_matrix(BrownianIdentity(), grid) @ draw_noise(grid, 42, 0).driving
        _, rows = _read_rows(out / "mean.csv")
        for (raw_t, raw_mean), expected in zip(rows, hidden):
            assert float(raw_mean) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_snap_reported_on_stderr(self, tmp_path, capsys):
        main(["predict", "--kernel", "bm", "--rho", "0.6", "--u", "0.3",
              "--out", str(tmp_path / "o")] + SMALL)
        err = capsys.readouterr().err
        assert "snapped u" in err
        # Only predict reads u and only mse-study reads t: no other kind snaps them.
        main(["predict", "--a", "1", "--b", "1", "--u", "0.3", "--t", "0.3",
              "--out", str(tmp_path / "p")] + SMALL)
        assert capsys.readouterr().err.startswith("snapped u=0.3 ")
        assert main(["covariance", "--cells", "8", "--u", "0.3", "--t", "0.3",
                     "--out", str(tmp_path / "c")]) == 0
        assert capsys.readouterr().err == ""
        for u in (1e308, -1e308):  # u / delta overflows
            status = main(["predict", "--a", "1", "--b", "1", f"--u={u!r}", "--cells", "8",
                           "--out", str(tmp_path / "far")])
            assert status == 0
            assert f"snapped u={u!r}" in capsys.readouterr().err


class TestCovariance:
    def test_round_trip_symmetric_psd(self, tmp_path):
        out = tmp_path / "cov"
        status = main(["covariance", "--kernel", "rl", "--hurst", "0.75",
                       "--cells", "24", "--out", str(out)])
        assert status == 0
        matrix = _read_matrix_csv(out / "cov.csv")
        assert matrix.shape == (25, 25)
        assert np.array_equal(matrix, matrix.T)
        lowest = float(np.linalg.eigvalsh(matrix)[0])
        assert max(0.0, -lowest) / float(np.trace(matrix)) <= 1e-10

    def test_float_fields_round_trip_exactly(self, tmp_path):
        out = tmp_path / "cov"
        main(["covariance", "--kernel", "ou", "--theta", "1.3", "--sigma", "0.7",
              "--cells", "8", "--out", str(out)])
        from volmix.kernels import ExponentialOU, covariance_matrix
        grid = TimeGrid(horizon=1.0, cells=8)
        expected = covariance_matrix(cell_average_matrix(ExponentialOU(1.3, 0.7), grid), grid)
        got = _read_matrix_csv(out / "cov.csv")
        assert np.array_equal(got, expected)


class TestMseStudy:
    def test_schema_and_ratio_column(self, tmp_path):
        out = tmp_path / "mse"
        status = main(["mse-study", "--kernel", "bm", "--b-list", "0.5,1,2",
                       "--t", "1.0", "--cells", "32", "--paths", "2000",
                       "--out", str(out)])
        assert status == 0
        header, rows = _read_rows(out / "mse.csv")
        assert header == ["t", "b", "naive_analytic", "naive_mc", "naive_se",
                          "filtered_analytic", "filtered_mc", "filtered_se",
                          "ratio", "pass"]
        assert [float(row[8]) for row in rows] == pytest.approx([0.8, 0.5, 0.2])
        assert all(row[9] == "true" for row in rows)

    def test_seed_changes_mc_but_not_analytic(self, tmp_path):
        runs = {}
        for seed in ("42", "43"):
            out = tmp_path / f"mse{seed}"
            main(["mse-study", "--kernel", "bm", "--b-list", "1", "--cells", "16",
                  "--paths", "1000", "--seed", seed, "--out", str(out)])
            _, rows = _read_rows(out / "mse.csv")
            runs[seed] = rows[0]
        first, second = runs["42"], runs["43"]
        assert first[2] == second[2]  # naive_analytic
        assert first[5] == second[5]  # filtered_analytic
        assert first[8] == second[8]  # ratio
        assert first[3] != second[3]  # naive_mc
        assert first[6] != second[6]  # filtered_mc

    def test_tiny_noise_error_keeps_its_digits(self, tmp_path):
        # b X~ lies far below the rounding of X: a naive error formed as
        # X^b - X would read about 2e-45 against b^2 r(1, 1) = 1e-40.
        out = tmp_path / "tiny"
        status = main(["mse-study", "--b-list", "1e-20", "--cells", "16", "--paths", "20000",
                       "--out", str(out)])
        assert status == 0
        _, rows = _read_rows(out / "mse.csv")
        assert float(rows[0][2]) == pytest.approx(1e-40, rel=1e-12)
        assert rows[0][9] == "true"


class TestVerify:
    def test_small_verify_passes_and_reproduces(self, tmp_path):
        outputs = []
        for name in ("v1", "v2"):
            out = tmp_path / name
            status = main(["verify", "--kernel", "bm", "--cells", "16",
                           "--paths", "500", "--seed", "42", "--out", str(out)])
            assert status == 0
            outputs.append((out / "verify.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_small_b_full_information_passes(self, tmp_path):
        # 1 - c loses digits to cancellation as b -> 0; b^2/(a^2+b^2) does not.
        status = main(["verify", "--cells", "16", "--paths", "200", "--a", "1", "--b", "1e-3",
                       "--out", str(tmp_path / "v")])
        assert status == 0
        _, rows = _read_rows(tmp_path / "v" / "verify.csv")
        assert [row[3] for row in rows if row[0] == "full_information_covariance"] == ["true"]

    def test_verify_schema(self, tmp_path):
        out = tmp_path / "v"
        main(["verify", "--kernel", "bm", "--cells", "16", "--paths", "500",
              "--out", str(out)])
        header, rows = _read_rows(out / "verify.csv")
        assert header == ["check_name", "statistic", "tolerance", "pass"]
        assert len(rows) >= 20
        names = [row[0] for row in rows]
        assert len(names) == len(set(names))
        for row in rows:
            float(row[1]), float(row[2])
            assert row[3] in ("true", "false")


class TestByteIdentity:
    # The rerun adds keys the kind parses but does not read.
    @pytest.mark.parametrize("args,files,unread", [
        (["predict", "--kernel", "rl", "--hurst", "0.75", "--rho", "0.6",
          "--u", "0.5"], ["mean.csv", "cov.csv"], ["--t", "0.5,1", "--b-list", "1e300"]),
        (["covariance", "--kernel", "ou"], ["cov.csv"], ["--a", "1e-200", "--b", "0"]),
        (["covariance", "--kernel", "ou"], ["cov.csv"], ["--rho", "0.5", "--a", "1"]),
        (["mse-study", "--b-list", "0.5,2"], ["mse.csv"], ["--rho", "2", "--u", "0.3"]),
    ], ids=["predict", "covariance", "covariance-conflicting-channel", "mse-study"])
    def test_reruns_are_byte_identical(self, tmp_path, args, files, unread):
        payloads = []
        for name, extra in (("one", []), ("two", unread)):
            out = tmp_path / name
            assert main(args + SMALL + ["--seed", "42", *extra, "--out", str(out)]) == 0
            payloads.append([(out / f).read_bytes() for f in files])
        assert payloads[0] == payloads[1]


class TestWriter:
    def _assert_same_bytes(self, tmp_path, header, rows, lines):
        _reference_csv(tmp_path / "reference.csv", header, rows)
        runner.write_csv(tmp_path / "written.csv", header, lines)
        assert (tmp_path / "written.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    def test_matrix_matches_reference(self, tmp_path):
        nodes = np.array([0.0, 1e-05, 0.1, 1.0])
        matrix = np.array([[-0.0, 5e-324, 1e16, 1e-05],
                           [0.1, 1.0, -2.5, -1e-300],
                           [1.0 / 3.0, -0.0, 0.0, 123456789.125],
                           [-1e16, 2.0 ** -1074, 1e300, -0.1]])
        rows = [(t, s, matrix[i, j]) for i, t in enumerate(nodes)
                for j, s in enumerate(nodes)]
        self._assert_same_bytes(tmp_path, ("t", "s", "cov"), rows,
                                runner._matrix_lines(nodes, matrix))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_forked_matrix_matches_reference(self, tmp_path, monkeypatch, cpus):
        # 301 rows split unevenly; rows 74, 75 and 150 border the ranges of 2 and 4 writers.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        nodes = np.linspace(0.0, 1.0, 301)
        matrix = np.random.default_rng(7).standard_normal((301, 301))
        matrix[[0, 74, 75, 150, 300], [0, 150, 1, 299, 300]] = \
            [-0.0, 5e-324, 1e16, 1e-05, -1e-300]
        rows = [(t, s, matrix[i, j]) for i, t in enumerate(nodes)
                for j, s in enumerate(nodes)]
        self._assert_same_bytes(tmp_path, ("t", "s", "cov"), rows,
                                runner._matrix_lines(nodes, matrix))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_child_is_reported_and_reaped(self, tmp_path, monkeypatch, capfd):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        row_text = runner._row_text

        def failing_row_text(t, times, values):
            if float(t) > 0.9:  # a row of the child's range
                raise ValueError("formatter failed")
            return row_text(t, times, values)

        monkeypatch.setattr(runner, "_row_text", failing_row_text)
        path = tmp_path / "direct" / "cov.csv"
        with pytest.raises(RuntimeError, match=re.escape(f"cannot write {path}: ")):
            runner.write_csv(path, ("t", "s", "cov"),
                             runner._matrix_lines(np.linspace(0.0, 1.0, 301), np.eye(301)))
        assert "ValueError: formatter failed\n" in capfd.readouterr().err  # the child's traceback
        out = tmp_path / "run"
        assert main(["covariance", "--cells", "300", "--out", str(out)]) == 1
        err = capfd.readouterr().err
        assert "ValueError: formatter failed\n" in err
        assert f"cannot write {out / 'cov.csv'}: " in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(p.name for p in out.iterdir()) == ["cov.csv"]

    def test_closed_matrix_lines_reap_their_children(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        lines = runner._matrix_lines(np.linspace(0.0, 1.0, 301), np.eye(301))
        next(lines)
        lines.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_verify_table_matches_reference(self, tmp_path):
        rows = [("covariance_symmetry", 0.0, 0.0, True),
                ("mse_naive_z[b=1e+150]", np.float64(0.7412), 3.0, np.bool_(True)),
                ("residual_covariance_max_z", float("inf"), np.float64(3.5), False),
                ("quadrature_error_at_512_cells", 1e-05, 1e-3, np.bool_(False))]
        self._assert_same_bytes(tmp_path, ("check_name", "statistic", "tolerance", "pass"),
                                rows, runner._table_lines(rows))

    def test_mse_table_matches_reference(self, tmp_path):
        rows = [(1.0, 0.5, np.float64(0.25), np.float64(0.2498), np.float64(0.0039),
                 0.2, np.float64(0.1999), 0.003, 0.8, np.bool_(True)),
                (np.float64(0.5), 2, 4.0, 3.98, 0.06, 0.8, 0.79, 0.012, 0.2, False)]
        header = ("t", "b", "naive_analytic", "naive_mc", "naive_se",
                  "filtered_analytic", "filtered_mc", "filtered_se", "ratio", "pass")
        self._assert_same_bytes(tmp_path, header, rows, runner._table_lines(rows))

    def test_every_csv_goes_through_write_csv(self, tmp_path, monkeypatch):
        written = []
        original = runner.write_csv

        def spy(path, header, lines):
            written.append(path.name)
            original(path, header, lines)

        monkeypatch.setattr(runner, "write_csv", spy)
        main(["predict", "--kernel", "bm", "--a", "1", "--b", "1",
              "--out", str(tmp_path / "p")] + SMALL)
        assert written == ["mean.csv", "cov.csv"]
        written.clear()
        main(["covariance", "--kernel", "bm", "--cells", "8", "--out", str(tmp_path / "c")])
        assert written == ["cov.csv"]


class TestConfigKeys:
    def test_flag_and_config_file_agree_on_every_key(self, tmp_path, monkeypatch):
        table = tmp_path / "kernel.csv"
        np.savetxt(table, cell_average_matrix(BrownianIdentity(), TimeGrid(1.0, 8)), delimiter=",")
        # key: (kind, value, other flags the run needs)
        cases = {
            "kernel": ("covariance", "ou", []),
            "hurst": ("covariance", "0.25", ["--kernel", "rl"]),
            "theta": ("covariance", "2", ["--kernel", "ou"]),
            "sigma": ("covariance", "0.5", ["--kernel", "ou"]),
            "tabulated": ("covariance", str(table), ["--kernel", "tabulated", "--cells", "8"]),
            "a": ("predict", "2", ["--b", "1"]),
            "b": ("predict", "2", ["--a", "1"]),
            "rho": ("predict", "0.6", []),
            "horizon": ("covariance", "2", []),
            "cells": ("covariance", "16", []),
            "u": ("predict", "0.3", ["--a", "1", "--b", "1"]),
            "t": ("mse-study", "0.3, 0.7", []),
            "b_list": ("mse-study", "0.25,4", []),
            "paths": ("mse-study", "500", []),
            "seed": ("verify", "7", []),
            "out": ("covariance", str(tmp_path / "elsewhere"), []),
        }
        assert list(cases) == list(KEYS)
        configs = []
        monkeypatch.setattr(cli, "run_experiment", configs.append)

        def comparable(cfg):
            state = {name: value.tolist() if isinstance(value, np.ndarray) else value
                     for name, value in vars(cfg.kernel).items()}
            return dataclasses.replace(cfg, kernel=(type(cfg.kernel), state))

        for key, (kind, value, flags) in cases.items():
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"{key} = {value}\n", encoding="utf-8")
            configs.clear()
            flag = "--" + key.replace("_", "-")  # repeated where a file lists t values
            main([kind, *flags, *(arg for part in value.split(", ") for arg in (flag, part))])
            main([kind, *flags, flag, value.replace(", ", ",")])  # one comma-separated flag
            main([kind, *flags, "--config", str(path)])
            main([kind, *flags])  # without the key: another config, or a config error
            from_flag, joined, from_file, *default = map(comparable, configs)
            assert from_flag == joined == from_file, key
            assert default != [from_flag], key

    def test_help_lists_the_keys_each_kind_reads(self, capsys):
        unread = {"predict": {"t", "b_list", "paths"},
                  "covariance": {"a", "b", "rho", "u", "t", "b_list", "paths", "seed"},
                  "mse-study": {"a", "b", "rho", "u"},
                  "verify": {"u", "t"}}
        for kind in KINDS:
            with pytest.raises(SystemExit):
                main([kind, "--help"])
            listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
            reads = [key for key, (_, _, readers, _) in KEYS.items() if kind in readers]
            assert listed == {"--config", *("--" + key.replace("_", "-") for key in reads)}, kind
            assert set(KEYS) - set(reads) == unread[kind], kind


class TestErrors:
    def test_config_error_exit_code(self, tmp_path, capsys):
        predict = ["predict", "--a", "1", "--b", "0"]
        # Its weighted trace, about 1.4e308, is certified, and no entry overflows.
        table = np.zeros((9, 8))
        table[8, 0] = 1.2e154
        np.savetxt(tmp_path / "dominant.csv", table, delimiter=",")
        dominant = ["--kernel", "tabulated", "--tabulated", str(tmp_path / "dominant.csv"),
                    "--horizon", "8", "--cells", "8"]
        late = np.tril(np.ones((17, 16)), -1) * (np.arange(17) >= 8)[:, None]
        np.savetxt(tmp_path / "late.csv", late, delimiter=",")
        undecodable = tmp_path / "bad.cfg"
        undecodable.write_bytes(b"kernel = bm\ncells = 8\xff\n")
        malformed = tmp_path / "malformed.csv"
        malformed.write_text("x,1\n", encoding="utf-8")
        np.savetxt(tmp_path / "square.csv", np.zeros((8, 8)), delimiter=",")
        tabulated = ["covariance", "--kernel", "tabulated", "--cells", "8", "--tabulated"]
        trace = "the covariance cannot be certified: its weighted trace is too near the ends " \
                "of the float range"
        normal = "not a positive normal float"
        # Each refusal is the owner's message once, after the kind: the whole stderr line.
        cases = [
            (predict + ["--kernel", "rl", "--hurst", "2"], "hurst must lie in (0,1), got 2.0"),
            (predict + ["--kernel", "ou", "--theta", "nan"],
             "invalid value for theta: 'nan' is not finite"),
            (predict + ["--kernel", "ou", "--theta", "inf"],
             "invalid value for theta: 'inf' is not finite"),
            (predict + ["--kernel", "ou", "--theta", "-1"], "decay must be >= 0, got -1.0"),
            (predict + ["--kernel", "ou", "--sigma", "0"], "scale must be > 0, got 0.0"),
            (["predict", "--a", "nan", "--b", "1"], "invalid value for a: 'nan' is not finite"),
            (predict + ["--horizon", "nan"], "invalid value for horizon: 'nan' is not finite"),
            (["verify", "--seed", str(2**64)], "seed must lie in [0, 2**64)"),
            (["covariance", "--config", str(undecodable)],
             f"cannot read config file {undecodable}: 'utf-8' codec can't decode byte 0xff "
             "in position 21: invalid start byte"),
            (["mse-study", "--b-list", "nan"], "invalid value for b_list: 'nan' is not finite"),
            # Every key is parsed before the grid is built: the empty list is named first.
            (["mse-study", "--b-list", ",", "--horizon", "-1", "--cells", "8", "--paths", "200"],
             "b_list must contain at least one value"),
            (tabulated + [str(malformed)], f"malformed tabulated kernel file {malformed}: "
             "could not convert string 'x' to float64 at row 0, column 1."),
            (tabulated + [str(tmp_path / "square.csv")],
             f"tabulated kernel file {tmp_path / 'square.csv'}: "
             "tabulated values must have shape (9, 8), got (8, 8)"),
            (["predict", "--a", "1e-200", "--b", "0"],
             "degenerate observation channel: a^2 + b^2 = 0.0 for a = 1e-200, b = 0.0"),
            (["predict", "--a", "1", "--b", "1e200"],
             "degenerate observation channel: a^2 + b^2 = inf for a = 1.0, b = 1e+200"),
            (["covariance", "--kernel", "ou", "--sigma", "1e200"],
             "kernel 'ou' has non-finite node variances on TimeGrid(horizon=1.0, cells=256)"),
            # verify's own rl(0.75) overflows r(T, T) where the configured bm does not.
            (["verify", "--horizon", "1e210", "--cells", "16", "--paths", "200"],
             "kernel 'rl' has non-finite node variances on TimeGrid(horizon=1e+210, cells=16)"),
            # Finite node variances whose sum overflows: the weighted trace is inf.
            (["covariance", "--kernel", "ou", "--theta", "0", "--sigma", "3.16e152",
              "--horizon", "1000", "--cells", "8"], trace),
            (["predict", "--kernel", "ou", "--theta", "0", "--sigma", "3.16e152",
              "--horizon", "1000", "--cells", "8", "--a", "1", "--b", "1"], trace),
            (["covariance", "--horizon", "1e308"],
             "kernel 'bm' has non-finite cell integrals on TimeGrid(horizon=1e+308, cells=256)"),
            (["covariance", "--horizon", "1e-323", "--cells", "16"],
             "horizon 1e-323 / cells 16 underflows the cell width to 0 or a subnormal number"),
            (["predict", "--a", "1", "--b", "1", "--horizon", "1e-320", "--cells", "16"],
             "horizon 1e-320 / cells 16 underflows the cell width to 0 or a subnormal number"),
            # The Monte Carlo kinds refuse a noise level or kernel whose analytic
            # moments are not positive normal floats, before drawing any noise.
            (["mse-study", "--b-list", "1e200", "--paths", "200"],
             "degenerate observation channel: a^2 + b^2 = inf for a = 1.0, b = 1e+200"),
            (["verify", "--b-list", "1e200", "--paths", "200", "--cells", "16"],
             "degenerate observation channel: a^2 + b^2 = inf for a = 1.0, b = 1e+200"),
            (["mse-study", "--b-list", "1e-200", "--cells", "16", "--paths", "200"],
             f"the naive error at t=1.0, b=1e-200 has analytic scale 0.0, {normal}"),
            (["mse-study", "--b-list", "1e-160", "--cells", "16", "--paths", "200"],
             f"the naive error at t=1.0, b=1e-160 has analytic scale 1e-320, {normal}"),
            # b^2 r(t, t) overflows at b = 2 (the default b_list); b = 0 runs.
            (["mse-study", "--kernel", "ou", "--theta", "0", "--sigma", "3.16e152", "--horizon",
              "1000", "--cells", "8", "--paths", "200"],
             f"the naive error at t=1000.0, b=2.0 has analytic scale inf, {normal}"),
            # No node variance is positive: nothing to estimate.
            (["verify", "--kernel", "ou", "--theta", "1e308", "--horizon", "10", "--cells", "16",
              "--paths", "200"], f"hidden_moments_max_z has analytic scale 0.0, {normal}"),
            # Cell averages that vanish below node 8: the node at T/4 has variance 0.
            (["verify", "--kernel", "tabulated", "--tabulated", str(tmp_path / "late.csv"),
              "--cells", "16", "--paths", "200"],
             f"hidden_moments_max_z has analytic scale 0.0, {normal}"),
            (["mse-study", "--kernel", "ou", "--theta", "1e308", "--horizon", "10", "--cells",
              "16", "--paths", "200"],
             f"the naive error at t=10.0, b=0.5 has analytic scale 0.0, {normal}"),
            # Entries near 4e-321, and a noise fraction of 1e-320: weighted traces too
            # small for the PSD certificate's rounding bound.
            (["covariance", "--kernel", "ou", "--theta", "1", "--sigma", "1e-160",
              "--cells", "8"], trace),
            (["predict", "--cells", "8", "--a", "1", "--b", "1e-160", "--u", "1"], trace),
        ]
        for argv, message in cases:
            status = main(argv + ["--out", str(tmp_path / "x")])
            assert status == 2, argv
            err = capsys.readouterr().err
            assert err == f"volmix {argv[0]}: {message}\n", argv
            if argv[0] == "verify":  # a refusal never names the configured kernel, bm
                assert "kernel 'bm'" not in err, argv
        assert not (tmp_path / "x" / "mean.csv").exists()
        assert not (tmp_path / "x" / "cov.csv").exists()
        for argv in (["covariance", *dominant],
                     *(["predict", *dominant, "--a", "1", "--b", "1", "--u", u] for u in "048")):
            assert main(argv + ["--out", str(tmp_path / "ok")]) == 0, argv

    def test_every_kind_refuses_every_malformed_key(self, tmp_path, capsys):
        # Each key's own parser reads every value given for it, whether or not the
        # kind reads the key.  `tabulated` and `out` are plain text: any value parses.
        numeric = [key for key in KEYS if key not in ("kernel", "tabulated", "out")]
        empty_t = tmp_path / "empty_t.cfg"
        empty_t.write_text("t =\n", encoding="utf-8")
        out = tmp_path / "out"
        for kind in KINDS:
            assert main([kind, "--kernel", "abc", "--out", str(out)]) == 2, kind
            assert capsys.readouterr().err.startswith(f"volmix {kind}: unknown kernel 'abc'")
            for key in numeric:
                for value in ("nan", "abc"):
                    argv = [kind, "--" + key.replace("_", "-"), value, "--out", str(out)]
                    assert main(argv) == 2, argv
                    assert capsys.readouterr().err.startswith(
                        f"volmix {kind}: invalid value for {key}: {value!r}"), argv
            # A list key given explicitly empty is refused too, whoever reads it.
            for flags, key in ((["--t", ","], "t"), (["--t="], "t"),
                               (["--config", str(empty_t)], "t"), (["--b-list", ","], "b_list")):
                argv = [kind, *flags, "--cells", "16", "--paths", "200", "--out", str(out)]
                assert main(argv) == 2, argv
                assert capsys.readouterr().err == \
                    f"volmix {kind}: {key} must contain at least one value\n", argv
        assert not out.exists()

    @pytest.mark.parametrize("error", [Refused, ValueError, TypeError])
    def test_only_a_refusal_exits_2(self, tmp_path, monkeypatch, capsys, error):
        def run_checks(*args):
            raise error("boom")

        monkeypatch.setattr(runner, "run_checks", run_checks)
        argv = ["verify", "--cells", "16", "--paths", "200", "--out", str(tmp_path)]
        if error is Refused:
            assert main(argv) == 2
            assert capsys.readouterr().err == "volmix verify: boom\n"
        else:  # any other exception is a defect: it propagates, traceback and all
            with pytest.raises(error, match="^boom$"):
                main(argv)

    def test_every_refusal_is_a_refused(self):
        assert isinstance(Refused("x"), ValueError)  # callers that catch ValueError still do
        for path in sorted(Path(volmix.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "raise ValueError(" not in text, path.name
            assert "ConfigError" not in text, path.name

    # `--horizon 1eN` for every tenth N across the float range and each N next to
    # one of its edges (RuntimeWarnings are errors here, as in every test).
    @pytest.mark.parametrize("kind", [["verify"], ["mse-study"], ["covariance"],
                                      ["predict", "--a", "1", "--b", "1"]], ids=lambda k: k[0])
    def test_every_horizon_exits_cleanly(self, tmp_path, capsys, kind):
        exponents = sorted({*range(-330, 331, 10), -324, -309, -308, -307, 154, 155, 307, 308,
                            309})
        for n in exponents:
            argv = [*kind, "--horizon", f"1e{n}", "--cells", "16", "--paths", "200",
                    "--out", str(tmp_path)]
            status = main(argv)
            err = capsys.readouterr().err
            assert status in (0, 1, 2), argv
            if status == 2:
                assert re.fullmatch(f"volmix {kind[0]}: [^\n]+\n", err), argv

    def test_one_certificate_per_written_covariance(self, tmp_path, monkeypatch):
        calls = []

        def spy(function, *args):
            calls.append(function.__name__)
            return function(*args)

        for function in (kernels.certified_defect, kernels.check_written):
            for name, module in list(sys.modules.items()):
                if name.startswith("volmix.") and hasattr(module, function.__name__):
                    monkeypatch.setattr(module, function.__name__, partial(spy, function))
        for argv in (["covariance", "--cells", "8"], ["predict", "--cells", "8", "--a", "1",
                                                      "--b", "1"]):
            calls.clear()
            assert main(argv + ["--out", str(tmp_path)]) == 0, argv
            assert sorted(calls) == ["certified_defect", "check_written"], argv

    def test_range_edge_inputs_run_in_band(self, tmp_path):
        # Moments scaled by exact powers of two stay in range wherever the analytic
        # ones are normal floats: each run exits 0 with finite, passing rows.
        small = ["--cells", "16", "--paths", "200"]
        cases = [
            ["mse-study", "--b-list", "1e150", *small],
            ["mse-study", "--b-list", "1e-100", *small],
            ["mse-study", "--b-list=-1e-100", *small],
            ["mse-study", "--b-list", "1e75", "--horizon", "1e6", "--cells", "16",
             "--paths", "2000"],
            ["mse-study", "--b-list", "1e80", "--horizon", "1e-10", "--cells", "16",
             "--paths", "20000"],
            ["mse-study", "--horizon", "1e-200", *small],
            ["mse-study", "--t", "0", *small],  # no cell average at node 0: errors exactly 0
            ["mse-study", "--kernel", "ou", "--theta", "0", "--sigma", "3.16e152", "--horizon",
             "1000", "--cells", "8", "--paths", "200", "--b-list", "0"],
            ["verify", "--b-list", "1e150", *small],
            ["verify", "--a", "1", "--b", "1e154", *small],
            ["verify", "--horizon", "1e160", *small],
            ["verify", "--horizon", "1e-200", *small],
            ["verify", "--kernel", "ou", "--sigma", "1e-100", *small],
            ["verify", "--kernel", "ou", "--theta", "0", "--sigma", "1e-100", "--horizon",
             "1e160", *small],
        ]
        for argv in cases:
            out = tmp_path / "run"
            assert main(argv + ["--out", str(out)]) == 0, argv
            header, rows = _read_rows(out / f"{argv[0].split('-')[0]}.csv")
            numbers = [float(field) for row in rows for field in row[1 - len(header):-1]]
            assert np.all(np.isfinite(numbers)) and all(row[-1] == "true" for row in rows), argv
        # predict simulates no b_list, so it neither bounds nor reads it.
        assert main(["predict", "--a", "1", "--b", "1", "--b-list", "1e100", "--cells", "8",
                     "--out", str(tmp_path / "predict")]) == 0

    def test_exactly_zero_covariances_are_written(self, tmp_path):
        # A zero weighted trace is certified when the matrix is built exactly zero:
        # b = 0, a noise fraction that underflows to 0, every cell product underflowing.
        for argv in (["predict", "--cells", "8", "--a", "1", "--b", "0", "--u", "1"],
                     ["predict", "--cells", "8", "--a", "1", "--b", "1e-170", "--u", "1"],
                     ["covariance", "--kernel", "ou", "--theta", "1e308", "--horizon", "10",
                      "--cells", "8"]):
            out = tmp_path / argv[0]
            assert main(argv + ["--out", str(out)]) == 0, argv
            assert not _read_matrix_csv(out / "cov.csv").any(), argv

    def test_io_error_names_path(self, tmp_path, capsys):
        target = tmp_path / "blocked"
        target.write_text("not a directory", encoding="utf-8")
        status = main(["covariance", "--kernel", "bm", "--cells", "8",
                       "--out", str(target)])
        assert status == 1
        assert "blocked" in capsys.readouterr().err

    def test_config_file_flag(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kernel = bm\ncells = 16\na = 1\nb = 1\n", encoding="utf-8")
        out = tmp_path / "from-file"
        status = main(["predict", "--config", str(cfg), "--paths", "500",
                       "--out", str(out)])
        assert status == 0
        assert (out / "mean.csv").exists()
