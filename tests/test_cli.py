"""End-to-end CLI tests: CSV schemas, round-trips, exit codes, reproducibility."""

import csv

import numpy as np
import pytest

from volmix.cli import main
from volmix.kernels import BrownianIdentity, TimeGrid, cell_average_matrix, psd_defect
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


class TestCovariance:
    def test_round_trip_symmetric_psd(self, tmp_path):
        out = tmp_path / "cov"
        status = main(["covariance", "--kernel", "rl", "--hurst", "0.75",
                       "--cells", "24", "--out", str(out)])
        assert status == 0
        matrix = _read_matrix_csv(out / "cov.csv")
        assert matrix.shape == (25, 25)
        assert np.array_equal(matrix, matrix.T)
        assert psd_defect(matrix) <= 1e-10

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
    @pytest.mark.parametrize("args,files", [
        (["predict", "--kernel", "rl", "--hurst", "0.75", "--rho", "0.6",
          "--u", "0.5"], ["mean.csv", "cov.csv"]),
        (["covariance", "--kernel", "ou"], ["cov.csv"]),
        (["mse-study", "--b-list", "0.5,2"], ["mse.csv"]),
    ], ids=["predict", "covariance", "mse-study"])
    def test_reruns_are_byte_identical(self, tmp_path, args, files):
        payloads = []
        for name in ("one", "two"):
            out = tmp_path / name
            main(args + SMALL + ["--seed", "42", "--out", str(out)])
            payloads.append([(out / f).read_bytes() for f in files])
        assert payloads[0] == payloads[1]


class TestErrors:
    def test_config_error_exit_code(self, tmp_path, capsys):
        predict = ["predict", "--a", "1", "--b", "0"]
        cases = [
            (predict + ["--kernel", "rl", "--hurst", "2"], "hurst must lie in (0,1)"),
            (predict + ["--kernel", "ou", "--theta", "nan"], "invalid value for theta: 'nan'"),
            (predict + ["--kernel", "ou", "--theta", "inf"], "invalid value for theta: 'inf'"),
            (["predict", "--a", "nan", "--b", "1"], "invalid value for a: 'nan'"),
            (predict + ["--horizon", "nan"], "invalid value for horizon: 'nan'"),
            (["verify", "--seed", str(2**64)], "seed must lie in [0, 2**64)"),
            (["mse-study", "--b-list", "nan"], "invalid value for b_list: 'nan'"),
            (["predict", "--a", "1e-200", "--b", "0"], "degenerate observation channel"),
            (["predict", "--a", "1", "--b", "1e200"], "a^2 + b^2 = inf"),
            (["covariance", "--kernel", "ou", "--sigma", "1e200"],
             "kernel 'ou' has non-finite node variances on TimeGrid"),
            (["covariance", "--horizon", "1e308"],
             "kernel 'bm' has non-finite cell integrals on TimeGrid"),
            (["mse-study", "--b-list", "1e200", "--paths", "200"],
             "invalid value for b_list: '1e200'"),
            (["verify", "--b-list", "1e200", "--paths", "200", "--cells", "16"],
             "invalid value for b_list: '1e200'"),
            (["mse-study", "--b-list", "1e150", "--paths", "200"],
             "invalid value for b_list: '1e150': b^4 * paths overflows"),
            (["verify", "--b-list", "1e150", "--paths", "200", "--cells", "16"],
             "invalid value for b_list: '1e150': b^4 * paths overflows"),
        ]
        for argv, message in cases:
            status = main(argv + ["--out", str(tmp_path / "x")])
            assert status == 2, argv
            assert message in capsys.readouterr().err, argv

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
