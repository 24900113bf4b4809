"""Config parsing, validation messages, and snapping."""

import re

import numpy as np
import pytest

from volmix.config import parse_config, read_config_file
from volmix.kernels import (
    BrownianIdentity,
    ExponentialOU,
    Refused,
    RiemannLiouville,
    TabulatedKernel,
    TimeGrid,
    cell_average_matrix,
)
from volmix.simulate import MixParams


def _parse(kind="predict", file=None, **overrides):
    cfg = parse_config(kind, file=file, overrides=overrides)
    return cfg, cfg.snaps


class TestDefaults:
    def test_brownian_defaults(self):
        cfg, _ = _parse(kernel="bm", a="1", b="0")
        assert isinstance(cfg.kernel, BrownianIdentity)
        assert cfg.grid.horizon == 1.0
        assert cfg.grid.cells == 256
        assert cfg.n_paths == 100_000
        assert cfg.seed == 42
        assert cfg.u == 1.0  # predict defaults to the horizon
        assert cfg.ts == []  # only mse-study reads t
        assert _parse("mse-study")[0].ts == [1.0]
        assert cfg.b_list == [0.5, 1.0, 2.0]

    def test_verify_needs_no_channel(self):
        cfg, _ = _parse(kind="verify")
        assert cfg.channel == MixParams(1.0, 1.0)


class TestKernels:
    def test_rl_kernel(self):
        cfg, _ = _parse(kind="covariance", kernel="rl", hurst="0.75")
        assert isinstance(cfg.kernel, RiemannLiouville)
        assert cfg.kernel.hurst == 0.75

    def test_ou_kernel(self):
        cfg, _ = _parse(kind="covariance", kernel="ou", theta="2", sigma="0.5")
        assert isinstance(cfg.kernel, ExponentialOU)
        assert (cfg.kernel.decay, cfg.kernel.scale) == (2.0, 0.5)

    def test_unknown_kernel(self):
        with pytest.raises(Refused, match="unknown kernel 'weird'"):
            _parse(kind="covariance", kernel="weird")

    def test_hurst_range_message(self):
        with pytest.raises(Refused, match=r"hurst must lie in \(0,1\)"):
            _parse(kind="covariance", kernel="rl", hurst="1.2")

    def test_missing_hurst(self):
        with pytest.raises(Refused, match="hurst"):
            _parse(kind="covariance", kernel="rl")

    def test_tabulated_roundtrip(self, tmp_path):
        grid = TimeGrid(horizon=1.0, cells=8)
        table = cell_average_matrix(RiemannLiouville(0.75), grid)
        path = tmp_path / "kernel.csv"
        np.savetxt(path, table, delimiter=",")
        cfg, _ = _parse(kind="covariance", kernel="tabulated",
                        tabulated=str(path), cells="8")
        assert isinstance(cfg.kernel, TabulatedKernel)
        assert np.allclose(cfg.kernel.values, table)

    def test_tabulated_missing_file(self):
        with pytest.raises(Refused, match="no-such-file.csv"):
            _parse(kind="covariance", kernel="tabulated",
                   tabulated="no-such-file.csv", cells="8")


class TestChannel:
    def test_rho_expansion(self):
        cfg, _ = _parse(rho="0.6")
        assert cfg.channel.a == pytest.approx(0.6)
        assert cfg.channel.b == pytest.approx(0.8)

    def test_rho_and_ab_conflict(self):
        with pytest.raises(Refused, match="not both"):
            _parse(rho="0.5", a="1")

    def test_degenerate_channel(self):
        with pytest.raises(Refused, match="degenerate observation channel"):
            _parse(a="0", b="0")

    def test_rho_out_of_range(self):
        with pytest.raises(Refused, match=r"rho must lie in \[-1, 1\]"):
            _parse(rho="1.5")

    def test_predict_requires_channel(self):
        with pytest.raises(Refused, match="predict requires a channel"):
            _parse()


class TestNumbersAndRanges:
    def test_unknown_kind(self):
        with pytest.raises(Refused, match="^unknown experiment kind 'simulate'"):
            parse_config("simulate")

    def test_malformed_number_names_key(self):
        with pytest.raises(Refused, match="invalid value for horizon: 'abc'"):
            _parse(a="1", b="0", horizon="abc")

    def test_cells_range(self):
        with pytest.raises(Refused, match=r"cells must lie in \[8, 4096\]"):
            _parse(a="1", b="0", cells="4")

    def test_paths_range(self):
        with pytest.raises(Refused, match="paths must lie in"):
            _parse(a="1", b="0", paths="10")

    def test_horizon_positive(self):
        with pytest.raises(Refused, match="horizon must be > 0"):
            _parse(a="1", b="0", horizon="-1")


class TestSnapping:
    def test_u_snaps_to_nearest_node(self):
        cfg, messages = _parse(a="1", b="1", cells="8", u="0.3", t=["0.2"])
        assert cfg.u == 0.25
        assert len(messages) == 1
        assert "snapped u" in messages[0]

    def test_on_grid_time_is_silent(self):
        cfg, messages = _parse(a="1", b="1", cells="8", u="0.25", t=["0.5"])
        assert cfg.u == 0.25
        assert messages == []
        cfg, messages = _parse("mse-study", cells="8", u="0.25", t=["0.5"])
        assert cfg.ts == [0.5]
        assert messages == []

    def test_t_list_snaps(self):
        cfg, messages = _parse("mse-study", cells="8", u="0.3", t=["0.2", "0.75"])
        assert cfg.ts == [0.25, 0.75]
        assert cfg.u is None
        assert len(messages) == 1


class TestConfigFile:
    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\n"
            "kernel = rl\n"
            "hurst = 0.75\n"
            "cells = 16\n"
            "a = 1\n"
            "b = 1\n"
            "t = 0.5, 1.0\n",
            encoding="utf-8",
        )
        cfg, _ = _parse("mse-study", file=path, cells="32")
        assert cfg.grid.cells == 32  # flag wins
        assert isinstance(cfg.kernel, RiemannLiouville)
        assert cfg.ts == [0.5, 1.0]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("speed = 11\n", encoding="utf-8")
        with pytest.raises(Refused, match="unknown config key 'speed'"):
            read_config_file(path)
        with pytest.raises(Refused, match="^unknown config key 'speed'$"):
            _parse(kind="covariance", speed="11")  # an override, as from the library

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("kernel bm\n", encoding="utf-8")
        with pytest.raises(Refused, match="expected 'key = value'"):
            read_config_file(path)

    def test_missing_file_named_in_error(self):
        with pytest.raises(Refused, match="missing.cfg"):
            read_config_file("missing.cfg")

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"kernel = bm\ncells = 8\xff\n")
        with pytest.raises(Refused, match=f"^cannot read config file {re.escape(str(path))}: "
                                              "'utf-8' codec can't decode byte 0xff"):
            parse_config("covariance", file=path)

    def test_b_list_parsing(self):
        cfg, _ = _parse(kind="mse-study", b_list="0.25, 0.5, 3")
        assert cfg.b_list == [0.25, 0.5, 3.0]
        with pytest.raises(Refused, match="invalid value for b_list"):
            _parse(kind="mse-study", b_list="0.25, fast")
