import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twdpsim import cli, estimators, harness, sos
from twdpsim.cli import ConfigError, cli_dispatch, parse_config
from twdpsim.estimators import LagError
from twdpsim.fileio import read_series_csv, read_trace
from twdpsim.params import (
    DEFAULT_AOA1,
    DEFAULT_AOA2,
    ChannelParams,
    ScenarioConfig,
    make_scenario,
    validate_scenario,
)

ROOT = Path(__file__).resolve().parents[1]


class TestParseConfig:
    def test_empty_document_gives_rayleigh_defaults(self):
        cfg = parse_config("")
        assert cfg.params.v1 == 0.0 and cfg.params.v2 == 0.0
        assert cfg.params.diffuse_power == 1.0
        assert cfg.n_sinusoids == 8
        assert cfg.n_trials == 500
        assert cfg.doppler_hz == 1000.0
        assert cfg.doppler_hz * cfg.sample_period_s == pytest.approx(0.01)
        assert cfg.aoa1 == DEFAULT_AOA1 and cfg.aoa2 == DEFAULT_AOA2

    def test_explicit_rayleigh(self):
        cfg = parse_config("k = 0\n")
        assert cfg.params.diffuse_power == 1.0

    def test_figure_geometry(self):
        text = "k = 10\ngamma = 1\naoa1_rad = 0.785398\naoa2_rad = 2.094395\n"
        cfg = parse_config(text)
        assert cfg.aoa1 == pytest.approx(math.pi / 4, abs=1e-6)
        assert cfg.aoa2 == pytest.approx(2 * math.pi / 3, abs=1e-6)
        assert cfg.params.v1 == cfg.params.v2

    def test_component_route(self):
        cfg = parse_config("v1 = 1.0\nv2 = 0.5\ndiffuse_power = 0.25\n")
        assert cfg.params.omega == pytest.approx(1.5)

    def test_ambiguous_families_rejected(self):
        with pytest.raises(ConfigError, match="ambiguous"):
            parse_config("k = 10\nv1 = 1.0\n")
        with pytest.raises(ConfigError, match="ambiguous"):
            parse_config("omega = 2\nv1 = 1.0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("dopplerr_hz = 100\n")

    def test_unknown_key_message_is_not_wrapped(self):
        with pytest.raises(ConfigError) as info:
            parse_config("nope = 1")
        assert str(info.value) == "line 1: unknown key 'nope'"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("k = 1\nk = 2\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nk = 2  # trailing\nseed = 9\n")
        assert cfg.seed == 9

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just words\n")

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("gamma = 1.5\n")

    def test_overflowing_component_power_rejected(self):
        with pytest.raises(ConfigError, match="omega must be finite"):
            parse_config("v1 = 1e200\n")


_CONFIG_KEYS = sorted(cli._FLOAT_KEYS | cli._INT_KEYS)
_CONFIG_LINE = st.tuples(
    st.one_of(st.sampled_from(_CONFIG_KEYS), st.text(max_size=8)),
    st.one_of(
        st.floats().map(repr),
        st.integers().map(str),
        st.text(max_size=12),
    ),
).map(lambda kv: f"{kv[0]} = {kv[1]}")


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.text(),
        st.lists(st.one_of(_CONFIG_LINE, st.text(max_size=20)), max_size=8).map("\n".join),
    )
)
def test_parse_config_total(text):
    # Any document either parses to a scenario or raises ConfigError.
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


_SHAPE_FAMILY = ("k", "gamma", "omega")
_COMPONENT_FAMILY = ("v1", "v2", "diffuse_power")


def _config_values(family):
    """Optional keys of one channel family plus the other scenario keys."""
    floats = st.one_of(st.floats(0.0, 2.0), st.floats(allow_nan=False))
    keys = sorted(cli._FLOAT_KEYS - {*_SHAPE_FAMILY, *_COMPONENT_FAMILY})
    return st.fixed_dictionaries(
        {},
        optional={
            **{key: floats for key in keys + list(family)},
            **{key: st.integers(-5, 2**70) for key in sorted(cli._INT_KEYS)},
        },
    )


_CONFIG_VALUES = st.one_of(_config_values(_SHAPE_FAMILY), _config_values(_COMPONENT_FAMILY))


def test_empty_document_is_make_scenario_defaults():
    assert parse_config("") == make_scenario()


@settings(max_examples=300, deadline=None)
@given(values=_CONFIG_VALUES)
def test_parse_config_is_make_scenario(values):
    # An accepted document is make_scenario of the same keys, the angles
    # renamed and the component family passed in as params.
    text = "".join(f"{key} = {value!r}\n" for key, value in values.items())
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    kwargs = {key.removesuffix("_rad"): value for key, value in values.items()}
    if kwargs.keys() & _COMPONENT_FAMILY:
        kwargs["params"] = ChannelParams.from_components(
            *(kwargs.pop(key, 0.0) for key in _COMPONENT_FAMILY)
        )
    assert cfg == make_scenario(**kwargs)


@pytest.fixture()
def rayleigh_cfg(tmp_path):
    path = tmp_path / "rayleigh.cfg"
    path.write_text("k = 0\n")
    return path


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(
        "k = 10\ngamma = 0.5\nn_trials = 300\nn_samples = 3001\nseed = 4\n"
    )
    return path


class TestCliDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_dispatch(["theory", "--kind", "rxx", "--frob"]) == 2
        capsys.readouterr()

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert cli_dispatch(["theory", "--kind", "rxx", "--config", str(bad)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_theory_rsq_simulator_zero_lag(self, rayleigh_cfg, tmp_path, capsys):
        out = tmp_path / "rsq.csv"
        code = cli_dispatch(
            ["theory", "--kind", "rsq", "--model", "simulator",
             "--config", str(rayleigh_cfg), "--out", str(out)]
        )
        assert code == 0
        assert "resolved scenario" in capsys.readouterr().err
        cols, rows = read_series_csv(out)
        assert cols == ["lag_s", "fd_tau", "value"]
        assert rows[0, 1] == 0.0
        assert abs(rows[0, 2] - 1.875) < 1e-12

    def test_theory_rzz_columns(self, rayleigh_cfg, tmp_path, capsys):
        out = tmp_path / "rzz.csv"
        assert cli_dispatch(
            ["theory", "--kind", "rzz", "--config", str(rayleigh_cfg), "--out", str(out)]
        ) == 0
        capsys.readouterr()
        cols, rows = read_series_csv(out)
        assert cols == ["lag_s", "fd_tau", "value_re", "value_im"]
        assert rows[0, 2] == pytest.approx(1.0)
        assert rows[0, 3] == 0.0

    def test_acf_rxx_matches_oracle_column(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "acf.csv"
        assert cli_dispatch(
            ["acf", "--kind", "rxx", "--config", str(small_cfg), "--out", str(out)]
        ) == 0
        capsys.readouterr()
        cols, rows = read_series_csv(out)
        assert cols == ["lag_s", "fd_tau", "value", "oracle_value"]
        assert np.abs(rows[:, 2] - rows[:, 3]).max() <= 0.05

    def test_acf_rzz_where_only_one_anchor_fits(self, tmp_path, capsys):
        # The default grid's 1001 lags leave 1002 samples one anchor, sample
        # 0, so each lag l is the trial mean of z[0]*conj(z[l]).
        cfg = tmp_path / "one-anchor.cfg"
        cfg.write_text("k = 10\ngamma = 0.5\nn_trials = 20\nn_samples = 1002\nseed = 4\n")
        out = tmp_path / "acf.csv"
        assert cli_dispatch(["acf", "--kind", "rzz", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        scn = validate_scenario(parse_config(cfg.read_text()))
        assert len(harness.default_correlation_grid(scn)) == 1001
        assert estimators.default_anchors(1002, 1000).tolist() == [0]
        z = sos.generate_ensemble(scn).sample_matrix
        want = np.sum(z[:, :1] * z[:, :1001].conj(), axis=0) / 20
        cols, rows = read_series_csv(out)
        assert np.abs(rows[:, cols.index("value_re")] - want.real).max() <= 1e-12
        assert np.abs(rows[:, cols.index("value_im")] - want.imag).max() <= 1e-12

    @pytest.mark.parametrize("command", ["acf", "pdf", "lcr"])
    def test_empirical_commands_stream_trial_blocks(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # acf, pdf and lcr synthesize one trial block at a time, and print
        # what the in-memory ensemble gives, bit for bit.
        cfg = tmp_path / "s.cfg"
        cfg.write_text("k = 10\ngamma = 0.5\nn_trials = 37\nn_samples = 2001\nseed = 4\n")
        scn = validate_scenario(parse_config(cfg.read_text()))
        ens = sos.generate_ensemble(scn)
        if command == "acf":
            grid = harness.default_correlation_grid(scn)
            rzz = estimators.correlation_means(ens, ("rzz",), grid)["rzz"]
            want = {"value_re": rzz.real, "value_im": rzz.imag}
        elif command == "pdf":
            hist = estimators.envelope_pdf(ens, value_range=harness.pdf_range(scn))
            want = {"density": hist.densities}
        else:
            want = {"rate": estimators.level_crossing_rate(ens, harness.LCR_THRESHOLDS).rates}
        sizes = []
        original = sos.generate_ensemble
        monkeypatch.setattr(
            sos,
            "generate_ensemble",
            lambda scn, trials=None, stride=1: sizes.append(len(trials))
            or original(scn, trials, stride),
        )
        out = tmp_path / "out.csv"
        args = [command, "--config", str(cfg), "--out", str(out)]
        assert cli_dispatch(args + (["--kind", "rzz"] if command == "acf" else [])) == 0
        capsys.readouterr()
        assert sizes == [
            min(sos.TRIAL_BLOCK, 37 - first) for first in range(0, 37, sos.TRIAL_BLOCK)
        ]
        cols, rows = read_series_csv(out)
        for name, values in want.items():
            assert np.array_equal(rows[:, cols.index(name)], values), name

    def test_gen_writes_one_file_per_trial(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("k = 1\nn_trials = 4\nn_samples = 64\nseed = 11\n")
        out_dir = tmp_path / "traces"
        assert cli_dispatch(["gen", "--config", str(cfg), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        files = sorted(out_dir.iterdir())
        assert len(files) == 4
        trace = read_trace(files[2])
        assert trace.trial_index == 2
        assert trace.samples.size == 64

    def test_gen_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("k = 1\nn_trials = 1\nn_samples = 32\nseed = 11\n")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli_dispatch(["gen", "--config", str(cfg), "--out", str(d1), "--seed", "99"]) == 0
        assert cli_dispatch(["gen", "--config", str(cfg), "--out", str(d2), "--seed", "99"]) == 0
        capsys.readouterr()
        a = (d1 / "trace_00000.twdptrc").read_bytes()
        b = (d2 / "trace_00000.twdptrc").read_bytes()
        assert a == b
        assert read_trace(d1 / "trace_00000.twdptrc").seed == 99

    def test_pdf_emits_density_table(self, tmp_path, capsys):
        cfg = tmp_path / "pdf.cfg"
        cfg.write_text("k = 10\ngamma = 1\nn_trials = 100\nn_samples = 2001\nseed = 2\n")
        out = tmp_path / "pdf.csv"
        assert cli_dispatch(["pdf", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        cols, rows = read_series_csv(out)
        assert cols == ["bin_left", "bin_right", "density", "oracle_density"]
        assert (rows[0, 0], rows[-1, 1]) == harness.PDF_RANGE
        widths = rows[:, 1] - rows[:, 0]
        assert np.sum(rows[:, 2] * widths) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_range_extends_to_envelope_bound(self, tmp_path, capsys):
        # 64 sinusoids over 40000 samples reach envelopes past 3.
        text = "n_sinusoids = 64\nn_trials = 5\nn_samples = 40000\nfd_ts = 0.5\n"
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(text)
        out = tmp_path / "pdf.csv"
        assert cli_dispatch(["pdf", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        _, rows = read_series_csv(out)
        scn = validate_scenario(parse_config(text))
        bound = scn.params.envelope_bound(scn.n_sinusoids)
        assert bound > harness.PDF_RANGE[1]
        assert rows[0, 0] == 0.0 and rows[-1, 1] == bound
        widths = rows[:, 1] - rows[:, 0]
        assert np.sum(rows[:, 2] * widths) == pytest.approx(1.0, abs=1e-12)

    def test_gen_into_an_existing_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli_dispatch(["gen", "--out", str(taken)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert cli_dispatch(["theory", "--kind", "rxx", "--config", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_as_output_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "acf.cfg"
        cfg.write_text("n_trials = 2\nn_samples = 64\n")
        argv = ["acf", "--kind", "rxx", "--config", str(cfg), "--out", str(tmp_path)]
        assert cli_dispatch(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fd_ts", ["1e-9", "1e-310"])
    def test_theory_grid_past_the_lag_budget_exits_2(self, tmp_path, fd_ts, capsys):
        cfg = tmp_path / "slow.cfg"
        cfg.write_text(f"fd_ts = {fd_ts}\n")
        assert cli_dispatch(["theory", "--kind", "rxx", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_library_value_error_exits_2(self, rayleigh_cfg, capsys):
        assert cli_dispatch(["pdf", "--bins", "1", "--config", str(rayleigh_cfg)]) == 2
        assert "error: bins must be >= 2" in capsys.readouterr().err

    def test_pdf_oracle_node_budget_exits_2(self, tmp_path, capsys):
        # K = 1e12 passes the node budget; a diffuse power of 5e-324
        # underflows the reference cut.  Both are refused the same way.
        for text in (
            "k = 1e12\ngamma = 0.5\nn_trials = 2\nn_samples = 101\n",
            "v1 = 1\nv2 = 0\ndiffuse_power = 5e-324\nn_trials = 1\nn_samples = 101\n",
        ):
            cfg = tmp_path / "narrow.cfg"
            cfg.write_text(text)
            assert cli_dispatch(["pdf", "--config", str(cfg)]) == 2
            assert "error: diffuse part too narrow" in capsys.readouterr().err

    def test_pdf_without_diffuse_power_exits_2_before_synthesis(
        self, tmp_path, monkeypatch, capsys
    ):
        def synthesize(*args, **kwargs):
            raise AssertionError("the histogram was built before the refusal")

        monkeypatch.setattr(cli.estimators, "envelope_pdf", synthesize)
        cfg = tmp_path / "dfree.cfg"
        cfg.write_text("v1 = 1\nv2 = 0.5\ndiffuse_power = 0\nn_trials = 2\nn_samples = 400\n")
        assert cli_dispatch(["pdf", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "\nerror: envelope density requires diffuse_power > 0 (singular otherwise)\n"
        )

    def test_pdf_at_tiny_fd_ts_picks_sample_0(self, tmp_path):
        # f_D*T_s = 1e-300 puts the decorrelation stride past the int64
        # range: each trial's one pick is its sample 0.
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("fd_ts = 1e-300\nn_trials = 3\nn_samples = 200\n")
        out = tmp_path / "pdf.csv"
        assert cli_dispatch(["pdf", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_series_csv(out)
        counts = np.rint(rows[:, 2] * (rows[:, 1] - rows[:, 0]) * 3)
        scn = validate_scenario(parse_config(cfg.read_text()))
        picks = [abs(sos.generate_trace(scn, i).samples[0]) for i in range(3)]
        want, _ = np.histogram(picks, bins=len(rows), range=(rows[0, 0], rows[-1, 1]))
        assert np.array_equal(counts, want)

    def test_panel_kernel_node_budget_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "many.cfg"
        cfg.write_text("n_sinusoids = 4000000000\n")
        argv = ["theory", "--kind", "rsq", "--model", "simulator", "--config", str(cfg)]
        assert cli_dispatch(argv) == 2
        assert "exceeds the node budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["acf", "--kind", "rxx"], ["pdf"], ["lcr"], ["gen"]],
        ids=lambda command: command[0],
    )
    def test_scenario_too_large_to_allocate_exits_2(self, command, tmp_path):
        # numpy refuses arrays of this size before touching memory, and the
        # command takes nothing of a size that grows with the trace before
        # that, so its peak RSS stays under the CLI ceiling (peak_rss.py
        # exits 1 past it).  tracemalloc cannot bound this: numpy traces a
        # refused allocation at its full size.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("n_samples = 1000000000000000\nn_trials = 2\n")
        argv = command + ["--config", str(cfg), "--out", str(tmp_path / "out")]
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "peak_rss.py"), "--max-mb", "200", "--",
             sys.executable, "-m", "twdpsim.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert result.returncode == 2, result.stderr
        assert "error: Unable to allocate" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_zero_doppler_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "still.cfg"
        cfg.write_text("doppler_hz = 0\n")
        assert cli_dispatch(["theory", "--kind", "rxx", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: doppler_hz must be > 0, got 0.0\n"

    def test_lag_error_exits_2(self, small_cfg, monkeypatch, capsys):
        def reject(*args, **kwargs):
            raise LagError("anchor set is empty")

        monkeypatch.setattr(cli.estimators, "correlation_means", reject)
        assert cli_dispatch(["acf", "--kind", "rxx", "--config", str(small_cfg)]) == 2
        assert "error: anchor set is empty" in capsys.readouterr().err

    def test_lcr_rayleigh_has_oracle_column(self, tmp_path, capsys):
        cfg = tmp_path / "lcr.cfg"
        cfg.write_text("k = 0\nn_trials = 50\nn_samples = 2001\nseed = 6\n")
        out = tmp_path / "lcr.csv"
        assert cli_dispatch(["lcr", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        cols, rows = read_series_csv(out)
        assert cols == ["rho", "rate", "oracle_rate"]
        assert np.all(rows[:, 1] >= 0)

    def test_lcr_twdp_has_no_oracle_column(self, tmp_path, capsys):
        cfg = tmp_path / "lcr2.cfg"
        cfg.write_text("k = 10\ngamma = 1\nn_trials = 20\nn_samples = 1001\nseed = 6\n")
        out = tmp_path / "lcr2.csv"
        assert cli_dispatch(["lcr", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        cols, _ = read_series_csv(out)
        assert cols == ["rho", "rate"]

    @pytest.mark.parametrize(
        "channel,rayleigh",
        [("k = 0", True), ("k = 10\ngamma = 0", False), ("k = 10\ngamma = 0.5", False)],
    )
    def test_lcr_oracle_column_where_the_harness_takes_the_oracle(
        self, tmp_path, channel, rayleigh, capsys
    ):
        cfg = tmp_path / "lcr.cfg"
        cfg.write_text(f"{channel}\nn_trials = 2\nn_samples = 101\n")
        out = tmp_path / "lcr.csv"
        assert cli_dispatch(["lcr", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        tolerances = {"lcr": harness.Tolerance(1.0, 1.0)}
        try:
            harness.ValidationScenario(
                "lcr", parse_config(cfg.read_text()), ("lcr",), tolerances, "closed_form_oracle"
            )
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == rayleigh
        assert ("oracle_rate" in read_series_csv(out)[0]) == accepted

    def test_json_format(self, rayleigh_cfg, tmp_path, capsys):
        out = tmp_path / "rsq.json"
        assert cli_dispatch(
            ["theory", "--kind", "rsq", "--model", "simulator", "--format", "json",
             "--config", str(rayleigh_cfg), "--out", str(out)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["lag_s", "fd_tau", "value"]
        assert abs(doc["rows"][0][2] - 1.875) < 1e-12


def _resolved_scenarios(stderr):
    prefix = "resolved scenario: "
    return [
        json.loads(line.removeprefix(prefix))
        for line in stderr.splitlines()
        if line.startswith(prefix)
    ]


class TestValidateCommand:
    def test_deterministic_reports_and_exit_zero(self, small_cfg, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code1 = cli_dispatch(
            ["validate", "--config", str(small_cfg), "--seed", "7", "--out", str(out1)]
        )
        code2 = cli_dispatch(
            ["validate", "--config", str(small_cfg), "--seed", "7", "--out", str(out2)]
        )
        capsys.readouterr()
        assert code1 == 0 and code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["overall_passed"] is True
        records = doc["records"]
        assert tuple(r["statistic"] for r in records) == harness.CORRELATION_STATS
        for r in records:
            assert r["oracle"] == "simulator_formula"
            assert (r["tol_max_abs"], r["tol_rms"]) == (
                harness.CORRELATION_TOL.max_abs,
                harness.CORRELATION_TOL.rms,
            )

    def test_format_flag_rejected(self, small_cfg, capsys):
        code = cli_dispatch(["validate", "--config", str(small_cfg), "--format", "csv"])
        assert code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_noisy_scenario_fails_with_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text("k = 0\nn_trials = 2\nn_samples = 1200\nseed = 4\n")
        out = tmp_path / "r.json"
        code = cli_dispatch(["validate", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert code == 1
        assert json.loads(out.read_text())["overall_passed"] is False

    def test_configured_scenario_is_the_builtin_correlation_check(
        self, small_cfg, monkeypatch, capsys
    ):
        runs = []
        monkeypatch.setattr(
            harness,
            "run_validation",
            lambda scenarios, seed: runs.append(scenarios)
            or harness.ValidationReport(seed, harness.ANCHOR_POLICY),
        )
        assert cli_dispatch(["validate", "--config", str(small_cfg)]) == 0
        capsys.readouterr()
        (configured,) = runs[0]
        cfg = parse_config(small_cfg.read_text())
        builtin = [vs for vs in harness.builtin_scenarios() if vs.name.startswith("corr-")]
        assert len(builtin) == 4
        for vs in builtin:
            assert replace(vs, name="configured", scenario=cfg) == configured

    def test_configured_run_logs_the_resolved_scenario(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["validate", "--config", str(small_cfg), "--seed", "2", "--out", str(out)]
        assert cli_dispatch(argv) == 0
        (logged,) = _resolved_scenarios(capsys.readouterr().err)
        (record, *_) = json.loads(out.read_text())["records"]
        assert logged["seed"] == record["seed"] == harness.derive_seed(2, "configured")
        assert logged["n_trials"] == 300 and logged["n_samples"] == 3001

    def test_builtin_run_logs_every_resolved_scenario(self, tmp_path, monkeypatch, capsys):
        suite = [
            replace(vs, scenario=replace(vs.scenario, n_trials=2))
            for vs in harness.builtin_scenarios()
        ]
        monkeypatch.setattr(harness, "builtin_scenarios", lambda: suite)
        out = tmp_path / "r.json"
        assert cli_dispatch(["validate", "--seed", "3", "--out", str(out)]) in (0, 1)
        logged = _resolved_scenarios(capsys.readouterr().err)
        seeds = {r["scenario"]: r["seed"] for r in json.loads(out.read_text())["records"]}
        assert [doc["seed"] for doc in logged] == [seeds[vs.name] for vs in suite]
        assert [doc["n_samples"] for doc in logged] == [
            vs.scenario.n_samples for vs in suite
        ]
