"""Command-line surface: trace generation, closed-form series, empirical
statistics, and the validation suite.

Subcommands: gen, theory, acf, pdf, lcr, validate.  Exit status 0 on success,
1 when the validation verdict fails, 2 for usage or configuration errors, for
any input the library rejects (its errors derive from ValueError) and for a
scenario too large to allocate.
Every run logs the fully resolved scenario (post-defaults) to stderr so any
output can be reproduced from the log alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import estimators, fileio, harness, sos, theory
from .params import (
    ChannelParams,
    ParameterError,
    ScenarioConfig,
    ValidatedScenario,
    make_scenario,
    validate_scenario,
)


class ConfigError(ValueError):
    """Raised for malformed or ambiguous configuration documents."""


_FLOAT_KEYS = {
    "k",
    "gamma",
    "omega",
    "v1",
    "v2",
    "diffuse_power",
    "aoa1_rad",
    "aoa2_rad",
    "doppler_hz",
    "fd_ts",
}
_INT_KEYS = {"n_sinusoids", "n_trials", "n_samples", "seed"}
_SHAPE_KEYS = ("k", "gamma", "omega")
_COMPONENT_KEYS = ("v1", "v2", "diffuse_power")
# Config keys named apart from the ScenarioConfig field they set.
_RADIAN_KEYS = {"aoa1_rad": "aoa1", "aoa2_rad": "aoa2"}


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat "key = value" document into a scenario.

    Keys are :func:`~twdpsim.params.make_scenario` arguments, the angles
    spelled ``aoa1_rad``/``aoa2_rad``, and unspecified ones take its defaults
    (8 sinusoids, 500 trials, f_D*T_s = 0.01, f_D = 1 kHz, unit power,
    Rayleigh parameters).  Channel power may be given either as
    (k, gamma[, omega]) or as component powers (v1, v2, diffuse_power);
    mixing the two families is ambiguous and rejected, as are unknown keys.
    """
    values: dict[str, float | int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _FLOAT_KEYS and key not in _INT_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _FLOAT_KEYS:
                values[key] = float(raw_value)
            else:
                values[key] = int(raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None

    components_given = values.keys() & _COMPONENT_KEYS
    if components_given and values.keys() & _SHAPE_KEYS:
        raise ConfigError(
            "ambiguous channel specification: give (k, gamma, omega) or "
            "(v1, v2, diffuse_power), not both"
        )
    kwargs = {_RADIAN_KEYS.get(key, key): value for key, value in values.items()}
    try:
        if components_given:
            kwargs["params"] = ChannelParams.from_components(
                *(kwargs.pop(key, 0.0) for key in _COMPONENT_KEYS)
            )
        return make_scenario(**kwargs)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None


def _load_scenario(args) -> ValidatedScenario:
    """The validated scenario of ``--config`` and ``--seed``, logged."""
    text = Path(args.config).read_text() if args.config else ""
    cfg = parse_config(text)
    seed = getattr(args, "seed", None)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    scn = validate_scenario(cfg)
    _log_scenario(scn)
    return scn


def _log_scenario(scn) -> None:
    logged_as = {field: key for key, field in _RADIAN_KEYS.items()}
    doc = {logged_as.get(f.name, f.name): getattr(scn, f.name) for f in fields(ScenarioConfig)}
    doc.update(vars(doc.pop("params")))
    print("resolved scenario: " + json.dumps(doc, sort_keys=True), file=sys.stderr)


def _write_table(args, columns, rows) -> None:
    sink = args.out if args.out else sys.stdout
    if args.format == "json":
        fileio.write_series_json(sink, columns, rows)
    else:
        fileio.write_series_csv(sink, columns, rows)


# Per CLI kind, its value and oracle columns, one pair per part (see
# theory._kind_parts): rzz prints its real and imaginary parts.
_CLI_COLUMNS = {
    "rxx": (("value", "oracle_value"),),
    "rxy": (("value", "oracle_value"),),
    "rzz": (("value_re", "oracle_re"), ("value_im", "oracle_im")),
    "rsq": (("value", "oracle_value"),),
}


def _cmd_gen(args) -> int:
    scn = _load_scenario(args)
    out_dir = Path(args.out)
    for idx in range(scn.n_trials):
        trace = sos.generate_trace(scn, idx)
        if idx == 0:  # a scenario that fails leaves no directory behind
            out_dir.mkdir(parents=True, exist_ok=True)
        fileio.write_trace(trace, out_dir / f"trace_{idx:05d}.twdptrc")
    print(f"wrote {scn.n_trials} trace files to {out_dir}")
    return 0


def _cmd_theory(args) -> int:
    scn = _load_scenario(args)
    grid = harness.default_correlation_grid(scn, cap_to_trace=False)
    parts = theory._kind_parts(args.kind)
    value_columns, _ = zip(*_CLI_COLUMNS[args.kind])
    oracle = f"{args.model}_formula"
    values = [harness.oracle_series(part, scn, grid, oracle).values for part in parts]
    columns = ["lag_s", "fd_tau", *value_columns]
    _write_table(args, columns, np.column_stack([grid.lags_s, grid.fd_tau, *values]))
    return 0


def _cmd_acf(args) -> int:
    scn = _load_scenario(args)
    grid = harness.default_correlation_grid(scn)
    parts = theory._kind_parts(args.kind)
    value_columns, oracle_columns = zip(*_CLI_COLUMNS[args.kind])
    # The oracle columns come first, so their closed forms refuse before any synthesis.
    oracle = [harness.oracle_series(part, scn, grid, "simulator_formula").values for part in parts]
    means = estimators.correlation_means(sos.LazyEnsemble(scn), parts, grid)
    columns = ["lag_s", "fd_tau", *value_columns, *oracle_columns]
    values = [means[part] for part in parts]
    rows = np.column_stack([grid.lags_s, grid.fd_tau, *values, *oracle])
    _write_table(args, columns, rows)
    return 0


def _cmd_pdf(args) -> int:
    scn = _load_scenario(args)
    value_range = harness.pdf_range(scn)
    # The oracle column comes first, so the law refuses before any synthesis.
    edges = estimators._bin_edges(args.bins, value_range)
    oracle = theory.envelope_pdf_reference(scn.params, 0.5 * (edges[:-1] + edges[1:]))
    hist = estimators.envelope_pdf(sos.LazyEnsemble(scn), bins=args.bins, value_range=value_range)
    columns = ["bin_left", "bin_right", "density", "oracle_density"]
    rows = np.column_stack(
        [hist.bin_edges[:-1], hist.bin_edges[1:], hist.densities, oracle]
    )
    _write_table(args, columns, rows)
    return 0


def _cmd_lcr(args) -> int:
    scn = _load_scenario(args)
    ens = sos.LazyEnsemble(scn)
    curve = estimators.level_crossing_rate(ens, harness.LCR_THRESHOLDS)
    table = {"rho": curve.thresholds, "rate": curve.rates}
    # The oracle column is printed where the harness would take the oracle.
    if harness._LAWS["lcr", "closed_form_oracle"].refuse(scn) is None:
        table["oracle_rate"] = theory.rayleigh_lcr_oracle(curve.thresholds)
    _write_table(args, list(table), np.column_stack(list(table.values())))
    return 0


def _cmd_validate(args) -> int:
    if args.config:
        cfg = parse_config(Path(args.config).read_text())
        scenarios = [harness.correlation_scenario("configured", cfg)]
    else:
        scenarios = harness.builtin_scenarios()
    seed = args.seed if args.seed is not None else 0
    print(
        f"validation: {len(scenarios)} scenario(s), master seed {seed}; "
        "per-scenario seeds appear in the report",
        file=sys.stderr,
    )
    for vs in scenarios:
        _log_scenario(harness.resolve_scenario(vs, seed))
    report = harness.run_validation(scenarios, seed)
    payload = report.to_json()
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    for rec in report.records:
        status = "pass" if rec.passed else "FAIL"
        print(
            f"{status}  {rec.scenario:24s} {rec.statistic:8s} "
            f"max_abs={rec.max_abs_dev:.4g} (tol {rec.tol_max_abs:g}) "
            f"rms={rec.rms_dev:.4g} (tol {rec.tol_rms:g})",
            file=sys.stderr,
        )
    return 0 if report.overall_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twdpsim",
        description="TWDP fading simulator, closed-form statistics, and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_seed=True):
        p.add_argument("--config", help="scenario config file (key = value lines)")
        if needs_seed:
            p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_gen = sub.add_parser("gen", help="generate binary trace files, one per trial")
    p_gen.add_argument("--config")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True, help="output directory")

    p_theory = sub.add_parser("theory", help="closed-form correlation series")
    common(p_theory, needs_seed=False)
    p_theory.add_argument("--kind", choices=tuple(_CLI_COLUMNS), required=True)
    p_theory.add_argument("--model", choices=("reference", "simulator"), default="reference")

    p_acf = sub.add_parser("acf", help="empirical correlation with oracle columns")
    common(p_acf)
    p_acf.add_argument("--kind", choices=tuple(_CLI_COLUMNS), required=True)

    p_pdf = sub.add_parser("pdf", help="envelope histogram with reference density")
    common(p_pdf)
    p_pdf.add_argument("--bins", type=int, default=harness.PDF_BINS)

    p_lcr = sub.add_parser("lcr", help="level crossing rate curve")
    common(p_lcr)

    p_val = sub.add_parser("validate", help="run validation scenarios")
    p_val.add_argument("--config", help="validate one configured scenario instead of the builtins")
    p_val.add_argument("--seed", type=int, help="master seed (default 0)")
    p_val.add_argument("--out", help="JSON report path (default: stdout)")
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "theory": _cmd_theory,
    "acf": _cmd_acf,
    "pdf": _cmd_pdf,
    "lcr": _cmd_lcr,
    "validate": _cmd_validate,
}


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
