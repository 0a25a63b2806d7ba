"""Sum-of-sinusoids simulation and closed-form statistics for TWDP fading.

The package splits into parameterization (:mod:`twdpsim.params`), trace
generation (:mod:`twdpsim.sos`), closed-form statistics (:mod:`twdpsim.theory`),
ensemble estimators (:mod:`twdpsim.estimators`), the validation harness
(:mod:`twdpsim.harness`), and file/CLI surfaces (:mod:`twdpsim.fileio`,
:mod:`twdpsim.cli`).
"""

from .params import (
    ChannelParams,
    InvalidScenarioError,
    ParameterError,
    ScenarioConfig,
    ValidatedScenario,
    from_k_gamma,
    make_scenario,
    phase_rate,
    to_k_gamma,
    validate_scenario,
    wrap_angle,
)
from .sos import (
    DiffuseRealization,
    FadingTrace,
    TraceEnsemble,
    diffuse_sample,
    draw_trial_randoms,
    generate_ensemble,
    generate_trace,
    specular_tone,
)
from .theory import (
    CorrelationSeries,
    LagGrid,
    bessel_j0,
    envelope_cdf_reference,
    envelope_cdf_simulator,
    envelope_pdf_reference,
    f_c,
    f_s,
    rayleigh_lcr_oracle,
    ref_acf_complex,
    ref_acf_quadrature,
    ref_acf_squared,
    ref_ccf_quadrature,
    sim_acf_complex,
    sim_acf_quadrature,
    sim_acf_squared,
    sim_ccf_quadrature,
)
from .estimators import (
    HistogramDensity,
    LcrCurve,
    ensemble_correlation,
    ensemble_mean,
    envelope_pdf,
    level_crossing_rate,
    per_trial_correlation,
    per_trial_correlations,
    per_trial_crossing_rates,
)
from .harness import (
    Tolerance,
    ValidationReport,
    ValidationScenario,
    builtin_scenarios,
    compare_series,
    run_validation,
)
from .fileio import read_trace, write_trace

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
