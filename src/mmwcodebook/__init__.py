"""Hierarchical beamforming codebooks for hybrid-precoding mmWave arrays.

Design codebooks (multi-RF-chain sub-array widening with closed-form or
GDP-optimized phases, plus a phase-shifted DFT baseline), score codewords
with the generalized detection probability under per-antenna power
constraints, and run seeded hierarchical beam-search experiments.
"""

from .arraymath import (
    AngleInterval,
    beam_gain,
    beam_gains,
    beam_pattern,
    inf_norm_sq,
    normalize,
    phase_rotate,
    steering_vector,
    wrap_angle,
)
from .codebooks import (
    SCHEME_BMW_CF,
    SCHEME_BMW_LCS,
    SCHEME_PS_DFT,
    SCHEMES,
    CodebookLayer,
    Codeword,
    CompositeCodeword,
    HierarchicalCodebook,
    SubArrayPlan,
    assemble_codeword,
    build_codebook,
    build_ps_dft,
    cf_phases,
    lcs_phases,
    subarray_plan,
)
from .metrics import (
    GdpConfig,
    LinkBudget,
    db_to_linear,
    gamma_per_from_link_budget,
    gdp,
    ideal_gdp_bound,
    linear_to_db,
    link_budget_report,
    mtp,
)
from .simulate import (
    ChannelRealization,
    SearchResult,
    SimConfig,
    element_power_cdf,
    hierarchical_search,
    measure,
    run_monte_carlo,
    sample_channel,
    select_best,
)
from .storage import CodebookFormatError, deserialize, serialize

__version__ = "0.1.0"

__all__ = [
    "AngleInterval", "ChannelRealization", "CodebookFormatError",
    "CodebookLayer", "Codeword",
    "CompositeCodeword", "GdpConfig", "HierarchicalCodebook",
    "LinkBudget", "SCHEMES", "SCHEME_BMW_CF", "SCHEME_BMW_LCS",
    "SCHEME_PS_DFT", "SearchResult", "SimConfig", "SubArrayPlan",
    "assemble_codeword", "beam_gain", "beam_gains", "beam_pattern",
    "build_codebook", "build_ps_dft", "cf_phases",
    "db_to_linear", "deserialize", "element_power_cdf",
    "gamma_per_from_link_budget", "gdp", "hierarchical_search",
    "ideal_gdp_bound", "inf_norm_sq", "lcs_phases", "linear_to_db",
    "link_budget_report", "measure", "mtp", "normalize", "phase_rotate",
    "run_monte_carlo", "sample_channel", "select_best", "serialize",
    "steering_vector", "subarray_plan", "wrap_angle",
]
