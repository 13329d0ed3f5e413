"""One boundary contract for every public callable and class.

`CONTRACT` maps each callable and class of `mmwcodebook.__all__` to a call
with valid keyword defaults and to the kind of each scalar or array
parameter it takes.  Every such parameter is probed with a fixed set of
boundary values.  A probe must raise a ValueError that names the parameter
as a whole word (or the noun its owner check uses for that kind), or give
finite values; no OverflowError, TypeError or numpy warning may escape
(the suite turns warnings into errors).  A class is probed by
constructing it, and `GdpConfig`, `SimConfig` and `LinkBudget` through a
call each one configures.  `JOINT_PROBES` set several parameters at
once, and the codebook accessors are probed at the edges of their index
ranges.
"""

import cmath
import dataclasses
import inspect
import math
import numbers
import re

import numpy as np
import pytest

import mmwcodebook
from mmwcodebook import (
    AngleInterval,
    ChannelRealization,
    CodebookLayer,
    GdpConfig,
    HierarchicalCodebook,
    LinkBudget,
    SimConfig,
    assemble_codeword,
    beam_gain,
    beam_gains,
    beam_pattern,
    build_codebook,
    build_ps_dft,
    cf_phases,
    db_to_linear,
    deserialize,
    element_power_cdf,
    gamma_per_from_link_budget,
    gdp,
    hierarchical_search,
    ideal_gdp_bound,
    inf_norm_sq,
    lcs_phases,
    linear_to_db,
    link_budget_report,
    measure,
    mtp,
    normalize,
    phase_rotate,
    run_monte_carlo,
    sample_channel,
    select_best,
    serialize,
    steering_vector,
    subarray_plan,
    wrap_angle,
)

# parameter kinds
INTEGER = "integer >= lo"
POSITIVE = "positive finite float"
NON_NEGATIVE = "finite float >= 0"
REAL = "finite float"
ANGLE = "cosine angle"
WEIGHTS = "weight vector"
CHANNEL = "channel matrix"
ANALOG = "constant-amplitude analog matrix"
DIGITAL = "digital matrix"
ARRAY = "finite array"

PROBES = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0, "-1": -1,
    "2.5": 2.5, "True": True, "np.float64": np.float64(1e308),
    "np.int64": np.int64(3), "1e308": 1e308, "10**400": 10 ** 400,
    "1e200": 1e200,
}
NON_FINITE = {"nan", "inf", "-inf"}
# an array parameter is probed with one entry of each of these; a finite
# entry near the float maximum may give finite values or a ValueError, but
# no overflow warning
ARRAY_PROBES = NON_FINITE | {"1e200"}
SCALAR_PROBES = [label for label in PROBES if label != "1e200"]
# the probes each kind must refuse; any other probe may also give finite
# values
REFUSED = {
    INTEGER: NON_FINITE | {"2.5", "True", "np.float64", "1e308", "10**400"},
    POSITIVE: NON_FINITE | {"0", "-1", "True", "10**400"},
    NON_NEGATIVE: NON_FINITE | {"-1", "True", "10**400"},
    REAL: NON_FINITE | {"True", "10**400"},
    ANGLE: NON_FINITE | {"10**400"},
}
# the noun an owner check uses for a kind, whatever the parameter's name
NOUNS = {WEIGHTS: "weights", ANGLE: "cosine angles",
         ANALOG: "analog_columns", DIGITAL: "digital_columns"}

IV = AngleInterval(-1.0, 1.0)
W = steering_vector(8, 0.1)
CB = build_codebook("bmw-ms-cf", 8, 2, grid_size=8)
PLAN = subarray_plan(8, 2, IV)
H = sample_channel(2, 8, 8, np.random.default_rng(5)).matrix()
TEXT = serialize(CB)


def _rng():
    return np.random.default_rng(0)


CONTRACT = {
    "AngleInterval": (
        lambda start=-1.0, width=1.0: AngleInterval(start, width),
        {"start": ANGLE, "width": POSITIVE}),
    "ChannelRealization": (
        lambda gains=np.ones(2, complex), aoa=np.zeros(2), aod=np.zeros(2),
        m_an=4, n_an=4: ChannelRealization(gains, aoa, aod, m_an, n_an),
        {"gains": ARRAY, "aoa": ANGLE, "aod": ANGLE, "m_an": INTEGER,
         "n_an": INTEGER}),
    "CodebookFormatError": (None, {}),
    "CodebookLayer": (
        lambda layer=1, branching=2, f_rf=CB.layers[1].f_rf,
        f_bb=CB.layers[1].f_bb: CodebookLayer(layer, branching, f_rf, f_bb),
        {"layer": INTEGER, "branching": INTEGER, "f_rf": ANALOG,
         "f_bb": DIGITAL}),
    # views and results that only a checked owner builds
    "Codeword": (None, {}),
    "CompositeCodeword": (None, {}),
    "SearchResult": (None, {}),
    "SubArrayPlan": (None, {}),
    "GdpConfig": (
        lambda gamma_per=1.0: gdp(W, IV, GdpConfig(gamma_per)),
        {"gamma_per": POSITIVE}),
    "HierarchicalCodebook": (
        lambda n_antennas=8, branching=2, grid_size=8, gamma_per=1.0:
        HierarchicalCodebook(CB.scheme, n_antennas, branching, CB.layers,
                             grid_size, gamma_per),
        {"n_antennas": INTEGER, "branching": INTEGER, "grid_size": INTEGER,
         "gamma_per": POSITIVE}),
    "LinkBudget": (
        lambda **kw: link_budget_report(LinkBudget(**kw)),
        {"pa_saturation_dbm": REAL, "carrier_wavelength_m": POSITIVE,
         "distance_m": POSITIVE, "bandwidth_hz": POSITIVE,
         "ambient_temp_k": POSITIVE, "training_length": INTEGER}),
    "SimConfig": (
        lambda l_paths=1, l_s=8, n0=1.0, seed=0, trials=1: hierarchical_search(
            CB, CB, H, SimConfig(l_paths, l_s, n0, True, seed, trials),
            _rng()),
        {"l_paths": INTEGER, "l_s": INTEGER, "n0": NON_NEGATIVE,
         "seed": INTEGER, "trials": INTEGER}),
    "assemble_codeword": (
        lambda theta=np.zeros((2, 2)): assemble_codeword(PLAN, theta),
        {"theta": ARRAY}),
    "beam_gain": (lambda w=W, omega=0.1: beam_gain(w, omega),
                  {"w": WEIGHTS, "omega": ANGLE}),
    "beam_gains": (lambda w=W, omegas=np.zeros(3): beam_gains(w, omegas),
                   {"w": WEIGHTS, "omegas": ANGLE}),
    "beam_pattern": (lambda w=W, grid=np.zeros(3): beam_pattern(w, grid),
                     {"w": WEIGHTS, "grid": ANGLE}),
    "build_codebook": (
        lambda n=8, m_rf=2, grid_size=8: build_codebook("bmw-ms-cf", n, m_rf,
                                                        grid_size),
        {"n": INTEGER, "m_rf": INTEGER, "grid_size": INTEGER}),
    "build_ps_dft": (
        lambda n=8, branching=2, grid_size=8: build_ps_dft(n, branching,
                                                           grid_size),
        {"n": INTEGER, "branching": INTEGER, "grid_size": INTEGER}),
    "cf_phases": (lambda: cf_phases(PLAN), {}),
    "db_to_linear": (lambda x_db=1.0: db_to_linear(x_db), {"x_db": REAL}),
    "deserialize": (lambda: deserialize(TEXT), {}),
    "element_power_cdf": (lambda: element_power_cdf([CB]), {}),
    "gamma_per_from_link_budget": (
        lambda: gamma_per_from_link_budget(LinkBudget()), {}),
    "gdp": (lambda w=W: gdp(w, IV), {"w": WEIGHTS}),
    "hierarchical_search": (
        lambda h=H, p=1.0: hierarchical_search(CB, CB, h, SimConfig(l_s=8),
                                               _rng(), p),
        {"h": CHANNEL, "p": POSITIVE}),
    "ideal_gdp_bound": (lambda c=0.5, b=1.0: ideal_gdp_bound(c, b),
                        {"c": POSITIVE, "b": POSITIVE}),
    "inf_norm_sq": (lambda w=W: inf_norm_sq(w), {"w": WEIGHTS}),
    "lcs_phases": (
        lambda grid_size=8: lcs_phases(PLAN, IV, grid_size=grid_size),
        {"grid_size": INTEGER}),
    "linear_to_db": (lambda x=1.0: linear_to_db(x), {"x": POSITIVE}),
    "link_budget_report": (
        lambda excess_loss_range_db=np.array([0.0, 15.0]): link_budget_report(
            LinkBudget(), tuple(excess_loss_range_db)),
        {"excess_loss_range_db": ARRAY}),
    # l_s and n0 reach a measurement through its SimConfig
    "measure": (
        lambda h=H, p=1.0, n0=1.0, l_s=8: measure(
            CB.layers[1][0], CB.layers[1][0], h, SimConfig(l_s=l_s, n0=n0),
            _rng(), p),
        {"h": CHANNEL, "p": POSITIVE, "n0": NON_NEGATIVE, "l_s": INTEGER}),
    "mtp": (lambda w=W, p_per=1.0: mtp(w, p_per),
            {"w": WEIGHTS, "p_per": POSITIVE}),
    "normalize": (lambda w=W: normalize(w), {"w": WEIGHTS}),
    "phase_rotate": (lambda w=W, delta=0.1: phase_rotate(w, delta),
                     {"w": WEIGHTS, "delta": ANGLE}),
    "run_monte_carlo": (
        lambda snr_db=np.array([0.0]), workers=1: run_monte_carlo(
            [("cf", CB, CB)], snr_db, SimConfig(l_s=8), workers),
        {"snr_db": ARRAY, "workers": INTEGER}),
    "sample_channel": (
        lambda l_paths=1, m_an=4, n_an=4: sample_channel(l_paths, m_an, n_an,
                                                         _rng()),
        {"l_paths": INTEGER, "m_an": INTEGER, "n_an": INTEGER}),
    "select_best": (lambda rho=np.ones((2, 2)): select_best(rho),
                    {"rho": ARRAY}),
    "serialize": (lambda: serialize(CB), {}),
    "steering_vector": (lambda n=8, omega=0.1: steering_vector(n, omega),
                        {"n": INTEGER, "omega": ANGLE}),
    "subarray_plan": (lambda n=8, m_rf=2: subarray_plan(n, m_rf, IV),
                      {"n": INTEGER, "m_rf": INTEGER}),
    "wrap_angle": (lambda omega=0.1: wrap_angle(omega), {"omega": ANGLE}),
}


def _finite(value) -> bool:
    """Whether every number reachable from `value` is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return _finite(list(value.values()))
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.all(np.isfinite(value)))
    if isinstance(value, numbers.Number):
        return cmath.isfinite(complex(value))
    return True


def test_contract_covers_every_public_callable_and_class():
    public = {name for name in mmwcodebook.__all__
              if callable(getattr(mmwcodebook, name))}
    assert set(CONTRACT) == public


def _names(word, message) -> bool:
    """Whether `message` holds `word` as a whole word (`w` is not in
    "codeword")."""
    return re.search(rf"\b{re.escape(word)}\b", message) is not None


def _default(call, param):
    """The valid value the contract's call gives `param`, or None."""
    found = inspect.signature(call).parameters.get(param)
    return None if found is None else found.default


def _cases():
    for name, (call, kinds) in sorted(CONTRACT.items()):
        for param in kinds:
            array = isinstance(_default(call, param), np.ndarray)
            for label in ARRAY_PROBES if array else SCALAR_PROBES:
                yield pytest.param(name, param, label,
                                   id=f"{name}-{param}-{label}")


@pytest.mark.parametrize("name, param, label", list(_cases()))
def test_probe(name, param, label):
    call, kinds = CONTRACT[name]
    kind, probe = kinds[param], PROBES[label]
    default = _default(call, param)
    if isinstance(default, np.ndarray):
        probe_value = default.copy()
        probe_value.flat[0] = probe
        probe = probe_value
    try:
        result = call(**{param: probe})
    except ValueError as exc:
        assert (_names(param, str(exc))
                or _names(NOUNS.get(kind, param), str(exc))), exc
        return
    assert label not in REFUSED.get(kind, NON_FINITE), result
    assert _finite(result), result


# probes of several parameters at once, each to be refused naming one of
# them: kTB underflows to 0 although each factor is positive
JOINT_PROBES = [
    ("LinkBudget", {"bandwidth_hz": 1e-300, "ambient_temp_k": 1e-300}),
]


@pytest.mark.parametrize("name, probe", JOINT_PROBES)
def test_joint_probe(name, probe):
    with pytest.raises(ValueError) as exc:
        CONTRACT[name][0](**probe)
    assert any(_names(param, str(exc.value)) for param in probe), exc.value


# The codebook accessors own their ranges: a layer in [0, depth] and a
# 1-based index in [1, count] of that layer.  Each is called at layer 1 of
# CB (depth 3), whose count is 2 codewords, 1 composite and 2 codewords.
ACCESSORS = {
    "codeword": (lambda layer=1, index=1: CB.codeword(layer, index), 2),
    "composite": (lambda layer=1, index=1: CB.composite(layer, index), 1),
    "layer_codewords": (lambda layer=1: CB.layer_codewords(layer), 2),
}
PLACES = ("0", "-1", "depth + 1", "count + 1", "True", "2.5")


@pytest.mark.parametrize("name, param, label", [
    (name, param, label) for name, (call, _) in sorted(ACCESSORS.items())
    for param in inspect.signature(call).parameters for label in PLACES])
def test_accessor_probe(name, param, label):
    call, count = ACCESSORS[name]
    probe = {"0": 0, "-1": -1, "depth + 1": CB.depth + 1,
             "count + 1": count + 1, "True": True, "2.5": 2.5}[label]
    lo, hi = (0, CB.depth) if param == "layer" else (1, count)
    if type(probe) is int and lo <= probe <= hi:
        assert call(**{param: probe})
    else:
        with pytest.raises(ValueError, match=f"^{param} must be an integer"):
            call(**{param: probe})
