"""sha256 of stored codebook files and CSVs, pinned so that any change of bytes shows.

The codebook hashes were recorded before the coarse-to-fine candidate
search replaced the exhaustive one, and the simulate and beampattern
hashes before the trial-batched search replaced the search per cell; the
gdp and cdf hashes were recorded before the process pool was removed, and
the simulate hashes at two-word seeds before the sweep's generators were
seeded in bulk.  The bmw-ms-lcs hashes at N=64 and 128 with m_rf=2 and at
N=16 with m_rf=4 were recorded before the screen moved to one nested
coarse pass with per-candidate margins.  A speed change must leave them as
they are.

Two hashes were re-recorded on purpose, when `metrics.gdp` became the
one-candidate call of the streamed quadrature kernel and `beam_gains` lost
its small-grid matrix-product branch.  The `gdp` CSV moved because the
kernel sums the trapezoid in row blocks: 4 of its 6 values change in the
last digit, e.g. 0.83917230659157 -> 0.8391723065915702.  The 64-point
beampattern (64 x 16 gains, which took the deleted branch) moved because
the phase-ramp loop rounds differently: dB values change by at most 2e-12,
and two exact nulls at -1 and +1 (floored at -300 dB) now read about
-299.7 dB.  Its parent hash was
520a358d504209d6e5a42d3397764b012752cfa55a11d3ea68ccb88193cdfa12.
"""

import hashlib

import numpy as np
import pytest

from mmwcodebook import (
    CodebookLayer,
    GdpConfig,
    HierarchicalCodebook,
    build_codebook,
    serialize,
)
from mmwcodebook.cli import main
from mmwcodebook.metrics import db_to_linear

GOLDEN_SHA256 = {
    ("bmw-ms-cf", 16, 2):
        "f609174501248c634e382d140cb557804bf368dfd99746c31e5d72c57ce9e126",
    ("bmw-ms-cf", 32, 2):
        "0dd21e489196a2c059b4d0137ecb10f57b9cf38db37b7a2264bae555cc965843",
    ("bmw-ms-lcs", 16, 2):
        "3e7f6a2f3c4c3ca78fab23b232cd4e132246035e5102d071502e217efed1e67f",
    ("bmw-ms-lcs", 32, 2):
        "6a3c58ca74d25cf97c04aba2e00d7d5c0f02eca596ed4b3942cf9aa738b3c765",
    ("ps-dft", 16, 2):
        "29c4e82641113431312ad1cd896e3f32bb4c6291eca513ea2197878dfe7571d1",
    ("ps-dft", 32, 2):
        "b53906b9c00c9d063071105abc08b19082467074054d97daace39a10a85f9a60",
    ("bmw-ms-lcs", 64, 4):
        "0893f8e9928312bb212ce8a59a3ea5c7bdfc51de5e4360c62bebf2b8169690a6",
    ("bmw-ms-lcs", 64, 2):
        "e35f8dc91a101b226464fc33e79686f9e9762952d859835ee268f647bf263634",
    ("bmw-ms-lcs", 128, 2):
        "9e25ec39e4ccb3748e9143ad38cb59033874dc682e6bdb6bfef8f4fe62a055df",
    ("bmw-ms-lcs", 16, 4):
        "191a15cc07fe4dc956bb0f69bdd06008252a4569545c4df458a56e4a85709dcc",
}


@pytest.mark.parametrize("scheme, n, m_rf", sorted(GOLDEN_SHA256))
def test_codebook_file_hash(scheme, n, m_rf):
    text = serialize(build_codebook(scheme, n, m_rf))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_SHA256[(scheme, n, m_rf)]


# (scheme, n, m_rf, grid_size, gamma_per_db) outside the defaults above:
# three-way branching, the smallest phase grid and a non-unit SNR, recorded
# before the writer printed the layout directly instead of walking a dict
VARIANT_SHA256 = {
    ("bmw-ms-cf", 27, 3, 64, 0.0):
        "ff13819850befd3bc34d57539709967550b1ba1ea51a437caec561ae0d587dd7",
    ("ps-dft", 27, 3, 16, 0.0):
        "8be3156fa03b34441802aa9e6f02a81f7b9e7e52458a9d46dc6e3511ed463692",
    ("bmw-ms-lcs", 16, 2, 64, 5.0):
        "2de49463855857a7c4e3ab19b07783e0956e4fc2c596dd9c7af56a4d457ce35e",
}


@pytest.mark.parametrize("scheme, n, m_rf, grid_size, gamma_per_db",
                         sorted(VARIANT_SHA256))
def test_codebook_file_hash_off_defaults(scheme, n, m_rf, grid_size,
                                         gamma_per_db):
    cfg = GdpConfig(gamma_per=db_to_linear(gamma_per_db))
    text = serialize(build_codebook(scheme, n, m_rf, grid_size, cfg))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == VARIANT_SHA256[
        (scheme, n, m_rf, grid_size, gamma_per_db)]


def test_numpy_integer_fields_serialize_as_plain_ints():
    # the constructors accept numpy integers and an int gamma_per; the file
    # must not tell them from Python ints and floats
    cb = build_codebook("bmw-ms-cf", 16, 2, grid_size=16)
    i64 = np.int64
    layers = [CodebookLayer(i64(layer.layer), i64(layer.branching),
                            layer.f_rf, layer.f_bb) for layer in cb.layers]
    numpy_cb = HierarchicalCodebook(cb.scheme, i64(cb.n_antennas),
                                    i64(cb.branching), layers,
                                    i64(cb.grid_size), 1)
    assert cb.gamma_per == 1.0
    assert serialize(numpy_cb) == serialize(cb)


SIMULATE_SHA256 = \
    "5ff59ce4ab0928f4ff75fa289759942c3c0e16d47e3394acf6f63671196250f8"
# `simulate --n 16 --trials 60` at (seed, l_paths): the largest seed, and
# a two-word seed with multipath channels
SIMULATE_SEED_SHA256 = {
    (2 ** 64 - 1, 1):
        "1a108b19eb00041fefe154785420944ec7ad60374d0de1997a86fdbc158c5384",
    (2 ** 32 + 1, 3):
        "705db6d19d25dfd5a83833e1dd3319334e9af9b07bc902d8ab55f47e28891f14",
}
BEAMPATTERN_SHA256 = \
    "22c3779e916ecd050ecd9cff9f188a1616072b3969f4555f921e50c042d0826e"
# the same beampattern at 64 points instead of the default 2048
SMALL_GRID_BEAMPATTERN_SHA256 = \
    "b8ba72dfbe2ba44075886fb4b8b8f508e1e3e462bfd18c8ba6a808b4edfcbcd8"
# `gdp --n 16` and `cdf --n 16`, every scheme and the other keys at default
COMMAND_SHA256 = {
    "gdp": "85be8b45d96b55d3b7f488b4147159d54714b3ac1dc34a1f3c6152a53e715a70",
    "cdf": "6d001a8fb4e49b216e69422c34bb2795c09c72228d37bc01a57661d8060fb81a",
}


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_csv_hash(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--n", "16", "--trials", "60", "--seed", "31337",
                 "--out", str(out)]) == 0
    assert file_sha256(out) == SIMULATE_SHA256


@pytest.mark.parametrize("seed, l_paths", sorted(SIMULATE_SEED_SHA256))
def test_simulate_csv_hash_at_wide_seed(tmp_path, seed, l_paths):
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--n", "16", "--trials", "60",
                 "--seed", str(seed), "--l-paths", str(l_paths),
                 "--out", str(out)]) == 0
    assert file_sha256(out) == SIMULATE_SEED_SHA256[(seed, l_paths)]


def beampattern_sha256(tmp_path, monkeypatch, extra_argv):
    # the CSV's config comment records the codebook path, so keep it relative
    monkeypatch.chdir(tmp_path)
    assert main(["design", "--scheme", "bmw-ms-cf", "--n", "16",
                 "--out", "cb.txt"]) == 0
    assert main(["beampattern", "--codebook", "cb.txt", "--out", "bp.csv"]
                + extra_argv) == 0
    return file_sha256(tmp_path / "bp.csv")


def test_beampattern_csv_hash(tmp_path, monkeypatch):
    assert beampattern_sha256(tmp_path, monkeypatch, []) == BEAMPATTERN_SHA256


def test_small_grid_beampattern_csv_hash(tmp_path, monkeypatch):
    assert (beampattern_sha256(tmp_path, monkeypatch, ["--points", "64"])
            == SMALL_GRID_BEAMPATTERN_SHA256)


@pytest.mark.parametrize("command", sorted(COMMAND_SHA256))
def test_small_command_csv_hash(tmp_path, command):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--n", "16", "--out", str(out)]) == 0
    assert file_sha256(out) == COMMAND_SHA256[command]
