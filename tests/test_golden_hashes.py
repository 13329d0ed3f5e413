"""sha256 of stored codebook files and CSVs, pinned so that any change of bytes shows.

The codebook hashes were recorded before the coarse-to-fine candidate
search replaced the exhaustive one, and the simulate and beampattern
hashes before the trial-batched search replaced the search per cell; the
gdp and cdf hashes were recorded before the process pool was removed.  A
speed change must leave them as they are.
"""

import hashlib

import pytest

from mmwcodebook import build_codebook, serialize
from mmwcodebook.cli import main

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
}


@pytest.mark.parametrize("scheme, n, m_rf", sorted(GOLDEN_SHA256))
def test_codebook_file_hash(scheme, n, m_rf):
    text = serialize(build_codebook(scheme, n, m_rf))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_SHA256[(scheme, n, m_rf)]


SIMULATE_SHA256 = \
    "5ff59ce4ab0928f4ff75fa289759942c3c0e16d47e3394acf6f63671196250f8"
BEAMPATTERN_SHA256 = \
    "22c3779e916ecd050ecd9cff9f188a1616072b3969f4555f921e50c042d0826e"
# `gdp --n 16` and `cdf --n 16`, every scheme and the other keys at default
COMMAND_SHA256 = {
    "gdp": "714a554d2abcceeb058e4b523b09720fcb3c1a0159e23352b9125c1b780071b9",
    "cdf": "6d001a8fb4e49b216e69422c34bb2795c09c72228d37bc01a57661d8060fb81a",
}


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 4])
def test_simulate_csv_hash(tmp_path, workers):
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--n", "16", "--trials", "60", "--seed", "31337",
                 "--workers", str(workers), "--out", str(out)]) == 0
    assert file_sha256(out) == SIMULATE_SHA256


def test_beampattern_csv_hash(tmp_path, monkeypatch):
    # the CSV's config comment records the codebook path, so keep it relative
    monkeypatch.chdir(tmp_path)
    assert main(["design", "--scheme", "bmw-ms-cf", "--n", "16",
                 "--out", "cb.txt"]) == 0
    assert main(["beampattern", "--codebook", "cb.txt", "--out", "bp.csv"]) == 0
    assert file_sha256(tmp_path / "bp.csv") == BEAMPATTERN_SHA256


@pytest.mark.parametrize("command", sorted(COMMAND_SHA256))
def test_small_command_csv_hash(tmp_path, command):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--n", "16", "--out", str(out)]) == 0
    assert file_sha256(out) == COMMAND_SHA256[command]
