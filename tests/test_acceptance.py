"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (run with `pytest -s` to see them live)
and enforces its runtime budget.  Expensive artifacts are built inside the
criterion whose budget covers them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from mmwcodebook import (
    AngleInterval,
    GdpConfig,
    SimConfig,
    assemble_codeword,
    beam_pattern,
    build_codebook,
    build_ps_dft,
    cf_phases,
    db_to_linear,
    element_power_cdf,
    gdp,
    hierarchical_search,
    inf_norm_sq,
    lcs_phases,
    normalize,
    phase_rotate,
    run_monte_carlo,
    steering_vector,
    subarray_plan,
)
from mmwcodebook.cli import main as cli_main
from mmwcodebook.metrics import gdp_integrand, quadrature_grid

TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{desc}]: FAIL "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget_s
    print(f"ACCEPTANCE {num} [{desc}]: {'PASS' if ok else 'FAIL'} "
          f"({dt:.1f}s / budget {budget_s:.0f}s)")
    assert ok, f"runtime {dt:.1f}s exceeded the {budget_s:.0f}s budget"


def random_unit(rng, n):
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return w / np.linalg.norm(w)


def test_criterion_1_parseval():
    with criterion(1, "Parseval quadrature", 10.0):
        rng = np.random.default_rng(2024)
        sizes = [4, 8, 16, 32, 64]
        for i in range(200):
            n = sizes[i % len(sizes)]
            w = random_unit(rng, n)
            grid = np.linspace(-1.0, 1.0, 2048 * n + 1)
            power = beam_pattern(w, grid)
            avg = np.trapezoid(power, dx=2.0 / (grid.size - 1)) / 2.0
            assert abs(avg - 1.0) <= 1e-6


def test_criterion_2_phase_relations():
    with criterion(2, "closed-form phase relations", 1.0):
        def mod_dist(x):
            r = np.mod(x, TWO_PI)
            return min(r, TWO_PI - r)

        for n in (8, 16, 32, 64):
            for k in range(int(math.log2(n)) + 1):
                plan = subarray_plan(n, 2, AngleInterval(-1.0, 2.0 / 2 ** k))
                theta = cf_phases(plan)
                step = -math.pi * (plan.n_s - 1) * plan.delta_theta / 2.0
                for m in range(plan.m_s):
                    for i in range(plan.m_rf - 1):
                        assert mod_dist(theta[i + 1, m] - theta[i, m]
                                        - step) <= 1e-12
                for m in range(plan.m_s - 1):
                    jump = (step + math.pi * plan.n_s * (m + 1) * plan.m_rf
                            * plan.delta_theta)
                    assert mod_dist(theta[0, m + 1] - theta[plan.m_rf - 1, m]
                                    - jump) <= 1e-12


def test_criterion_3_gdp_properties():
    with criterion(3, "GDP properties 1-3", 30.0):
        rng = np.random.default_rng(77)
        # property 1: phase-shift invariance over 100 random rotations
        for _ in range(100):
            n = int(rng.integers(4, 33))
            w = random_unit(rng, n)
            width = float(rng.uniform(0.05, 0.9))
            start = float(rng.uniform(-1.0, 0.0))
            delta = float(rng.uniform(0.0, 1.0 - (start + width)))
            iv = AngleInterval(start, width)
            assert abs(gdp(phase_rotate(w, delta), iv.shifted(delta))
                       - gdp(w, iv)) <= 1e-6
        # property 3: upper bound across all generated codewords
        books = [build_codebook("bmw-ms-cf", n, 2) for n in (8, 16, 32)]
        books += [build_codebook("bmw-ms-lcs", 16, 2, grid_size=32)]
        books += [build_ps_dft(n, 2, grid_size=32) for n in (8, 16, 32)]
        for cb in books:
            for k in range(cb.depth + 1):
                for cw in cb.layer_codewords(k):
                    u = cw.unit_awv
                    bound = (math.exp(-inf_norm_sq(u) /
                                      (inf_norm_sq(u)
                                       + 2.0 / cw.coverage.width)))
                    assert gdp(u, cw.coverage) <= bound + 1e-6
        # property 2: pointwise integrand monotonicity in the entry power
        for _ in range(100):
            profile = rng.uniform(0.0, 12.0, 128)
            c_lo, c_hi = sorted(rng.uniform(0.005, 1.0, 2))
            assert np.all(gdp_integrand(c_lo, profile)
                          >= gdp_integrand(c_hi, profile))


def test_criterion_4_element_power_cdf():
    with criterion(4, "element-power CDF levels", 30.0):
        for scheme in ("bmw-ms-cf", "bmw-ms-lcs"):
            cb = build_codebook(scheme, 32, 2)
            powers, _ = element_power_cdf([cb])
            assert 0.04 <= powers[-1] <= 0.08, \
                f"{scheme} max element power {powers[-1]:.4f}"
        ps = build_ps_dft(32, 2)
        powers, _ = element_power_cdf([ps])
        assert powers[-1] > 0.2, f"ps-dft max element power {powers[-1]:.4f}"


def test_criterion_5_gdp_comparison():
    with criterion(5, "layer-1 GDP ordering", 120.0):
        orderings = {}
        for gamma_db in (0.0, 2.0):
            eval_cfg = GdpConfig(gamma_per=db_to_linear(gamma_db))
            for n in (16, 32, 64):
                values = {}
                for scheme in ("bmw-ms-cf", "bmw-ms-lcs", "ps-dft"):
                    cw = build_codebook(scheme, n, 2).codeword(1, 1)
                    values[scheme] = gdp(cw.unit_awv, cw.coverage, eval_cfg)
                assert abs(values["bmw-ms-lcs"] - values["bmw-ms-cf"]) <= 0.02
                assert min(values["bmw-ms-lcs"],
                           values["bmw-ms-cf"]) > values["ps-dft"]
                order = tuple(sorted(values, key=values.get))
                orderings.setdefault(n, set()).add(order)
        # same ranking at both operating points
        assert all(len(orders) == 1 for orders in orderings.values())


def test_criterion_6_lcs_bruteforce_oracle(gdp_reference):
    # the exhaustive values come from a plain trapezoid rule over an
    # explicit response table, one row of phase candidates at a time, not
    # from the kernel that the search itself runs; sampled candidates are
    # checked against the `gdp_reference` fixture
    with criterion(6, "LCS vs exhaustive search", 300.0):
        iv = AngleInterval(-1.0, 1.0)
        cfg = GdpConfig()
        plan = subarray_plan(8, 2, iv)
        _, _, theta = lcs_phases(plan, iv, cfg, grid_size=64)
        _, awv = assemble_codeword(plan, theta)
        lcs_value = gdp(normalize(awv), iv, cfg)

        fine = 256
        grid = TWO_PI * np.arange(fine) / fine
        m_idx = np.arange(1, plan.m_s + 1)[None, :]
        i_idx = np.arange(1, plan.m_rf + 1)[:, None]
        psi = quadrature_grid(iv, cfg.points_for(plan.n_antennas))
        table = np.exp(-1j * np.pi * np.outer(psi, np.arange(plan.n_antennas)))
        h = iv.width / (psi.size - 1)

        def codeword(p1, p2):
            return normalize(assemble_codeword(plan, m_idx * p1 + i_idx * p2)[1])

        # every candidate in one broadcast: with zero phases, chain i's
        # analog column holds sub-array (i, m) on antennas m*n_s..; the
        # phase m*phi1 + i*phi2 (1-based) then scales that block, so
        # candidate (a, b) is column b of cands[a]
        zero, _ = assemble_codeword(plan, np.zeros((plan.m_rf, plan.m_s)))
        sub = np.arange(plan.n_antennas) // plan.n_s + 1
        cands = (np.exp(1j * np.outer(grid, sub))[:, :, None]
                 * (zero @ np.exp(1j * np.outer(i_idx, grid)))[None])
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)

        values = np.empty((fine, fine))
        for a, w in enumerate(cands):
            y = gdp_integrand(np.max(np.abs(w) ** 2, axis=0),
                              np.abs(table @ w) ** 2, cfg.gamma_per)
            values[a] = np.trapezoid(y, dx=h, axis=0) / iv.width
        for a, b in np.random.default_rng(6).integers(fine, size=(64, 2)):
            w = codeword(grid[a], grid[b])
            assert np.max(np.abs(cands[a, :, b] - w)) <= 1e-14
            ref = gdp_reference(w, iv, cfg)
            assert abs(values[a, b] - ref) <= 1e-12
        ratio = fine // 64
        wrapped = np.pad(values, ((0, ratio), (0, ratio)), mode="wrap")
        cell_span = 0.0
        for a in range(64):
            for b in range(64):
                cell = wrapped[a * ratio:(a + 1) * ratio + 1,
                               b * ratio:(b + 1) * ratio + 1]
                cell_span = max(cell_span, float(cell.max() - cell.min()))
        assert values.max() - lcs_value <= cell_span + 1e-12, \
            f"gap {values.max() - lcs_value:.3e} vs cell span {cell_span:.3e}"


def test_criterion_7_noise_free_search():
    with criterion(7, "noise-free hierarchical search", 60.0):
        cb = build_codebook("bmw-ms-cf", 32, 2)
        cfg = SimConfig(l_paths=1, l_s=32, n0=0.0, papc=True)
        rng = np.random.default_rng(555)
        successes = 0
        for _ in range(500):
            j_true = int(rng.integers(1, 33))
            i_true = int(rng.integers(1, 33))
            aod = -1.0 + (2 * j_true - 1) / 32
            aoa = -1.0 + (2 * i_true - 1) / 32
            h = (32 * np.outer(steering_vector(32, aoa),
                               steering_vector(32, aod).conj()))
            res = hierarchical_search(cb, cb, h, cfg)
            assert res.overhead == 5 * cfg.l_s
            if (res.j_t, res.i_r) == (j_true, i_true):
                successes += 1
        assert successes == 500


def test_criterion_8_snr_sweep_trends():
    with criterion(8, "success/rate SNR trends", 600.0):
        snr_db = [-40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0]
        cf = build_codebook("bmw-ms-cf", 32, 2)
        ps = build_ps_dft(32, 2)
        cfg = SimConfig(l_paths=1, l_s=32, n0=1.0, papc=True, seed=2024,
                        trials=2000)
        rows = run_monte_carlo([("bmw-ms-cf", cf, cf), ("ps-dft", ps, ps)],
                               snr_db, cfg, workers=4)
        by_scheme = {
            name: [r for r in rows if r["scheme"] == name]
            for name in ("bmw-ms-cf", "ps-dft")}
        for name, series in by_scheme.items():
            for lo, hi in zip(series, series[1:]):
                band = 3.0 * math.hypot(lo["stderr"], hi["stderr"])
                assert hi["success_rate"] >= lo["success_rate"] - band, \
                    f"{name} success not monotone at {hi['snr_db']} dB"
                assert hi["rate_bps_hz"] >= lo["rate_bps_hz"] - 1e-9, \
                    f"{name} rate not monotone at {hi['snr_db']} dB"
        for cf_row, ps_row in zip(by_scheme["bmw-ms-cf"], by_scheme["ps-dft"]):
            gap = cf_row["success_rate"] - ps_row["success_rate"]
            sigma = math.hypot(cf_row["stderr"], ps_row["stderr"])
            if abs(gap) > 3.0 * sigma:
                assert gap > 0.0, \
                    f"ps-dft beats bmw-ms-cf at {cf_row['snr_db']} dB"


def test_criterion_9_simulate_determinism(tmp_path):
    with criterion(9, "CSV byte determinism", 120.0):
        base = ["simulate", "--n", "16", "--m-rf", "2", "--schemes",
                "bmw-ms-cf,ps-dft", "--snr-db=-30,-20", "--trials", "60",
                "--seed", "31337", "--l-s", "16"]
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}.csv"
            assert cli_main(base + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], "rerun changed the CSV"


def test_criterion_10_link_budget(tmp_path, capsys):
    with criterion(10, "link-budget worked example", 10.0):
        out = tmp_path / "budget.csv"
        assert cli_main(["linkbudget", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "note:" in stdout and "-11 dB" in stdout
        lines = out.read_text().splitlines()
        values = {row.split(",")[0]: float(row.split(",")[1])
                  for row in lines[2:]}
        assert abs(values["spreading_gain_db"] - 21.0) <= 0.5
        assert abs(values["noise_dbm"] - (-74.0)) <= 0.5
        assert abs(values["received_dbm"] - (-87.0)) <= 0.5
