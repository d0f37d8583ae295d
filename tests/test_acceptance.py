"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. The sweep-based criteria share a session fixture so
the 3-seed grid is computed once.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import rand_hermitian, rand_speech_pencil
from make_sweep_table import ENHANCE_TABLE, SWEEP_TABLE, enhance_runs, enhance_summary
from egomwf.audio_io import AudioClip
from egomwf.cli import run_sweep, write_sweep_outputs
from egomwf.config import EnhanceConfig
from egomwf.covariance import BinStatistics
from egomwf.filters import (
    ChannelPartition,
    build_filterbank,
    compute_gsc,
    implied_speech_covariance,
)
from egomwf.gevd import gevd
from egomwf.metrics import evaluate, snr_db, stoi
from egomwf.pipeline import enhance
from egomwf.scenegen import SceneConfig, render_scene, suite_partition
from egomwf.spp import SppParams, estimate_spp
from egomwf.stft import StftParams, analyze, synthesize

SWEEP_SEEDS = (0, 1, 2)
GRID_SNRS = (-20.0, -10.0, 0.0)
GRID_SIZES = (4, 8, 12)
METHOD_MWF = "mwf"
METHOD_MWF_N = "mwf-with-noise-mics"
METHOD_PK = "pk-mwf"


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ----------------------------------------------------------------- shared


@pytest.fixture(scope="session")
def sweep_3seed(speech_wav):
    """Full 81-cell grid for three seeds, 10 s scenes."""
    return run_sweep(speech_wav, seeds=list(SWEEP_SEEDS), duration_s=10.0)


def _one_bin(r_yy, r_nn):
    """One-bin stacked statistics, eight frames on each side."""
    return BinStatistics(r_yy[None], r_nn[None], np.array([8]), np.array([8]))


def _all(m):
    """Every channel a speech+noise channel."""
    return ChannelPartition(tuple(range(m)), ())


def _weights(r_yy, r_nn, partition, method):
    """Unloaded filter weights of one bin."""
    return build_filterbank(_one_bin(r_yy, r_nn), partition, method, delta=0.0).weights[0]


def _ispp_cell_means(rows):
    """3-seed means per (snr, m_speech_noise, method) for the iSPP slice."""
    cells: dict[tuple, list] = {}
    for row in rows:
        if row["spp_mode"] != "internal" or row["status"] != "ok":
            continue
        key = (row["snr_db"], row["m_speech_noise"], row["method"])
        cells.setdefault(key, []).append(row)
    means = {}
    for key, entries in cells.items():
        means[key] = {
            "snr_improvement_db": float(np.mean([e["snr_improvement_db"] for e in entries])),
            "stoi_improvement": float(np.mean([e["stoi_improvement"] for e in entries])),
            "n": len(entries),
        }
    return means


# -------------------------------------------------------------- criterion 1


def test_acceptance_01_stft_perfect_reconstruction():
    rng = np.random.default_rng(101)
    params = StftParams()
    edge = params.fft_size
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, (1, 48000))
        back = synthesize(analyze(AudioClip(x, 16000), params))
        err = np.max(np.abs(back.samples[:, edge:-edge] - x[:, edge:-edge]))
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _verdict(1, "stft-reconstruction", ok, f"max |err| {worst:.2e}, {elapsed:.2f}s for 100 clips")


# -------------------------------------------------------------- criterion 2


def test_acceptance_02_gevd_oracle_suite():
    rng = np.random.default_rng(202)
    sizes = [2, 3, 4, 5, 6, 7, 8, 12, 16]
    per_size = -(-1000 // len(sizes))
    worst_recon = 0.0
    worst_pencil = 0.0
    total = 0
    deterministic = True
    for m in sizes:
        r_yy = np.stack([rand_hermitian(rng, m) for _ in range(per_size)])
        r_nn = np.stack([rand_hermitian(rng, m, pd_shift=0.5) for _ in range(per_size)])
        dec = gevd(r_yy, r_nn)
        qh = np.conj(np.swapaxes(dec.q, -2, -1))
        recon_y = dec.q @ (dec.sigma_y[..., None] * qh)
        recon_n = dec.q @ (dec.sigma_n[..., None] * qh)
        e_y = np.linalg.norm(recon_y - r_yy, axis=(1, 2)) / np.linalg.norm(r_yy, axis=(1, 2))
        e_n = np.linalg.norm(recon_n - r_nn, axis=(1, 2)) / np.linalg.norm(r_nn, axis=(1, 2))
        worst_recon = max(worst_recon, float(e_y.max()), float(e_n.max()))
        x = np.conj(np.swapaxes(np.linalg.inv(dec.q), -2, -1))
        lhs = r_yy @ x
        rhs = r_nn @ x * (dec.sigma_y / dec.sigma_n)[:, None, :]
        rel = np.linalg.norm(lhs - rhs, axis=(1, 2)) / np.linalg.norm(lhs, axis=(1, 2))
        worst_pencil = max(worst_pencil, float(rel.max()))
        total += per_size
        again = gevd(r_yy[:5], r_nn[:5])
        if not (np.array_equal(again.q, dec.q[:5]) and np.array_equal(again.sigma_y, dec.sigma_y[:5])):
            deterministic = False
    ok = worst_recon <= 1e-8 and worst_pencil <= 1e-8 and deterministic and total >= 1000
    _verdict(
        2, "gevd-suite", ok,
        f"{total} pencils, recon {worst_recon:.2e}, pencil-relation {worst_pencil:.2e}, "
        f"deterministic={deterministic}",
    )


# -------------------------------------------------------------- criterion 3


def test_acceptance_03_rank1_fit_optimality():
    rng = np.random.default_rng(303)
    violations = 0
    for trial in range(200):
        m = int(rng.integers(2, 7))
        r_yy, r_nn = rand_speech_pencil(rng, m)
        r_ss = implied_speech_covariance(_one_bin(r_yy, r_nn), _all(m))[0]
        low_inv = np.linalg.inv(np.linalg.cholesky(r_nn))
        delta = r_yy - r_nn

        def cost(cand):
            mid = low_inv @ (delta - cand) @ low_inv.conj().T
            return float(np.linalg.norm(mid) ** 2)

        best = cost(r_ss)
        scale = np.trace(r_yy).real / m
        v = rng.standard_normal((1000, m)) + 1j * rng.standard_normal((1000, m))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        amps = rng.uniform(0.0, 2.0, 1000) * scale
        for i in range(1000):
            if cost(amps[i] * np.outer(v[i], v[i].conj())) < best - 1e-9 * abs(best):
                violations += 1
                break
    _verdict(3, "rank1-fit-optimality", violations == 0,
             f"200 pencils x 1000 candidates, {violations} violations")


# -------------------------------------------------------------- criterion 4


def test_acceptance_04_pkmwf_constraint_suite():
    rng = np.random.default_rng(404)
    worst_block = 0.0
    worst_rank = 0.0
    worst_psd = 0.0
    worst_lcmv = 0.0
    count = 0
    for m_sn in GRID_SIZES:
        part = ChannelPartition(tuple(range(m_sn)), tuple(range(m_sn, m_sn + 4)))
        m = part.n_total
        h, b = np.eye(m)[:, :m_sn], np.eye(m)[:, m_sn:]
        for _ in range(70):
            r_yy, r_nn = rand_speech_pencil(rng, m)
            r_ss = implied_speech_covariance(_one_bin(r_yy, r_nn), part)[0]
            norm = max(np.linalg.norm(r_ss), 1e-30)
            worst_block = max(worst_block, float(np.linalg.norm(b.conj().T @ r_ss @ b) / norm))
            sv = np.linalg.svd(r_ss, compute_uv=False)
            worst_rank = max(worst_rank, float(sv[1] / max(sv[0], 1e-30)))
            eig_min = np.linalg.eigvalsh(0.5 * (r_ss + r_ss.conj().T)).min()
            worst_psd = max(worst_psd, float(-eig_min / max(np.trace(r_ss).real, 1e-30)))
            c = compute_gsc(r_nn, m_sn)
            worst_lcmv = max(worst_lcmv, float(np.linalg.norm(h.conj().T @ c - np.eye(m_sn))))
            count += 1
    ok = worst_block <= 1e-10 and worst_rank <= 1e-8 and worst_psd <= 1e-10 and worst_lcmv <= 1e-12
    _verdict(
        4, "pkmwf-constraints", ok,
        f"{count} stats over partitions {GRID_SIZES}: blocking {worst_block:.2e}, "
        f"rank2/rank1 {worst_rank:.2e}, psd {worst_psd:.2e}, lcmv {worst_lcmv:.2e}",
    )


# -------------------------------------------------------------- criterion 5


def test_acceptance_05_degeneracy_equivalences():
    rng = np.random.default_rng(505)
    worst_nofree = 0.0
    for _ in range(50):
        r_yy, r_nn = rand_speech_pencil(rng, 5)
        w_pk = _weights(r_yy, r_nn, _all(5), "pk-mwf")
        w_mwf = _weights(r_yy, r_nn, _all(5), "mwf")
        worst_nofree = max(
            worst_nofree,
            float(np.linalg.norm(w_pk - w_mwf) / max(np.linalg.norm(w_mwf), 1e-30)),
        )
    worst_block = 0.0
    for _ in range(50):
        k, mn = 4, 2
        r_yy_a, r_nn_a = rand_speech_pencil(rng, k)
        r_nn_b = rand_hermitian(rng, mn, pd_shift=0.3)
        zeros = np.zeros((k, mn))
        r_yy = np.block([[r_yy_a, zeros], [zeros.T, r_nn_b]])
        r_nn = np.block([[r_nn_a, zeros], [zeros.T, r_nn_b]])
        w_pk = _weights(r_yy, r_nn, ChannelPartition(tuple(range(k)), (4, 5)), "pk-mwf")
        w_sub = _weights(r_yy_a, r_nn_a, _all(k), "mwf")
        padded = np.concatenate([w_sub, np.zeros(mn)])
        worst_block = max(
            worst_block,
            float(np.linalg.norm(w_pk - padded) / max(np.linalg.norm(padded), 1e-30)),
        )
    worst_eq = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        r_yy, r_nn = rand_speech_pencil(rng, m)
        w = _weights(r_yy, r_nn, _all(m), "mwf")
        e_d = np.zeros(m)
        e_d[0] = 1.0
        r_ss = implied_speech_covariance(_one_bin(r_yy, r_nn), _all(m))[0]
        w_direct = np.linalg.solve(r_yy, r_ss @ e_d)
        worst_eq = max(
            worst_eq, float(np.linalg.norm(w - w_direct) / max(np.linalg.norm(w_direct), 1e-30))
        )
    ok = worst_nofree <= 1e-10 and worst_block <= 1e-10 and worst_eq <= 1e-8
    _verdict(
        5, "degeneracy-equivalences", ok,
        f"no-refs {worst_nofree:.2e}, block-diag {worst_block:.2e}, direct-form {worst_eq:.2e}",
    )


# -------------------------------------------------------------- criterion 6


def test_acceptance_06_end_to_end_oracle(speech_wav):
    part = suite_partition(8)
    results = {}
    for snr in GRID_SNRS:
        scene = render_scene(SceneConfig(speech_path=speech_wav, target_snr_db=snr, seed=0))
        cfg = EnhanceConfig(partition=part, spp_mode="oracle", method=METHOD_PK)
        result = enhance(scene.mixture, cfg, scene.speech_image, scene.noise_image)
        report = evaluate(result, scene.speech_image.channel(0), scene.mixture.channel(0))
        results[snr] = report
    ok = all(results[snr].snr_improvement_db > 0.0 for snr in GRID_SNRS)
    ok = ok and results[-10.0].snr_improvement_db >= 5.0
    ok = ok and all(results[snr].stoi_improvement > 0.0 for snr in (-10.0, 0.0))
    detail = ", ".join(
        f"{snr:+.0f}dB: dSNR={results[snr].snr_improvement_db:+.1f} "
        f"dSTOI={results[snr].stoi_improvement:+.3f}"
        for snr in GRID_SNRS
    )
    _verdict(6, "end-to-end-oracle", ok, detail)


# ----------------------------------------------------------- criteria 7 & 8


@pytest.mark.slow
def test_acceptance_07_directional_trends(sweep_3seed):
    means = _ispp_cell_means(sweep_3seed)
    passing = 0
    violations = []
    for snr in GRID_SNRS:
        for m_sn in GRID_SIZES:
            pk = means[(snr, m_sn, METHOD_PK)]
            mwf = means[(snr, m_sn, METHOD_MWF)]
            mwf_n = means[(snr, m_sn, METHOD_MWF_N)]
            assert pk["n"] == len(SWEEP_SEEDS)
            stoi_ok = pk["stoi_improvement"] >= mwf["stoi_improvement"]
            gap = abs(pk["snr_improvement_db"] - mwf_n["snr_improvement_db"])
            snr_ok = gap <= 3.0
            if stoi_ok and snr_ok:
                passing += 1
            else:
                violations.append(
                    f"(snr={snr:+.0f}, M={m_sn}): stoi_ok={stoi_ok}, gap={gap:.2f}dB"
                )
    ok = passing >= 8
    detail = f"{passing}/9 cells satisfy both trends"
    if violations:
        detail += "; violations: " + "; ".join(violations)
    _verdict(7, "directional-trends", ok, detail)


@pytest.mark.slow
def test_acceptance_08_array_size_monotonicity(sweep_3seed):
    means = _ispp_cell_means(sweep_3seed)
    by_size = {
        m_sn: float(
            np.mean(
                [
                    means[(snr, m_sn, method)]["snr_improvement_db"]
                    for snr in GRID_SNRS
                    for method in (METHOD_MWF, METHOD_MWF_N, METHOD_PK)
                ]
            )
        )
        for m_sn in GRID_SIZES
    }
    ok = by_size[8] >= by_size[4]
    detail = (
        f"mean dSNR: M4={by_size[4]:+.2f}, M8={by_size[8]:+.2f}, "
        f"M12={by_size[12]:+.2f} (8->12 reported, not gated)"
    )
    _verdict(8, "array-size-monotonicity", ok, detail)


# -------------------------------------------------------------- criterion 9


def test_acceptance_09_metric_self_tests(speech_clip):
    ref = speech_clip.channel(0)
    stoi_self = stoi(ref, ref)
    half = AudioClip(0.5 * ref.samples, 16000)
    stoi_gain = stoi(ref, half)

    rng = np.random.default_rng(909)
    s = rng.standard_normal(8000)
    s /= np.sqrt(np.mean(s**2))
    n = rng.standard_normal(8000)
    n *= np.sqrt(0.1) / np.sqrt(np.mean(n**2))
    snr_ten = snr_db(AudioClip(s[None, :], 16000), AudioClip(n[None, :], 16000))
    snr_zero = snr_db(AudioClip(s[None, :], 16000), AudioClip(s[None, :], 16000))

    params = SppParams()
    spec = rng.standard_normal((16, 20)) + 1j * rng.standard_normal((16, 20))
    spec[:, 10] = 0.0
    spp_zero = estimate_spp(spec, params).spp[:, 10]
    spp_expected = 1.0 / (2.0 + params.xi_h1)

    checks = {
        "stoi(x,x)=1": abs(stoi_self - 1.0) <= 1e-10,
        "stoi gain-invariance": abs(stoi_gain - 1.0) <= 1e-10,
        "snr 10dB closed form": abs(snr_ten - 10.0) <= 1e-12,
        "snr equal components": abs(snr_zero) <= 1e-12,
        "spp zero-input closed form": np.max(np.abs(spp_zero - spp_expected)) <= 1e-12,
    }
    ok = all(checks.values())
    _verdict(9, "metric-self-tests", ok,
             ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


# ------------------------------------------------------------- criterion 10


@pytest.mark.slow
def test_acceptance_10_full_sweep_runtime_and_reproducibility(speech_wav, tmp_path):
    t0 = time.perf_counter()
    rows_a = run_sweep(speech_wav, seeds=[0], duration_s=10.0)
    elapsed = time.perf_counter() - t0
    rows_b = run_sweep(speech_wav, seeds=[0], duration_s=10.0)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_sweep_outputs(rows_a, dir_a)
    write_sweep_outputs(rows_b, dir_b)
    identical = (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()
    identical = identical and (
        (dir_a / "results.json").read_bytes() == (dir_b / "results.json").read_bytes()
    )
    all_ok = all(r["status"] == "ok" for r in rows_a)
    moved = _table_distance(rows_a, json.loads(SWEEP_TABLE.read_text()))
    ok = len(rows_a) == 81 and elapsed <= 600.0 and identical and all_ok and moved <= 1e-9
    _verdict(
        10, "full-sweep", ok,
        f"81 cells in {elapsed:.1f}s (limit 600s), bit-reproducible={identical}, "
        f"all cells ok={all_ok}, largest move from the stored table {moved:.1e} (limit 1e-9)",
    )


def _table_distance(rows: list[dict], table: list[dict]) -> float:
    """Largest absolute difference of a numeric field between rows and the
    stored table; inf when a row, a key or a string field (status) differs."""
    if len(rows) != len(table):
        return math.inf
    worst = 0.0
    for got, want in zip(rows, table):
        if got.keys() != want.keys():
            return math.inf
        for key, value in want.items():
            if isinstance(value, str):
                if got[key] != value:
                    return math.inf
            else:
                worst = max(worst, abs(got[key] - value))
    return worst


def test_enhance_reference_on_a_2s_scene(speech_wav):
    """The deploy_pk8 and eval_oracle_m16 configurations on a 2 s scene keep
    their stored status counts exactly and output energies within 1e-9
    relative; the run with float32-rounded references filters both shadows."""
    table = json.loads(ENHANCE_TABLE.read_text())
    runs = enhance_runs(speech_wav)
    assert runs.keys() == table.keys()
    for name, run in runs.items():
        got, want = enhance_summary(enhance(*run)), table[name]
        assert got["status_counts"] == want["status_counts"], name
        for clip, energy in want["energy"].items():
            if energy is None:
                assert got["energy"][clip] is None, (name, clip)
            else:
                assert got["energy"][clip] == pytest.approx(energy, rel=1e-9, abs=0), (name, clip)
