"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Criteria 1-3 share two seeded 50-run studies (homoscedastic and
heteroscedastic); both are computed once per session in module fixtures
and timed, so the runtime bounds are part of the gate.
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from faircov import (
    QuantileLevels,
    SyntheticSpec,
    brute_force_oracle,
    cqr_calibrate,
    cqr_calibrate_groupwise,
    equal_mass_bins,
    evaluate,
    fair_calibrate,
    generate_synthetic,
    measure_coverage,
    picp_gap,
    pinball_loss,
    predict_interval,
)
from faircov import quantile_model
from faircov.cli import main

from conftest import make_dataset, synthetic_with_band


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def study(noise, n_cal, n_test, bins, alpha=0.1, seeds=range(50)):
    """Per-seed coverage and width for cqr, groupwise cqr, and fuq."""
    rows = []
    identity_dev = 0.0
    t0 = time.perf_counter()
    for seed in seeds:
        data, _ = synthetic_with_band(n_cal + n_test, noise, seed=seed)
        cal = data.subset(np.arange(n_cal))
        test = data.subset(np.arange(n_cal, n_cal + n_test))
        reports = {
            "cqr": evaluate(test, None, cqr_calibrate(cal, None, alpha)),
            "gw": evaluate(test, None, cqr_calibrate_groupwise(cal, None, alpha)),
            "fuq": evaluate(test, None, fair_calibrate(cal, None, bins, alpha)[0]),
        }
        for rep in reports.values():
            recovered = sum(
                c * p for c, p in zip(rep.group_counts, rep.picp_per_group)
            )
            identity_dev = max(identity_dev, abs(recovered - rep.covered_total))
        rows.append(
            (
                reports["cqr"].picp_overall,
                reports["cqr"].picp_gap,
                reports["cqr"].mpiw_overall,
                reports["gw"].mpiw_overall,
                reports["fuq"].picp_overall,
                reports["fuq"].picp_gap,
                reports["fuq"].mpiw_overall,
                min(reports["fuq"].picp_per_group),
            )
        )
    elapsed = time.perf_counter() - t0
    return np.asarray(rows), elapsed, identity_dev


@pytest.fixture(scope="module")
def homoscedastic_study():
    return study((1.0, 1.0), n_cal=2000, n_test=2000, bins=2)


@pytest.fixture(scope="module")
def heteroscedastic_study():
    return study((1.0, 2.0), n_cal=4000, n_test=20000, bins=4)


def test_criterion_1_marginal_validity(homoscedastic_study):
    rows, elapsed, _ = homoscedastic_study
    cqr_picp, fuq_picp = rows[:, 0], rows[:, 4]
    cqr_in = int(np.sum((cqr_picp >= 0.88) & (cqr_picp <= 0.92)))
    fuq_in = int(np.sum((fuq_picp >= 0.88) & (fuq_picp <= 0.92)))
    ok = (
        cqr_in >= 47
        and fuq_in >= 47
        and cqr_picp.mean() >= 0.90 - 0.005
        and fuq_picp.mean() >= 0.90 - 0.005
        and elapsed < 30.0
    )
    verdict(
        1,
        ok,
        f"cqr in-band {cqr_in}/50 mean {cqr_picp.mean():.4f}, "
        f"fuq in-band {fuq_in}/50 mean {fuq_picp.mean():.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_coverage_equalization(heteroscedastic_study):
    rows, _, _ = heteroscedastic_study
    cqr_gap, fuq_gap, fuq_min = rows[:, 1], rows[:, 5], rows[:, 7]
    hits = int(np.sum((cqr_gap >= 0.03) & (fuq_gap <= 0.015) & (fuq_min >= 0.88)))
    ok = hits >= 45
    verdict(
        2,
        ok,
        f"gap>=0.03 & fuq gap<=0.015 & min group picp>=0.88 on {hits}/50 seeds; "
        f"mean gaps cqr {cqr_gap.mean():.4f} -> fuq {fuq_gap.mean():.4f}",
    )


def test_criterion_3_width_economy(heteroscedastic_study):
    rows, _, _ = heteroscedastic_study
    cqr_w, gw_w, fuq_w = rows[:, 2].mean(), rows[:, 3].mean(), rows[:, 6].mean()
    ok = fuq_w <= 1.10 * gw_w and fuq_w <= 1.05 * cqr_w
    verdict(
        3,
        ok,
        f"fuq/groupwise {fuq_w / gw_w:.4f} <= 1.10, fuq/cqr {fuq_w / cqr_w:.4f} <= 1.05",
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    ran = 0
    floors_ok = True
    for i in range(20):
        n = int(rng.integers(24, 41))
        m = int(rng.integers(1, 3))
        alpha = float(rng.choice([0.2, 0.3]))
        cal, _ = synthetic_with_band(
            n, (1.0, 2.0), seed=100 + i, half_width=1.0, feature_dim=2
        )
        if np.bincount(cal.group, minlength=2).min() < 2 * m:
            continue
        part = equal_mass_bins(cal.y, m, cal.label_domain)
        table, _ = fair_calibrate(cal, None, part, alpha)
        obj = evaluate(cal, None, table).mpiw_overall
        opt = evaluate(cal, None, brute_force_oracle(cal, None, part, alpha)).mpiw_overall
        rel = (obj - opt) / opt if opt > 0 else 0.0
        worst = max(worst, abs(rel))
        state = measure_coverage(cal, None, table)
        covered = float((state.beta * state.cell_counts).sum())
        floors_ok = floors_ok and bool(
            np.all(state.per_group_mean >= (1.0 - alpha) - 1e-9)
            and covered >= math.ceil(n * (1.0 - alpha) - 1e-9) - 1e-9
        )
        ran += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and floors_ok and elapsed < 5.0 and ran >= 15
    verdict(
        4,
        ok,
        f"worst relative excess {worst:.4f} <= 0.05 over {ran} instances, "
        f"coverage floors {'held' if floors_ok else 'violated'}, {elapsed:.2f}s",
    )


def test_criterion_5_collapse_identities():
    data, _ = synthetic_with_band(240, (1.5,), seed=11)
    alpha = 0.1

    table_m3, _ = fair_calibrate(data, None, 3, alpha)
    gw = cqr_calibrate_groupwise(data, None, alpha)
    thresholds_match = bool(np.all(table_m3.r_hat == gw.r_hat[0, 0]))
    intervals_match = True
    for i in range(data.n):
        a = predict_interval(float(data.q_lo[i]), float(data.q_hi[i]), 0, table_m3)
        b = predict_interval(float(data.q_lo[i]), float(data.q_hi[i]), 0, gw)
        intervals_match = intervals_match and a.components == b.components

    table_m1, _ = fair_calibrate(data, None, 1, alpha)
    vanilla = cqr_calibrate(data, None, alpha)
    m1_match = table_m1.r_hat[0, 0] == vanilla.r_hat

    ok = thresholds_match and intervals_match and m1_match
    verdict(
        5,
        ok,
        f"S=1 thresholds bit-equal {thresholds_match}, intervals equal {intervals_match}, "
        f"M=1,S=1 equals the pooled quantile {m1_match}",
    )


def test_criterion_6_metric_fixtures():
    data = make_dataset(
        y=[1.0, 2.0, 4.0, 6.0, 8.0, 9.0],
        group=[0, 0, 1, 0, 1, 1],
        q_lo=[0.5, 0.0, 3.0, 5.5, 9.0, 8.0],
        q_hi=[2.0, 1.0, 6.0, 7.0, 10.0, 8.5],
        domain=(0.0, 10.0),
    )
    from faircov import ThresholdTable

    part = equal_mass_bins(data.y, 2, data.label_domain)
    table = ThresholdTable(
        r_hat=np.full((2, 2), -0.5),
        global_r_hat=-0.5,
        alpha=0.1,
        partition=part,
        group_count=2,
    )
    rep = evaluate(data, None, table)
    exact = (
        rep.picp_overall == 0.5
        and rep.mpiw_overall == 0.5
        and rep.picp_per_group == (2.0 / 3.0, 1.0 / 3.0)
        and rep.picp_gap == picp_gap(rep.picp_per_group)
        and abs(rep.picp_gap - 1.0 / 3.0) < 1e-15
        and rep.covered_total == 3
    )
    recovered = sum(c * p for c, p in zip(rep.group_counts, rep.picp_per_group))
    identity = abs(recovered / rep.n_test - rep.picp_overall) < 1e-12
    ok = exact and identity
    verdict(
        6,
        ok,
        f"hand fixture exact {exact}, weighted-mean identity deviation "
        f"{abs(recovered / rep.n_test - rep.picp_overall):.2e}",
    )


def test_criterion_6_identity_on_every_study_run(
    homoscedastic_study, heteroscedastic_study
):
    dev = max(homoscedastic_study[2], heteroscedastic_study[2])
    ok = dev < 1e-9
    verdict(6, ok, f"weighted-mean identity max deviation {dev:.2e} across 300 reports")


def test_criterion_7_duality_gap():
    # each level as fit() solves it: standardized features, least-squares start
    spec = SyntheticSpec(
        n=4000,
        group_probs=(0.25, 0.25, 0.25, 0.25),
        feature_dim=3,
        noise_scale_per_group=(1.0, 2.0, 3.0, 4.0),
        label_domain=(0.0, 63.0),
        seed=123,
    )
    train = generate_synthetic(spec)
    y, x = train.y, train.features
    design = np.vstack([np.ones(train.n), ((x - x.mean(axis=0)) / x.std(axis=0)).T])
    start = np.linalg.lstsq(design @ design.T, design @ y, rcond=None)[0]
    tol = quantile_model._GAP_TOL * (1.0 + float(np.abs(y).sum()))
    in_box, residual, gaps = True, 0.0, []
    for q in QuantileLevels.for_alpha(0.1).levels:
        coef, a = quantile_model._frisch_newton(design, y, q, start, 400)
        # the dual max y'a s.t. X'a = (1 - q) X'1, 0 <= a <= 1, and its gap to the loss
        in_box = in_box and bool(a.min() > -1e-12 and a.max() < 1.0 + 1e-12)
        lhs, rhs = design @ a, (1.0 - q) * design.sum(axis=1)
        residual = max(residual, float((np.abs(lhs - rhs) / np.abs(design).sum(axis=1)).max()))
        loss = float(pinball_loss(y, coef @ design, q).sum())
        gaps.append(loss - (float(y @ a) - (1.0 - q) * float(y.sum())))
    ok = in_box and residual <= 1e-9 and all(-1e-9 <= gap <= tol for gap in gaps)
    verdict(
        7,
        ok,
        f"dual within [0, 1] {in_box}, relative equality residual {residual:.1e} <= 1e-9, "
        f"duality gaps {', '.join(f'{gap:.1e}' for gap in gaps)} <= {tol:.1e} at 3 levels",
    )


def test_criterion_8_cli_determinism(tmp_path):
    out = str(tmp_path / "run")

    def run_all():
        steps = [
            ["simulate", "--out-dir", out, "--n", "600", "--feature-dim", "2", "--seed", "3"],
            ["fit", "--out-dir", out, "--data", f"{out}/train.csv", "--epochs", "120", "--seed", "3"],
            [
                "calibrate", "--out-dir", out,
                "--data", f"{out}/cal.csv", "--model", f"{out}/model.json",
                "--method", "fuq", "--bins", "2", "--seed", "3",
            ],
            [
                "evaluate", "--out-dir", out,
                "--data", f"{out}/test.csv", "--model", f"{out}/model.json",
                "--calibrator", f"{out}/calibrator.json",
            ],
            [
                "compare", "--out-dir", out,
                "--cal", f"{out}/cal.csv", "--test", f"{out}/test.csv",
                "--model", f"{out}/model.json", "--bins", "2", "--seed", "3",
            ],
            [
                "sweep-m", "--out-dir", out,
                "--data", f"{out}/cal.csv", "--model", f"{out}/model.json",
                "--m-values", "1,2", "--seed", "3",
            ],
        ]
        for argv in steps:
            assert main(argv) == 0
        hashes = {}
        for name in sorted(os.listdir(out)):
            if name == "manifest.json":  # records wall-clock timings
                continue
            with open(os.path.join(out, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
        return hashes

    os.makedirs(out)
    first = run_all()
    second = run_all()
    differing = [k for k in first if first.get(k) != second.get(k)]
    ok = first.keys() == second.keys() and not differing
    verdict(
        8,
        ok,
        f"{len(first)} artifacts bit-identical across reruns"
        + (f"; differing: {differing}" if differing else ""),
    )
