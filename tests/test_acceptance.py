"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line with the measured values.

Tolerances are pinned here and must not be loosened to make a criterion
pass; a genuine failure is reported as such.
"""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest

from qss import metrics
from qss.components import (
    beam_splitter,
    displace,
    epr_pair,
    homodyne,
    loss,
    phase_insensitive_amp,
    phase_sensitive_amp,
    phase_shift,
)
from qss.harness import ExperimentConfig, SweepAxis, oracle_check, preset_config, run
from qss.metrics import duan_inseparability, metrics_report, reid_epr
from qss.modes import (
    MINUS,
    PLUS,
    commutator,
    db_to_linear,
    new_coherent,
    new_squeezed,
    new_vacuum,
)
from qss.protocols import (
    DealerConfig,
    dealer_encode,
    make_report,
    parametric_correction,
    reconstruct_double_ff,
    reconstruct_mz,
    reconstruct_pia,
    reconstruct_single_ff,
    reconstruct_two_opa,
)

V_SQ_45DB = db_to_linear(-4.5)
V_N_35DB = db_to_linear(3.5)


def report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_mz_exactness():
    start = time.perf_counter()
    worst_coeff = 0.0
    worst_f = 0.0
    for v_sq in np.linspace(0.1, 1.0, 5):
        for anti_factor in (1.0, 2.0, 5.0, 10.0, 100.0):
            for v_n in np.linspace(0.0, 100.0, 5):
                cfg = DealerConfig(v_sq=float(v_sq), v_anti=anti_factor / float(v_sq), v_n=float(v_n))
                shares = dealer_encode(cfg)
                out = reconstruct_mz(shares.share1, shares.share2)
                rep = make_report(shares.secret, out)
                foreign = max(
                    (abs(c) for label, pair in rep.coefficients.items()
                     if not label.startswith("secret") for c in pair),
                    default=0.0,
                )
                worst_coeff = max(worst_coeff, foreign)
                worst_f = max(worst_f, abs(metrics_report(rep).fidelity - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_coeff < 1e-12 and worst_f < 1e-12 and elapsed < 1.0
    report(1, "MZ exactness", ok,
           f"max foreign coefficient {worst_coeff:.2e}, max |F-1| {worst_f:.2e}, {elapsed:.2f}s")


def test_criterion_2_unity_gain_protocol_equivalence():
    start = time.perf_counter()
    rng = random.Random(20230815)
    worst_pair = 0.0
    worst_expect = 0.0
    worst_noise = 0.0
    for _ in range(10):
        v_sq = rng.uniform(0.1, 1.0)
        v_anti = rng.uniform(1.0, 10.0) / v_sq
        v_n = rng.uniform(0.0, 10.0)
        player = rng.choice([1, 2])
        shares = dealer_encode(DealerConfig(v_sq=v_sq, v_anti=v_anti, v_n=v_n))
        share_a = shares.share(player)
        outs = [
            reconstruct_pia(share_a, shares.share3, 2.0),
            reconstruct_two_opa(share_a, shares.share3, 3.0 + 2.0 * math.sqrt(2.0)),
            parametric_correction(
                reconstruct_single_ff(share_a, shares.share3, 2.0 / 3.0, 2.0 * math.sqrt(2.0))),
            reconstruct_double_ff(share_a, shares.share3, shares.secret, 0.5, 1.0),
        ]
        moments = []
        for out in outs:
            rep = make_report(shares.secret, out)
            moments.append((rep.g_plus, rep.g_minus, rep.v_out_plus, rep.v_out_minus))
            expect = 1.0 + 2.0 * v_sq
            worst_expect = max(worst_expect, abs(rep.v_out_plus - expect), abs(rep.v_out_minus - expect))
            for label, pair in rep.coefficients.items():
                if label.startswith("N."):
                    worst_noise = max(worst_noise, *(abs(c) for c in pair))
        for a, b in itertools.combinations(moments, 2):
            worst_pair = max(worst_pair, max(abs(x - y) for x, y in zip(a, b)))
    elapsed = time.perf_counter() - start
    ok = worst_pair < 1e-10 and worst_expect < 1e-10 and worst_noise < 1e-10 and elapsed < 1.0
    report(2, "unity-gain protocol equivalence", ok,
           f"pairwise moment dev {worst_pair:.2e}, vs 1+2*v_sq {worst_expect:.2e}, "
           f"noise coeff {worst_noise:.2e}, {elapsed:.2f}s")


def test_criterion_3_classical_limits():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        protocol="single_ff",
        v_sq=1.0,
        sweep_reflectivity=SweepAxis(0.0, 1.0, 41),
        sweep_gain=SweepAxis(0.0, 4.0, 41),
    )
    result = run(cfg)
    rows = [r for r in result.rows if not r.get("error")]
    max_f = max(r["fidelity_unity"] for r in rows)
    max_t = max(r["signal_transfer"] for r in rows)
    min_v = min(r["added_noise"] for r in rows)
    violations = result.summary["bound_violations"]
    elapsed = time.perf_counter() - start
    ok = (
        abs(max_f - 0.5) <= 1e-3
        and abs(max_t - 1.0) <= 1e-3
        and abs(min_v - 0.25) <= 1e-3
        and not violations
        and elapsed < 5.0
    )
    report(3, "classical limits", ok,
           f"max F {max_f:.6f}, max T {max_t:.6f}, min V {min_v:.6f}, "
           f"{violations} bound violations, {elapsed:.2f}s")


def test_criterion_4_quantum_advantage_ideal():
    start = time.perf_counter()
    shares = dealer_encode(DealerConfig(v_sq=V_SQ_45DB))
    out = reconstruct_pia(shares.share1, shares.share3)
    f23 = metrics_report(make_report(shares.secret, out)).fidelity
    f_avg = (1.0 + 2.0 * f23) / 3.0
    shares_hi = dealer_encode(DealerConfig(v_sq=1e-6))
    f23_hi = metrics_report(make_report(
        shares_hi.secret, reconstruct_pia(shares_hi.share1, shares_hi.share3))).fidelity
    elapsed = time.perf_counter() - start
    ok = (
        abs(f23 - 0.738) <= 1e-3
        and f_avg > 2.0 / 3.0
        and abs(f_avg - 0.825) <= 1e-3
        and abs(f23_hi - 1.0) <= 1e-3
        and elapsed < 1.0
    )
    report(4, "quantum advantage (ideal optics)", ok,
           f"F_23 {f23:.6f}, F_avg {f_avg:.6f}, F_23(v_sq=1e-6) {f23_hi:.6f}, {elapsed:.2f}s")


def test_criterion_5_experimental_reproduction():
    start = time.perf_counter()
    summary = run(preset_config("summary")).summary
    f23, f12, f_avg = summary["f_23"], summary["f_12"], summary["f_avg"]
    t23, v23 = summary["t_23_best"], summary["v_23_best"]
    elapsed = time.perf_counter() - start
    ok = (
        0.58 <= f23 <= 0.70
        and 0.9 <= t23 <= 1.2
        and 0.3 <= v23 <= 0.6
        and 0.90 <= f12 <= 1.0
        and 0.68 <= f_avg <= 0.80
        and elapsed < 1.0
    )
    report(5, "experimental reproduction", ok,
           f"F_23 {f23:.4f} (measured 0.62±0.02), T_23 {t23:.4f} (1.01±0.06), "
           f"V_23 {v23:.4f} (0.41±0.11), F_12 {f12:.4f} (0.95±0.05), "
           f"F_avg {f_avg:.4f} (0.73±0.02), {elapsed:.2f}s")


def test_criterion_6_entanglement_criteria():
    start = time.perf_counter()
    e1, e2 = epr_pair(new_squeezed(V_SQ_45DB, None, MINUS), new_squeezed(V_SQ_45DB, None, PLUS))
    duan = duan_inseparability(e1, e2)
    reid = reid_epr(e1, e2)
    # v_sq = 1 means no squeezing at all: the pair is two independent
    # vacua and both measures sit exactly on the separability boundary.
    duan_vac = duan_inseparability(new_vacuum(), new_vacuum())
    reid_vac = reid_epr(new_vacuum(), new_vacuum())
    b1, b2 = epr_pair(new_vacuum(), new_vacuum())
    duan_bs = duan_inseparability(b1, b2)
    eta_fit = metrics.fit_symmetric_epr_loss(0.44, V_SQ_45DB)
    duan_fit = duan_inseparability(loss(e1, eta_fit), loss(e2, eta_fit))
    elapsed = time.perf_counter() - start
    ok = (
        abs(duan - 0.3548) <= 1e-4
        and abs(reid - 0.397) <= 1e-3
        and duan < 1.0
        and reid < 1.0
        and duan_vac == 1.0
        and reid_vac == 1.0
        and abs(duan_bs - 1.0) < 1e-12
        and abs(duan_fit - 0.44) <= 0.01
        and elapsed < 1.0
    )
    report(6, "entanglement criteria", ok,
           f"Duan {duan:.6f}, Reid {reid:.6f}, vacuum ({duan_vac}, {reid_vac}), "
           f"fitted eta {eta_fit:.4f} -> Duan {duan_fit:.4f} (measured 0.44), {elapsed:.2f}s")


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    base = preset_config("summary")
    worst = 0.0
    all_passed = True
    for protocol in ("mz", "pia", "two_opa", "single_ff", "double_ff", "adversary_1", "adversary_3"):
        cfg = dataclasses.replace(
            base, protocol=protocol, unity_gain=(protocol == "single_ff"),
            shots=1_000_000, oracle_rows=1)
        rep = oracle_check(cfg)
        worst = max(worst, rep.worst_z)
        all_passed = all_passed and rep.passed
    elapsed = time.perf_counter() - start
    ok = all_passed and worst < 5.0 and elapsed < 60.0
    report(7, "Monte Carlo oracle equivalence", ok,
           f"worst |z| {worst:.2f} over 7 pipelines at 1e6 shots, {elapsed:.1f}s")


def test_criterion_8_symplectic_suite():
    # The joint symplectic condition: over every live output, including
    # the discarded splitter ports, [X+, X-] is 1 within a mode and every
    # commutator across modes is 0.
    start = time.perf_counter()
    rng = random.Random(99)
    worst = 0.0
    n_live = 0
    for _ in range(1000):
        pool = [new_vacuum(), new_squeezed(rng.uniform(0.1, 1.0)), new_coherent(rng.uniform(-3, 3), rng.uniform(-3, 3))]
        mode = pool[rng.randrange(3)]
        dropped = []
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(5)
            if op == 0:
                mode, port = beam_splitter(mode, new_vacuum(), rng.uniform(0.0, 1.0))
                dropped.append(port)
            elif op == 1:
                mode = phase_shift(mode, rng.uniform(0.0, 2.0 * math.pi))
            elif op == 2:
                mode = phase_sensitive_amp(mode, rng.uniform(0.2, 5.0))
            elif op == 3:
                mode = phase_insensitive_amp(mode, new_vacuum(), rng.uniform(1.0, 5.0))
            else:
                sig = homodyne(loss(new_vacuum(), 0.9), PLUS)
                mode = displace(mode, PLUS, sig, rng.uniform(-2.0, 2.0))
        live = [mode, *dropped]
        n_live += len(live)
        for (i, a), (j, b) in itertools.product(enumerate(live), repeat=2):
            same = float(i == j)
            for x, y, canonical in ((a.plus, b.plus, 0.0), (a.plus, b.minus, same),
                                    (a.minus, b.plus, -same), (a.minus, b.minus, 0.0)):
                worst = max(worst, abs(commutator(x, y) - canonical))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    report(8, "symplectic composition suite", ok,
           f"max |[a, b] - J_ab| {worst:.2e} over {n_live} live outputs of 1000 compositions, {elapsed:.2f}s")


def test_criterion_9_adversary_security_trend():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        protocol="adversary_1",
        v_sq=V_SQ_45DB,
        sweep_v_n=SweepAxis(0.0, 100.0, 41),
    )
    rows = run(cfg).rows
    t = [r["signal_transfer"] for r in rows]
    v = [r["added_noise"] for r in rows]
    monotone = all(a > b for a, b in zip(t, t[1:])) and all(a < b for a, b in zip(v, v[1:]))
    cfg3 = dataclasses.replace(cfg, protocol="adversary_3")
    f3 = [r["fidelity"] for r in run(cfg3).rows]
    elapsed = time.perf_counter() - start
    ok = monotone and all(f == 0.0 for f in f3) and elapsed < 1.0
    report(9, "adversary security trend", ok,
           f"T strictly decreasing and V strictly increasing over {len(rows)} noise steps; "
           f"share-3 fidelity identically 0; {elapsed:.2f}s")
