"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; no criterion defers to calibration.
"""

import time

import numpy as np

from syncround import (
    commutator_certificate,
    connes_certificate,
    correlation_of_commuting,
    graph_coloring_game,
    cyclic_coloring_strategy,
    joint_spectral_measure,
    load_game,
    lp_duality_check,
    measure_moments,
    orthogonalize_povm,
    perturb_b_side,
    round_strategy,
    seesaw_optimize,
    synchronicity_deficit,
    threshold_chi_distance,
    tracial_correlation,
    verify_dual_distance,
)
from syncround.sampling import random_povm, random_psd, random_pvm, rng_for

from conftest import diagonal_game_doc
from oracles import atomic_indicator_integral, commutator_direct, fiber_quadrature_indicator

SWEEP_SEED = 20260809


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _psd_pairs(count, max_dim, salt):
    for i in range(count):
        rng = rng_for(SWEEP_SEED, salt, i)
        dim = int(rng.integers(1, max_dim + 1))
        yield i, rng, random_psd(rng, dim), random_psd(rng, dim)


def test_criterion_1_connes_sweep():
    started = time.monotonic()
    violations = 0
    for i, _, x, y in _psd_pairs(1000, 8, 1):
        cert = connes_certificate(x, y)
        if not (cert.lhs <= cert.mid + 1e-9 and cert.mid <= cert.rhs + 1e-9):
            violations += 1
    elapsed = time.monotonic() - started
    _criterion(
        1,
        "connes inequality sweep",
        violations == 0 and elapsed < 30.0,
        f"violations={violations} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_dual_path_equality():
    worst = 0.0
    for i, _, x, y in _psd_pairs(1000, 8, 1):
        direct = threshold_chi_distance(x, y)
        moment = measure_moments(joint_spectral_measure(x, y)).chi_distance
        worst = max(worst, abs(direct - moment))
    _criterion(2, "dual-path chi distance", worst <= 1e-9, f"worst={worst:.3e}")


def test_criterion_3_moment_identities():
    worst = 0.0
    for i, _, x, y in _psd_pairs(500, 8, 3):
        measure = joint_spectral_measure(x, y)
        moments = measure_moments(measure)
        worst = max(
            worst,
            abs(moments.norm_x_sq - float(np.trace(x @ x).real)),
            abs(moments.norm_y_sq - float(np.trace(y @ y).real)),
            abs(moments.inner_product - float(np.trace(x @ y).real)),
            abs(measure.total_mass - float(np.trace((x + y) @ (x + y)).real)),
        )
    _criterion(3, "moment identities", worst <= 1e-9, f"worst={worst:.3e}")


def test_criterion_4_joint_measure_defining_property():
    # thresholds at or above the spectral scale of the normalized
    # instances keep the quadrature jump error well inside the tolerance
    worst = 0.0
    for i in range(100):
        rng = rng_for(SWEEP_SEED, 4, i)
        dim = int(rng.integers(1, 9))
        x = random_psd(rng, dim)
        x = x / np.linalg.norm(x)
        y = random_psd(rng, dim)
        y = y / np.linalg.norm(y)
        c_x = float(rng.uniform(1.0, 1.8))
        c_y = float(rng.uniform(1.0, 1.8))
        measure = joint_spectral_measure(x, y)
        exact = atomic_indicator_integral(measure, c_x, c_y)
        quad = fiber_quadrature_indicator(x, y, c_x, c_y, n_points=10_000)
        worst = max(worst, abs(exact - quad))
    _criterion(
        4, "joint-measure defining property", worst <= 1e-4, f"worst={worst:.3e}"
    )


def test_criterion_5_lp_duality():
    worst = 0.0
    for i, _, x, y in _psd_pairs(200, 8, 5):
        worst = max(
            worst, lp_duality_check(x, y, 2.0), lp_duality_check(x, y, 3.0)
        )
    _criterion(5, "L_p trace duality", worst <= 1e-8, f"worst={worst:.3e}")


def test_criterion_6_commutator_chain():
    violations = 0
    for i in range(500):
        rng = rng_for(SWEEP_SEED, 6, i)
        dim = int(rng.integers(1, 9))
        x = random_psd(rng, dim)
        x = x / np.sqrt(float(np.trace(x @ x).real))
        pvm = random_pvm(rng, dim, int(rng.integers(2, 5)))
        cert = commutator_certificate(x, pvm)
        # the first term from the direct products: the certificate's own
        # sum_comm_x is a kernel on sum_comm_q's weights, below it termwise
        if not (
            commutator_direct(x, pvm) <= cert.sum_comm_q + 1e-9
            and cert.sum_comm_q <= cert.upper + 1e-9
        ):
            violations += 1
    _criterion(6, "commutator chain", violations == 0, f"violations={violations}")


def test_criterion_7_exact_rounding_fixed_point():
    game = graph_coloring_game([("v0", "v1")], 3, "1/2")
    strategy = cyclic_coloring_strategy(game.questions, 3)
    delta = synchronicity_deficit(game, strategy)
    result = round_strategy(game, strategy)
    original = correlation_of_commuting(strategy, game.questions)
    rounded = tracial_correlation(result.tracial, game.questions)
    table_drift = float(np.abs(original.data - rounded.data).max())
    value_drift = abs(result.certificate.value_in - result.certificate.value_out)
    ok = (
        game.alpha == 0.5
        and delta <= 1e-10
        and table_drift <= 1e-8
        and value_drift <= 1e-8
    )
    _criterion(
        7,
        "exact rounding fixed point",
        ok,
        f"delta={delta:.2e} table_drift={table_drift:.2e} value_drift={value_drift:.2e}",
    )


def _perturbation_sweep():
    game = graph_coloring_game([("v0", "v1")], 3, "1/2")
    base = cyclic_coloring_strategy(game.questions, 3)
    alpha = game.alpha
    for eta in (0.02, 0.05, 0.1):
        for seed in range(20):
            yield game, alpha, eta, seed, perturb_b_side(base, eta, seed)


def test_criterion_8_perturbation_sweep_bounds():
    started = time.monotonic()
    violations = []
    for game, alpha, eta, seed, s in _perturbation_sweep():
        cert = round_strategy(game, s).certificate
        total_ok = cert.d1_total <= 57.0 * cert.delta**0.25 + 1e-6
        eps = max(0.0, 1.0 - cert.value_in)
        value_ok = cert.value_out >= 1.0 - 58.0 * (eps / alpha) ** 0.25
        if not (total_ok and value_ok):
            violations.append((eta, seed))
    elapsed = time.monotonic() - started
    _criterion(
        8,
        "perturbation sweep bounds",
        not violations and elapsed < 120.0,
        f"violations={violations} elapsed={elapsed:.1f}s",
    )


def test_criterion_9_intermediate_inequalities():
    violations = []
    for game, alpha, eta, seed, s in _perturbation_sweep():
        report = verify_dual_distance(game, s)
        comm_ok = report.comm_sq <= 4.0 * report.delta + 1e-8
        dual_ok = report.dual_sq <= 6.0 * np.sqrt(report.delta) + 1e-8
        if not (comm_ok and dual_ok):
            violations.append((eta, seed))
    _criterion(
        9, "intermediate proof inequalities", not violations, f"violations={violations}"
    )


def test_criterion_10_orthogonalization_budget():
    holds = 0
    total = 500
    violations = []
    for i in range(total):
        rng = rng_for(SWEEP_SEED, 10, i)
        dim = int(rng.integers(2, 9))
        n_outcomes = int(rng.integers(2, 5))
        mix = float(rng.uniform(0.0, 0.3))
        pvm = random_pvm(rng, dim, n_outcomes)
        noise = random_povm(rng, dim, n_outcomes)
        povm = [(1 - mix) * p + mix * w for p, w in zip(pvm, noise)]
        _, report = orthogonalize_povm(povm)
        if report.holds:
            holds += 1
        else:
            violations.append(
                {
                    "index": i,
                    "dim": dim,
                    "n_outcomes": n_outcomes,
                    "mix": mix,
                    "distance_sq": report.distance_sq,
                    "budget": report.budget,
                    "povm": [p.tolist() for p in povm],
                }
            )
    for record in violations:
        print(f"[acceptance] orthogonalization budget violation: {record}")
    _criterion(
        10,
        "orthogonalization budget",
        holds >= 0.99 * total,
        f"holds={holds}/{total}",
    )


def test_criterion_11_seesaw_monotonicity():
    diagonal = load_game(diagonal_game_doc(["q0", "q1"], ["a", "b"]))
    coloring = graph_coloring_game([("v0", "v1")], 3, "1/2")
    worst_dip = 0.0
    for run in range(50):
        if run < 25:
            result = seesaw_optimize(diagonal, 2, 2, 6, run)
        else:
            result = seesaw_optimize(coloring, 3, 3, 6, run)
        values = result.values
        for earlier, later in zip(values, values[1:]):
            worst_dip = max(worst_dip, earlier - later)
    _criterion(
        11, "see-saw monotonicity", worst_dip <= 1e-10, f"worst_dip={worst_dip:.3e}"
    )
