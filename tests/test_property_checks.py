"""The batched property suite against the per-measure loops it replaced.

The reference checks below are the loops that drew one measure, applied T
to it and measured one distance at a time, with the draw frame of
property_checks.draw_frame (the identity on the benchmark grid).  The
batched checks must consume the same draws, reach the same verdicts with
the same details, and report the same worst values up to roundoff.
"""

import tracemalloc

import numpy as np
import pytest

from simkbm import TraitGrid
from simkbm import infinitesimal, property_checks
from simkbm.infinitesimal import (
    W2_CONTRACTION,
    W4_CONTRACTION,
    ReproductionKernel,
    apply_T_fast,
    apply_T_oracle,
    segregation_kernel,
)
from simkbm.measures import (
    GridMeasure,
    gaussian_on_grid,
    moment_rows,
    wasserstein,
    wasserstein_oracle,
)
from simkbm.property_checks import CheckResult, draw_frame, random_mixtures

BENCHMARK = (1.0, TraitGrid(-8.5, 8.5, 256))
# Parse accepts it; the unscaled draws lost 5.8e-8 of their mass under T.
NARROW = (0.27, TraitGrid(-4.16, 4.21, 64))


def reference_mixture(rng, grid, target_mean=None):
    center, scale = draw_frame(grid)
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    means = center + rng.uniform(-0.8 * scale, 0.8 * scale, size=k)
    variances = rng.uniform(0.2 * scale**2, 0.6 * scale**2, size=k)
    if target_mean is not None:
        means = means - float(weights @ means) + target_mean
    y = grid.centers
    dens = np.zeros_like(y)
    for w, m, v in zip(weights, means, variances):
        dens += w * np.exp(-((y - m) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
    dens = dens / (grid.spacing * dens.sum())
    return GridMeasure(grid, dens)


def reference_mass(kernel, rng, n_measures=50, tol=1e-8):
    worst = 0.0
    for _ in range(n_measures):
        mu = reference_mixture(rng, kernel.grid)
        out = apply_T_fast(mu, kernel)
        worst = max(worst, abs(out.mass - mu.mass))
    return CheckResult(
        "mass_conservation", worst <= tol, worst, tol,
        f"max |mass(T mu) - mass(mu)| over {n_measures} random measures",
    )


def reference_mean(kernel, rng, n_measures=50, tol=1e-8):
    grid, worst = kernel.grid, 0.0
    for _ in range(n_measures):
        mu = reference_mixture(rng, grid)
        mean_in = moment_rows(grid, mu.density[None])[0][0]
        mean_out = moment_rows(grid, apply_T_fast(mu, kernel).density[None])[0][0]
        worst = max(worst, abs(mean_out - mean_in))
    return CheckResult(
        "mean_conservation", worst <= tol, worst, tol,
        f"max |mean(T mu) - mean(mu)| over {n_measures} random measures",
    )


def reference_variance(kernel, rng, n_measures=50, tol=1e-6):
    grid, worst = kernel.grid, 0.0
    for _ in range(n_measures):
        mu = reference_mixture(rng, grid)
        expected = 0.5 * moment_rows(grid, mu.density[None])[1][0] + 0.5 * kernel.A
        variance = moment_rows(grid, apply_T_fast(mu, kernel).density[None])[1][0]
        worst = max(worst, abs(variance - expected))
    return CheckResult(
        "variance_map", worst <= tol, worst, tol,
        f"max |Var(T mu) - Var(mu)/2 - A/2| over {n_measures} random measures",
    )


def reference_fixed_point(kernel, centers=(-1.0, 0.0, 1.0), tol=1e-6):
    worst = 0.0
    for z in centers:
        g = gaussian_on_grid(z, kernel.A, kernel.grid)
        out = apply_T_fast(g, kernel)
        worst = max(worst, kernel.grid.spacing * np.abs(out.density - g.density).sum())
    return CheckResult(
        "gaussian_fixed_point", worst <= tol, worst, tol,
        f"max L1(T G_A(.-Z), G_A(.-Z)) over Z in {tuple(centers)}",
    )


def reference_positivity(kernel, rng, n_measures=20):
    worst = 0.0
    for _ in range(n_measures):
        mu = reference_mixture(rng, kernel.grid)
        worst = min(worst, float(apply_T_fast(mu, kernel).density.min()))
    return CheckResult(
        "positivity", worst >= 0.0, worst, 0.0,
        f"min entry of T mu over {n_measures} random measures",
    )


def reference_tanaka(kernel, rng, p, n_pairs=100, slack=1e-4):
    bound = {2: W2_CONTRACTION, 4: W4_CONTRACTION}[p]
    center, scale = draw_frame(kernel.grid)
    worst = 0.0
    for _ in range(n_pairs):
        mean = center + float(rng.uniform(-0.5 * scale, 0.5 * scale))
        mu = reference_mixture(rng, kernel.grid, target_mean=mean)
        nu = reference_mixture(rng, kernel.grid, target_mean=mean)
        d = wasserstein(mu, nu, p)
        if d < 1e-12:
            continue
        ratio = wasserstein(apply_T_fast(mu, kernel), apply_T_fast(nu, kernel), p) / d
        worst = max(worst, ratio)
    return CheckResult(
        f"tanaka_w{p}", worst <= bound + slack, worst, bound + slack,
        f"max W{p} contraction ratio over {n_pairs} random equal-mean pairs "
        f"(bound {bound:.6f})",
    )


def reference_oracle(kernel, rng, n_measures=10, tol=1e-6):
    worst = 0.0
    for _ in range(n_measures):
        mu = reference_mixture(rng, kernel.grid)
        fast = apply_T_fast(mu, kernel)
        slow = apply_T_oracle(mu, kernel)
        worst = max(worst, kernel.grid.spacing * np.abs(fast.density - slow.density).sum())
    return CheckResult(
        "reproduction_oracle_agreement", worst <= tol, worst, tol,
        f"max L1 gap between convolution and direct pair summation over {n_measures} measures",
    )


def reference_transport(grid, rng, n_pairs=100, p_values=(1, 2, 4)):
    tol = max(1e-6, 2.0 * grid.spacing)
    worst = 0.0
    for _ in range(n_pairs):
        mu = reference_mixture(rng, grid)
        nu = reference_mixture(rng, grid)
        for p in p_values:
            gap = abs(wasserstein(mu, nu, p) - wasserstein_oracle(mu, nu, p))
            worst = max(worst, gap)
    return CheckResult(
        "wasserstein_oracle_agreement", worst <= tol, worst, tol,
        f"max |quantile - transport oracle| over {n_pairs} random pairs, p in {p_values}",
    )


def plans(kernel):
    """(batched, reference, rng index) per check, in run_all's order."""
    center, scale = draw_frame(kernel.grid)
    centers = tuple(center + scale * z for z in (-1.0, 0.0, 1.0))
    pc = property_checks
    return [
        (lambda r: pc.check_mass_conservation(kernel, r), lambda r: reference_mass(kernel, r), 0),
        (lambda r: pc.check_mean_conservation(kernel, r), lambda r: reference_mean(kernel, r), 1),
        (lambda r: pc.check_variance_map(kernel, r), lambda r: reference_variance(kernel, r), 2),
        (
            lambda r: pc.check_gaussian_fixed_point(kernel, centers),
            lambda r: reference_fixed_point(kernel, centers),
            8,
        ),
        (lambda r: pc.check_positivity(kernel, r), lambda r: reference_positivity(kernel, r), 3),
        (lambda r: pc.check_tanaka(kernel, r, 2), lambda r: reference_tanaka(kernel, r, 2), 4),
        (lambda r: pc.check_tanaka(kernel, r, 4), lambda r: reference_tanaka(kernel, r, 4), 5),
        (lambda r: pc.check_oracle_agreement(kernel, r), lambda r: reference_oracle(kernel, r), 6),
        (
            lambda r: pc.check_wasserstein_oracle_agreement(kernel.grid, r),
            lambda r: reference_transport(kernel.grid, r),
            7,
        ),
    ]


def outcome(check, rng):
    try:
        return check(rng)
    except Exception as exc:
        return CheckResult("aborted", False, float("inf"), 0.0, f"check aborted: {exc}")


def generators(seed):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(9)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("setting", [BENCHMARK, NARROW], ids=["benchmark", "narrow"])
def test_batched_checks_match_the_per_measure_loops(setting, seed):
    kernel = ReproductionKernel(*setting)
    batched_rngs, reference_rngs = generators(seed), generators(seed)
    for batched, reference, k in plans(kernel):
        got = batched(batched_rngs[k])
        want = reference(reference_rngs[k])
        assert (got.name, got.passed, got.detail) == (want.name, want.passed, want.detail)
        assert got.passed, got
        assert abs(got.worst - want.worst) <= 1e-12 * abs(want.worst), (got, want)
        assert batched_rngs[k].bit_generator.state == reference_rngs[k].bit_generator.state


def test_run_all_passes_on_the_narrow_grid():
    assert all(check.passed for check in property_checks.run_all(*NARROW, seed=0))


def test_broken_kernel_aborts_with_the_per_measure_errors(monkeypatch):
    # The table integrates to 1.01: T's outputs are not probability measures,
    # so the checks that measure their distances abort at the first pair.
    def broken_kernel(A, grid):
        table, defect = segregation_kernel(A, grid)
        return 1.01 * table, defect

    monkeypatch.setattr(infinitesimal, "segregation_kernel", broken_kernel)
    kernel = ReproductionKernel(*BENCHMARK)
    batched_rngs, reference_rngs = generators(1), generators(1)
    details = []
    for batched, reference, k in plans(kernel):
        got = outcome(batched, batched_rngs[k])
        want = outcome(reference, reference_rngs[k])
        assert (got.passed, got.detail) == (want.passed, want.detail)
        details.append(got.detail)
    assert sum(d.startswith("check aborted: measure is not normalized") for d in details) == 2


@pytest.mark.parametrize("setting", [BENCHMARK, NARROW], ids=["benchmark", "narrow"])
def test_random_mixtures_rows_are_one_measure_draws(setting):
    grid = setting[1]
    rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    targets = [0.1 * i for i in range(40)]
    rows = random_mixtures(rng, grid, 40, targets)
    want = [reference_mixture(reference_rng, grid, target).density for target in targets]
    assert np.array_equal(rows, np.array(want))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("setting", [BENCHMARK, NARROW], ids=["benchmark", "narrow"])
def test_random_mixtures_in_chunks_are_one_call(setting):
    # The pair checks draw their rows a chunk at a time, with targets that
    # themselves draw from the rng, as check_tanaka's pair means do.
    grid = setting[1]

    def targets(rng):
        for _ in range(100):
            mean = float(rng.uniform(-0.5, 0.5))
            yield mean
            yield mean

    rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
    shared = targets(rng)
    rows = np.concatenate([random_mixtures(rng, grid, n, shared) for n in [32] * 6 + [8]])
    want = random_mixtures(reference_rng, grid, 200, targets(reference_rng))
    assert np.array_equal(rows, want)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize(
    "check",
    [
        lambda kernel, rng: property_checks.check_tanaka(kernel, rng, p=2),
        lambda kernel, rng: property_checks.check_wasserstein_oracle_agreement(kernel.grid, rng),
    ],
    ids=["tanaka_w2", "wasserstein_oracle_agreement"],
)
def test_pair_checks_hold_a_chunk_at_a_time(check):
    # Holding all 200 measures at once peaked at 7.8 MiB (Tanaka) and 4.8 MiB
    # (transport oracle) on this grid.
    kernel = ReproductionKernel(1.0, TraitGrid(-8.5, 8.5, 1024))
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        result = check(kernel, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result
    assert peak < 3 * 2**20


def test_draw_frame_is_the_identity_on_wide_symmetric_grids():
    assert draw_frame(TraitGrid(-8.5, 8.5, 256)) == (0.0, 1.0)
    assert draw_frame(TraitGrid(-0.1 - 1e9, 0.1 + 1e9, 16)) == (0.0, 1.0)
    # Wide but asymmetric: centered on the midpoint, unscaled.
    assert draw_frame(TraitGrid(-8.5, 7.5, 16)) == (-0.5, 1.0)
    center, scale = draw_frame(NARROW[1])
    assert center == pytest.approx(0.025) and scale == pytest.approx(4.185 / 7.5)
