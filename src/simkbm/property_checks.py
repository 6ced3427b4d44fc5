"""Seeded property suite for the reproduction operator and the transport metrics.

Shared by the `check-operator` command and the test suite.  Every check
draws its inputs from a seeded generator, so a given (config, seed) pair
always produces the identical report.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .grids import TraitGrid
from .infinitesimal import (
    W2_CONTRACTION,
    W4_CONTRACTION,
    ReproductionKernel,
    apply_T_fast,
    apply_T_oracle,
)
from .measures import GridMeasure, gaussian_on_grid, moments, wasserstein, wasserstein_oracle


@dataclasses.dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str

    def __post_init__(self):
        # numpy scalars sneak in from comparisons; JSON needs builtins.
        self.passed = bool(self.passed)
        self.worst = float(self.worst)
        self.tolerance = float(self.tolerance)

    def to_dict(self):
        out = dataclasses.asdict(self)
        if not np.isfinite(out["worst"]):
            out["worst"] = "inf"
        return out


def random_mixture(
    rng: np.random.Generator,
    grid: TraitGrid,
    target_mean: float | None = None,
    mean_span: float = 0.8,
    var_range=(0.2, 0.6),
    max_components: int = 3,
) -> GridMeasure:
    """Random Gaussian mixture, exactly normalized on the grid.

    Component spreads are kept small enough that every tail dies >= 7 sigma
    inside an 8-wide grid, so matching `target_mean` at the component level
    (recentering can push components out to about 2 * mean_span + |target|)
    pins the sampled mean to the target within ~1e-12.
    """
    k = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(-mean_span, mean_span, size=k)
    variances = rng.uniform(var_range[0], var_range[1], size=k)
    if target_mean is not None:
        means = means - float(weights @ means) + target_mean
    y = grid.centers
    dens = np.zeros_like(y)
    for w, m, v in zip(weights, means, variances):
        dens += w * np.exp(-((y - m) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
    dens = dens / grid.integrate(dens)
    return GridMeasure(grid, dens)


def check_mass_conservation(kernel, rng, n_measures=50, tol=1e-8) -> CheckResult:
    worst = 0.0
    for _ in range(n_measures):
        mu = random_mixture(rng, kernel.grid)
        out = apply_T_fast(mu, kernel)
        worst = max(worst, abs(out.mass - mu.mass))
    return CheckResult(
        "mass_conservation", worst <= tol, worst, tol,
        f"max |mass(T mu) - mass(mu)| over {n_measures} random measures",
    )


def check_mean_conservation(kernel, rng, n_measures=50, tol=1e-8) -> CheckResult:
    worst = 0.0
    for _ in range(n_measures):
        mu = random_mixture(rng, kernel.grid)
        worst = max(worst, abs(moments(apply_T_fast(mu, kernel)).mean - moments(mu).mean))
    return CheckResult(
        "mean_conservation", worst <= tol, worst, tol,
        f"max |mean(T mu) - mean(mu)| over {n_measures} random measures",
    )


def check_variance_map(kernel, rng, n_measures=50, tol=1e-6) -> CheckResult:
    worst = 0.0
    for _ in range(n_measures):
        mu = random_mixture(rng, kernel.grid)
        expected = 0.5 * moments(mu).variance + 0.5 * kernel.A
        worst = max(worst, abs(moments(apply_T_fast(mu, kernel)).variance - expected))
    return CheckResult(
        "variance_map", worst <= tol, worst, tol,
        f"max |Var(T mu) - Var(mu)/2 - A/2| over {n_measures} random measures",
    )


def check_gaussian_fixed_point(kernel, centers=(-1.0, 0.0, 1.0), tol=1e-6) -> CheckResult:
    """T fixes the Gaussian of variance A: L1 distance of T(G) from G."""
    worst = 0.0
    for z in centers:
        g = gaussian_on_grid(z, kernel.A, kernel.grid)
        out = apply_T_fast(g, kernel)
        worst = max(worst, kernel.grid.integrate(np.abs(out.density - g.density)))
    return CheckResult(
        "gaussian_fixed_point", worst <= tol, worst, tol,
        f"max L1(T G_A(.-Z), G_A(.-Z)) over Z in {tuple(centers)}",
    )


def check_positivity(kernel, rng, n_measures=20) -> CheckResult:
    worst = 0.0
    for _ in range(n_measures):
        mu = random_mixture(rng, kernel.grid)
        worst = min(worst, float(apply_T_fast(mu, kernel).density.min()))
    return CheckResult(
        "positivity", worst >= 0.0, worst, 0.0,
        f"min entry of T mu over {n_measures} random measures",
    )


def check_tanaka(kernel, rng, p, n_pairs=100, slack=1e-4) -> CheckResult:
    bound = {2: W2_CONTRACTION, 4: W4_CONTRACTION}[p]
    worst = 0.0
    for _ in range(n_pairs):
        mean = float(rng.uniform(-0.5, 0.5))
        mu = random_mixture(rng, kernel.grid, target_mean=mean)
        nu = random_mixture(rng, kernel.grid, target_mean=mean)
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


def check_oracle_agreement(kernel, rng, n_measures=10, tol=1e-6) -> CheckResult:
    worst = 0.0
    for _ in range(n_measures):
        mu = random_mixture(rng, kernel.grid)
        fast = apply_T_fast(mu, kernel)
        slow = apply_T_oracle(mu, kernel)
        worst = max(worst, kernel.grid.integrate(np.abs(fast.density - slow.density)))
    return CheckResult(
        "reproduction_oracle_agreement", worst <= tol, worst, tol,
        f"max L1 gap between convolution and direct pair summation over {n_measures} measures",
    )


def check_wasserstein_oracle_agreement(grid, rng, n_pairs=100, p_values=(1, 2, 4)) -> CheckResult:
    tol = max(1e-6, 2.0 * grid.spacing)
    worst = 0.0
    for _ in range(n_pairs):
        mu = random_mixture(rng, grid)
        nu = random_mixture(rng, grid)
        for p in p_values:
            gap = abs(wasserstein(mu, nu, p) - wasserstein_oracle(mu, nu, p))
            worst = max(worst, gap)
    return CheckResult(
        "wasserstein_oracle_agreement", worst <= tol, worst, tol,
        f"max |quantile - transport oracle| over {n_pairs} random pairs, p in {p_values}",
    )


def run_all(A, grid, seed) -> list:
    """The full operator property suite with deterministic seeding.

    A check that cannot even evaluate (e.g. T pushes mass off a narrow grid
    and a transport metric rejects the output) is reported as failed.
    """
    kernel = ReproductionKernel(A, grid)
    seq = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in seq.spawn(9)]
    plan = [
        ("mass_conservation", lambda: check_mass_conservation(kernel, rngs[0])),
        ("mean_conservation", lambda: check_mean_conservation(kernel, rngs[1])),
        ("variance_map", lambda: check_variance_map(kernel, rngs[2])),
        ("gaussian_fixed_point", lambda: check_gaussian_fixed_point(kernel)),
        ("positivity", lambda: check_positivity(kernel, rngs[3])),
        ("tanaka_w2", lambda: check_tanaka(kernel, rngs[4], p=2)),
        ("tanaka_w4", lambda: check_tanaka(kernel, rngs[5], p=4)),
        ("reproduction_oracle_agreement", lambda: check_oracle_agreement(kernel, rngs[6])),
        (
            "wasserstein_oracle_agreement",
            lambda: check_wasserstein_oracle_agreement(grid, rngs[7]),
        ),
    ]
    results = []
    for name, check in plan:
        try:
            results.append(check())
        except Exception as exc:
            results.append(
                CheckResult(name, False, float("inf"), 0.0, f"check aborted: {exc}")
            )
    return results
