"""Seeded property suite for the reproduction operator and the transport metrics.

Shared by the `check-operator` command and the test suite.  Every check
draws its inputs from a seeded generator, so a given (config, seed) pair
always produces the identical report.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .grids import TraitGrid
from .infinitesimal import W2_CONTRACTION, W4_CONTRACTION, ReproductionKernel, apply_T_oracle
from .measures import (
    WASSERSTEIN_ORDERS,
    GridMeasure,
    gaussian_on_grid,
    moment_rows,
    require_rows,
    wasserstein_oracle,
    wasserstein_rows,
)


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


# The draws of random_mixtures are sized for a grid that reaches DRAW_REACH
# on both sides of its midpoint: component means within MEAN_SPAN of it,
# moved by up to 1.3 when a mixture is recentered on a target mean, and
# variances in VAR_RANGE leave every component's tail about 7 sigma inside
# such a grid, so T pushes no measurable mass over its ends.
DRAW_REACH = 7.5
MEAN_SPAN = 0.8
VAR_RANGE = (0.2, 0.6)
# Sample sizes: components of a random mixture (at most), measures per moment,
# positivity and reproduction-oracle check, pairs per Tanaka and transport-oracle check.
MAX_COMPONENTS = 3
MOMENT_MEASURES = 50
POSITIVITY_MEASURES = 20
ORACLE_MEASURES = 10
PAIRS = 100
# Pairs drawn and measured at a time by the Tanaka and transport-oracle
# checks, so their memory does not grow with PAIRS.
PAIR_CHUNK = 16


def draw_frame(grid: TraitGrid) -> tuple:
    """Center and scale of the random draws on this grid.

    The draws are centered on the grid's midpoint.  Their means, mean spans
    and standard deviations shrink by its half-width over DRAW_REACH on a
    narrower grid and keep their size on a wider one.  On a grid symmetric
    about 0 the center is exactly 0.0, so a wide symmetric grid gives
    (0.0, 1.0) and the unscaled draws.
    """
    half = 0.5 * (grid.y_max - grid.y_min)
    return grid.y_min + half, min(1.0, half / DRAW_REACH)


def fixed_point_centers(grid: TraitGrid) -> tuple:
    """The centers of check_gaussian_fixed_point: -1, 0 and 1 in the draw frame."""
    center, scale = draw_frame(grid)
    return tuple(center + scale * z for z in (-1.0, 0.0, 1.0))


def random_mixtures(
    rng: np.random.Generator, grid: TraitGrid, count: int, target_means=None
) -> np.ndarray:
    """`count` random Gaussian mixtures, one density per row, each exactly
    normalized on the grid.

    Row i takes the rng calls, and holds the bits, of the i-th of `count`
    one-measure draws.  target_means is read one value per row, just before
    that row's draws, so it may itself draw from rng.  Matching the target
    at the component level pins the sampled mean of a row to it within
    ~1e-12, as long as the grid holds the recentered components.
    """
    center, scale = draw_frame(grid)
    targets = None if target_means is None else iter(target_means)
    # Weights, means and variances; padding components have zero weight.
    components = np.zeros((3, count, MAX_COMPONENTS))
    components[2] = 1.0
    for i in range(count):
        target = None if targets is None else next(targets)
        k = int(rng.integers(1, MAX_COMPONENTS + 1))
        weights = rng.dirichlet(np.ones(k))
        means = center + rng.uniform(-MEAN_SPAN * scale, MEAN_SPAN * scale, size=k)
        variances = rng.uniform(VAR_RANGE[0] * scale**2, VAR_RANGE[1] * scale**2, size=k)
        if target is not None:
            means = means - float(weights @ means) + target
        components[:, i, :k] = weights, means, variances
    # Each row adds its components in order to a zero row, as a one-measure
    # draw does; a padding component adds exact zeros.
    y = grid.centers
    dens = np.zeros((count, grid.points))
    for w, m, v in zip(*(c.T[:, :, None] for c in components)):
        dens += w * np.exp(-((y - m) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
    dens /= grid.spacing * dens.sum(axis=1)[:, None]
    require_rows(grid, dens)
    return dens


def _apply_T(kernel, rows):
    """apply_T_fast on every row at once: rows must be probability
    densities, and every output row a grid measure.  Returns the outputs
    and their masses."""
    require_rows(kernel.grid, rows, probability=True)
    out = kernel.apply_to_profiles(rows)
    return out, require_rows(kernel.grid, out)


def check_mass_conservation(kernel, rng) -> CheckResult:
    tol = 1e-8
    mu = random_mixtures(rng, kernel.grid, MOMENT_MEASURES)
    _, out_mass = _apply_T(kernel, mu)
    gap = np.abs(out_mass - kernel.grid.spacing * mu.sum(axis=1))
    worst = float(np.max(gap, initial=0.0))
    return CheckResult(
        "mass_conservation", worst <= tol, worst, tol,
        f"max |mass(T mu) - mass(mu)| over {MOMENT_MEASURES} random measures",
    )


def check_mean_conservation(kernel, rng) -> CheckResult:
    tol = 1e-8
    mu = random_mixtures(rng, kernel.grid, MOMENT_MEASURES)
    out, _ = _apply_T(kernel, mu)
    gap = np.abs(moment_rows(kernel.grid, out)[0] - moment_rows(kernel.grid, mu)[0])
    worst = float(np.max(gap, initial=0.0))
    return CheckResult(
        "mean_conservation", worst <= tol, worst, tol,
        f"max |mean(T mu) - mean(mu)| over {MOMENT_MEASURES} random measures",
    )


def check_variance_map(kernel, rng) -> CheckResult:
    tol = 1e-6
    mu = random_mixtures(rng, kernel.grid, MOMENT_MEASURES)
    out, _ = _apply_T(kernel, mu)
    expected = 0.5 * moment_rows(kernel.grid, mu)[1] + 0.5 * kernel.A
    worst = float(np.max(np.abs(moment_rows(kernel.grid, out)[1] - expected), initial=0.0))
    return CheckResult(
        "variance_map", worst <= tol, worst, tol,
        f"max |Var(T mu) - Var(mu)/2 - A/2| over {MOMENT_MEASURES} random measures",
    )


def check_gaussian_fixed_point(kernel, centers) -> CheckResult:
    """T fixes the Gaussian of variance A: L1 distance of T(G) from G at each
    center (run_all takes fixed_point_centers(grid))."""
    tol = 1e-6
    g = np.array([gaussian_on_grid(z, kernel.A, kernel.grid).density for z in centers])
    out, _ = _apply_T(kernel, g)
    l1 = kernel.grid.spacing * np.abs(out - g).sum(axis=1)
    worst = float(np.max(l1, initial=0.0))
    return CheckResult(
        "gaussian_fixed_point", worst <= tol, worst, tol,
        f"max L1(T G_A(.-Z), G_A(.-Z)) over Z in {tuple(centers)}",
    )


def check_positivity(kernel, rng) -> CheckResult:
    out, _ = _apply_T(kernel, random_mixtures(rng, kernel.grid, POSITIVITY_MEASURES))
    worst = float(np.min(out, initial=0.0))
    return CheckResult(
        "positivity", worst >= 0.0, worst, 0.0,
        f"min entry of T mu over {POSITIVITY_MEASURES} random measures",
    )


def tanaka_ratios(kernel, both, p) -> np.ndarray:
    """W_p(T mu, T nu) / W_p(mu, nu) for each pair mu, nu of probability
    densities in rows 2i and 2i + 1 of `both`.  The Tanaka inequality bounds
    it by 2^(-1/2) for p = 2 and 2^(-1/4) for p = 4 when the means match.
    Pairs closer than 1e-12 are skipped, their images unchecked."""
    grid = kernel.grid
    d = wasserstein_rows(grid, both[0::2], both[1::2], (p,))[0]
    out, _ = _apply_T(kernel, both)
    keep = np.flatnonzero(d >= 1e-12)
    images = out.reshape(len(d), 2, -1)[keep]
    return wasserstein_rows(grid, images[:, 0], images[:, 1], (p,))[0] / d[keep]


def check_tanaka(kernel, rng, p) -> CheckResult:
    bound, slack = {2: W2_CONTRACTION, 4: W4_CONTRACTION}[p], 1e-4
    grid = kernel.grid
    center, scale = draw_frame(grid)

    def pair_means():
        # Drawn lazily: each pair's mean comes just before its first mixture.
        for _ in range(PAIRS):
            mean = center + float(rng.uniform(-0.5 * scale, 0.5 * scale))
            yield mean
            yield mean

    means = pair_means()
    worst = 0.0
    for pairs in _pair_chunks():
        ratio = tanaka_ratios(kernel, random_mixtures(rng, grid, 2 * pairs, means), p)
        worst = max(worst, float(np.max(ratio, initial=0.0)))
    return CheckResult(
        f"tanaka_w{p}", worst <= bound + slack, worst, bound + slack,
        f"max W{p} contraction ratio over {PAIRS} random equal-mean pairs "
        f"(bound {bound:.6f})",
    )


def _pair_chunks():
    """Pair counts of the chunks of PAIRS, in draw order."""
    return [min(PAIR_CHUNK, PAIRS - lo) for lo in range(0, PAIRS, PAIR_CHUNK)]


def check_oracle_agreement(kernel, rng) -> CheckResult:
    grid, tol = kernel.grid, 1e-6
    mu = random_mixtures(rng, grid, ORACLE_MEASURES)
    fast, _ = _apply_T(kernel, mu)
    slow = np.array([apply_T_oracle(GridMeasure(grid, row), kernel).density for row in mu])
    worst = float(np.max(grid.spacing * np.abs(fast - slow).sum(axis=1), initial=0.0))
    return CheckResult(
        "reproduction_oracle_agreement", worst <= tol, worst, tol,
        "max L1 gap between convolution and direct pair summation over "
        f"{ORACLE_MEASURES} measures",
    )


def check_wasserstein_oracle_agreement(grid, rng) -> CheckResult:
    tol = max(1e-6, 2.0 * grid.spacing)
    worst = 0.0
    for pairs in _pair_chunks():
        both = random_mixtures(rng, grid, 2 * pairs)
        fast = wasserstein_rows(grid, both[0::2], both[1::2], WASSERSTEIN_ORDERS)
        for i in range(pairs):
            mu, nu = GridMeasure(grid, both[2 * i]), GridMeasure(grid, both[2 * i + 1])
            for k, p in enumerate(WASSERSTEIN_ORDERS):
                worst = max(worst, abs(fast[k, i] - wasserstein_oracle(mu, nu, p)))
    return CheckResult(
        "wasserstein_oracle_agreement", worst <= tol, worst, tol,
        f"max |quantile - transport oracle| over {PAIRS} random pairs, p in {WASSERSTEIN_ORDERS}",
    )


def run_all(A, grid, seed) -> list:
    """The full operator property suite with deterministic seeding.

    A check that cannot even evaluate (e.g. T pushes mass off a narrow grid
    and a transport metric rejects the output) is reported as failed.
    """
    kernel = ReproductionKernel(A, grid)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(8)]
    centers = fixed_point_centers(grid)
    plan = [
        ("mass_conservation", lambda: check_mass_conservation(kernel, rngs[0])),
        ("mean_conservation", lambda: check_mean_conservation(kernel, rngs[1])),
        ("variance_map", lambda: check_variance_map(kernel, rngs[2])),
        ("gaussian_fixed_point", lambda: check_gaussian_fixed_point(kernel, centers)),
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
