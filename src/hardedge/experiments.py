"""Monte Carlo harnesses that put each spectral statement on the bench.

Asymptotic log-powers are unreachable at any size a workstation can
decompose ((log 512)^4 alone is ~1.5e3), so windows are parameterized by the
resolution scale N*eta/sqrt(E) directly (default floor 50).  The derived
windows of size N span the desk band [2 (scale_min / (kappa N))^2, 4 - kappa];
a size whose floor is not below its ceiling fails with "sizes: N=... cannot
host windows ...", before any draw.  deloc takes every eigenvector in
[0, 4 - kappa], down to the hard edge, and does not read scale_min.  The
pass/fail bands are the module constants below: desk-calibrated, not claims
about the theory's constants, and not configurable; the calibration
provenance is complex-gaussian pilot runs at N <= 1024, seeds O(1), 2026-08.
The grids the verdicts read (apriori's K thresholds, wegner's K widths and
L levels, locallaw's deviation levels, the number of derived windows) are
constants too.

Every experiment derives one sub-seed per matrix size and one seed per trial
below that, and runs its trials in order; BLAS threads are the only
parallelism.  projmass derives one sub-seed for its whole m grid, from the
grid's first m, since every m reads a prefix of one nested frame per trial.
Reports are reproducible bit for bit from (config, seed) on one machine,
numpy/OpenBLAS build and OPENBLAS_NUM_THREADS: OpenBLAS picks its kernels per
CPU and splits work per thread, so no summation rule could make the last bits
portable; sums are numpy's.

Each config field's rule lives once, in the parser table `_FIELDS`, which
`ExperimentConfig.__post_init__` runs: a config built in Python, read from
JSON or made by `dataclasses.replace` meets the same rules and is rejected
with the same message, naming the field or entry (`sizes[0]`).  The direct
runners (identities, hw, projmass) check their trials, seed and (identities)
sizes with the same parsers; identities draws complex-gaussian entries, and
hw and projmass run at a fixed size on fixed grids.

Every matrix experiment is a reducer over one trial engine (`_per_trial`),
which draws, solves and reduces the seeded trials of each size.  The
apriori, local-law, near-zero and hard-edge experiments share one memoised
spectra pass (`_spectra`): each trial is drawn and decomposed once per
process, however many of them run on the same config.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .concentration import hw_tail_curve, projection_mass_probe, wilson_interval
from .ensemble import (
    BOUNDED_DENSITY_KINDS,
    KINDS,
    EnsembleSpec,
    derive_trial_seed,
    sample_matrix,
)
from .mp import SpectralPoint, Window, mp_density, mp_stieltjes, mp_window_mass
from .resolvent import (
    empirical_stieltjes,
    resolvent_diag_leave_one_out,
    resolvent_diag_schur,
)
from .spectral import (
    counting_bound,
    decompose,
    eigenvalue_count,
    eigenvalues_only,
    eigenvector_identity_scan,
    interlacing_check,
    minor_basis,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TheoremReport",
    "derived_windows",
    "run_apriori",
    "run_local_law",
    "run_delocalization",
    "run_wegner",
    "run_hard_edge_scaling",
    "run_identity_suite",
    "run_hw_experiment",
    "run_projection_mass_experiment",
]


class ConfigError(ValueError):
    """Configuration rejected; the message starts with the offending field path."""


# apriori: window-count tail allowed at every K >= APRIORI_REFERENCE_K
APRIORI_TAIL = 0.01
# apriori: smallest K at which the counting tail must be empirically dead
APRIORI_REFERENCE_K = 4.0
# locallaw: sqrt(E)-scaled Stieltjes deviation whose tail is judged
LOCALLAW_EPSILON = 0.15
# locallaw: transform exceedance allowed at LOCALLAW_EPSILON at the largest size
LOCALLAW_EXCEEDANCE = 0.05
# deloc: cap on max_a N*||u_a||_inf^2 / ln N
DELOC_CAP = 15.0
# deloc: fraction of trials allowed above DELOC_CAP
DELOC_EXCEED_FRAC = 0.01
# deloc: allowed max/min spread of median(max N*||u||_inf^2)/ln N across sizes
DELOC_RATIO_BAND = 1.5
# hardedge: allowed max/min spread of the N^2*s_1 medians across sizes
HARDEDGE_MEDIAN_FACTOR = 2.0
# hardedge: open band for the median central gap times N*rho(2)
SPACING_LO = 0.5
SPACING_HI = 2.0

# apriori: the K of the thresholds K * N*eta/sqrt(E); holds APRIORI_REFERENCE_K
APRIORI_K_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
# wegner: the K of the near-zero windows [0, K/N^2]; equals APRIORI_K_GRID in value only
WEGNER_K_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
# wegner: the count levels L whose tails P(count >= L) are reported
WEGNER_L_GRID = (1, 2, 3, 4, 5)
# locallaw: the sqrt(E)-scaled deviations whose tails are reported; holds LOCALLAW_EPSILON
LOCALLAW_EPSILON_GRID = (0.05, 0.1, 0.15, 0.2, 0.3)
# windows per size on the derived energy ladder
N_WINDOWS = 4


def _integer(path: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _number(path: str, value) -> float:
    # a finite JSON number: int or float, but not bool (which Python counts as an
    # int), nor NaN, Infinity (Python's json reads both) or an int beyond float range
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not is_number or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _where(parse, ok, need: str):
    """parse, then require ok(value): `path: must be <need>` otherwise."""

    def check(path: str, value):
        value = parse(path, value)
        if not ok(value):
            raise ConfigError(f"{path}: must be {need}, got {value!r}")
        return value

    return check


def _list_of(item):
    """A nonempty list (or tuple) of item-parsed entries, returned as a tuple."""

    def parse(path: str, value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        values = tuple(item(f"{path}[{i}]", v) for i, v in enumerate(value))
        if not values:
            raise ConfigError(f"{path}: need a nonempty list, got {values!r}")
        return values

    return parse


_count = _where(_integer, lambda n: n >= 1, ">= 1")
_seed = _where(_integer, lambda s: 0 <= s < 2**64, "a u64")


def _sizes(path: str, value) -> tuple[int, ...]:
    """Matrix sizes: a nonempty list of distinct integers >= 1."""
    sizes = _list_of(_count)(path, value)
    for i, n in enumerate(sizes):
        if n in sizes[:i]:
            raise ConfigError(f"{path}[{i}]: repeats size {n}; sizes must be distinct")
    return sizes


def _kind(path: str, value) -> str:
    if not isinstance(value, str) or value not in KINDS:
        raise ConfigError(f"{path}: unknown kind {value!r}, choose from {list(KINDS)}")
    return value


def _window(path: str, value) -> Window:
    """A Window, or an object {"energy", "eta"} made into one; energy > 0."""
    if isinstance(value, dict) and set(value) == {"energy", "eta"}:
        energy = _number(f"{path}.energy", value["energy"])
        eta = _number(f"{path}.eta", value["eta"])
        try:
            value = Window(energy, eta)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(value, Window):
        raise ConfigError(f"{path}: expected an object with keys energy, eta, got {value!r}")
    if value.energy <= 0:
        raise ConfigError(
            f"{path}: energy must be > 0 (the resolution scale "
            f"N*eta/sqrt(E) divides by it), got {value.energy}"
        )
    return value


# ExperimentConfig field -> parser(path, value): checks the value's type and
# range and returns it normalised (lists to tuples, ints to floats, objects
# {"energy", "eta"} to Window).  Every construction path runs it: direct,
# from_dict and dataclasses.replace.
_FIELDS = {
    "sizes": _sizes,
    "trials": _where(_integer, lambda n: n >= 30, ">= 30"),
    "distribution": _kind,
    "kappa": _where(_number, lambda x: 0 < x < 1, "in (0, 1)"),
    "seed": _seed,
    "scale_min": _where(_number, lambda x: x > 0, "> 0"),
    "windows": lambda path, value: None if value is None else _list_of(_window)(path, value),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters; JSON keys match field names."""

    sizes: tuple[int, ...] = (128, 256, 512)
    trials: int = 100
    distribution: str = "complex-gaussian"
    kappa: float = 0.5
    seed: int = 1
    scale_min: float = 50.0
    windows: tuple[Window, ...] | None = None

    def __post_init__(self) -> None:
        for name, parse in _FIELDS.items():
            object.__setattr__(self, name, parse(name, getattr(self, name)))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config: expected a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown config key (known keys: {sorted(_FIELDS)})")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TheoremReport:
    """One experiment's sweep rows, summary, and pass/fail verdict."""

    theorem: str
    config: dict
    rows: tuple[dict, ...]
    summary: dict
    failures: tuple[str, ...]

    @property
    def columns(self) -> tuple[str, ...]:
        """The report layout: the keys of the first row, in order (every row
        lists the same keys, and every runner emits at least one row)."""
        return tuple(self.rows[0])

    @property
    def passed(self) -> bool:
        return not self.failures


def _per_trial(solve, distribution: str, seed: int, sizes, trials: int, reduce=lambda r: r) -> dict:
    """{size: [reduce(solve(sample)) for each trial]} over each size's seeded draws.

    The one place a size's ensemble is built: a sub-master seed per size, so
    streams never overlap across sizes, and a seed per trial below it.  Each
    draw is passed to solve as a temporary, so solve holds its only reference
    (CPython 3.11+ moves a temporary argument into the callee's frame) and
    may free X before its eigensolve, as decompose and eigenvalues_only do.
    """
    out = {}
    for size in sizes:
        spec = EnsembleSpec(size=size, distribution=distribution, master_seed=derive_trial_seed(seed, size))
        out[size] = [reduce(solve(sample_matrix(spec, t))) for t in range(trials)]
    return out


def _exceedance(hits: int | None, trials: int) -> dict:
    """Tail columns of a report row: the hit fraction and its Wilson interval,
    all nan when hits is None (nothing to reduce)."""
    if hits is None:
        return {"statistic": math.nan, "ci_lo": math.nan, "ci_hi": math.nan, "trials": trials}
    lo, hi = wilson_interval(hits, trials)
    return {"statistic": hits / trials, "ci_lo": lo, "ci_hi": hi, "trials": trials}


# (distribution, seed, sizes, trials) -> spectra of the most recent config only
_SPECTRA: dict[tuple, dict[int, np.ndarray]] = {}


def _spectra(cfg: ExperimentConfig) -> dict[int, np.ndarray]:
    """Ascending eigenvalues of every trial as {size: read-only (trials, N) array}.

    Each trial's eigenvalues come from the Gram eigensolve (eigenvalues_only),
    clipped at 0: an absolute error of about 1e-14, far below the sampling
    error of the window counts, the near-zero counts and the N^2 lambda_1
    median read from them.  X is freed before each solve.  Only the
    distribution, seed, sizes and trial count decide the draws, so the
    experiments on one config share a single pass; a different config
    evicts it.
    """
    key = (cfg.distribution, cfg.seed, cfg.sizes, cfg.trials)
    cached = _SPECTRA.get(key)
    if cached is not None:
        return cached
    _SPECTRA.clear()
    per_trial = _per_trial(eigenvalues_only, cfg.distribution, cfg.seed, cfg.sizes, cfg.trials)
    spectra = {size: np.array(eigs) for size, eigs in per_trial.items()}
    for eigs in spectra.values():
        eigs.flags.writeable = False
    _SPECTRA[key] = spectra
    return spectra


def derived_windows(cfg: ExperimentConfig, size: int) -> tuple[Window, ...]:
    """Geometric energy ladder across the desk band [2 (scale_min / (kappa N))^2,
    4 - kappa] of N, each window at scale exactly scale_min (ConfigError if empty)."""
    lo = 2.0 * (cfg.scale_min / (cfg.kappa * size)) ** 2
    hi = 4.0 - cfg.kappa
    if lo >= hi:
        raise ConfigError(
            f"sizes: N={size} cannot host windows at scale_min={cfg.scale_min} "
            f"with kappa={cfg.kappa} (floor {lo:.3g} >= ceiling {hi:.3g})"
        )
    ratio = (hi / lo) ** (1.0 / (N_WINDOWS - 1))
    energies = [lo * ratio**j for j in range(N_WINDOWS)]
    return tuple(Window(e, cfg.scale_min * math.sqrt(e) / size) for e in energies)


def _windows_for(cfg: ExperimentConfig, size: int, enforce_scale: bool) -> tuple[Window, ...]:
    if cfg.windows is None:
        return derived_windows(cfg, size)
    if enforce_scale:
        for i, w in enumerate(cfg.windows):
            scale = w.point.scale(size)
            if scale < cfg.scale_min * (1.0 - 1e-9):
                raise ConfigError(
                    f"windows[{i}]: scale N*eta/sqrt(E) = {scale:.3g} at N={size} "
                    f"is below scale_min={cfg.scale_min}"
                )
    return cfg.windows


def _require_bounded_density(cfg: ExperimentConfig, theorem: str) -> None:
    if cfg.distribution not in BOUNDED_DENSITY_KINDS:
        raise ConfigError(
            f"distribution: {cfg.distribution!r} has an atomic part density and is "
            f"excluded from the {theorem} experiment"
        )


def _require_two_or_more(cfg: ExperimentConfig, why: str) -> None:
    for i, size in enumerate(cfg.sizes):
        if size < 2:
            raise ConfigError(f"sizes[{i}]: must be >= 2 ({why}), got {size}")


def _pfx(size: int, w: Window) -> str:
    return f"N={size}, window E={w.energy:.6g}, eta={w.eta:.6g}"


def run_apriori(cfg: ExperimentConfig) -> TheoremReport:
    """Tail of the window eigenvalue count against thresholds K * N*eta/sqrt(E)."""
    windows_by_size = {size: _windows_for(cfg, size, enforce_scale=True) for size in cfg.sizes}
    spectra = _spectra(cfg)

    rows = []
    failures = []
    reference_cells = []
    for size in cfg.sizes:
        for w in windows_by_size[size]:
            counts = eigenvalue_count(spectra[size], w)
            scale = w.point.scale(size)
            for k in APRIORI_K_GRID:
                threshold = k * scale
                tail = _exceedance(int(np.sum(counts >= threshold)), cfg.trials)
                p = tail["statistic"]
                rows.append(
                    {
                        "size": size,
                        "energy": w.energy,
                        "eta": w.eta,
                        "scale": scale,
                        "K": k,
                        "threshold": threshold,
                        **tail,
                    }
                )
                if k >= APRIORI_REFERENCE_K:
                    reference_cells.append(p)
                    if p > APRIORI_TAIL:
                        failures.append(
                            f"{_pfx(size, w)}: exceedance {p:.4g} at K={k} above "
                            f"{APRIORI_TAIL}"
                        )
    summary = {
        "reference_k": APRIORI_REFERENCE_K,
        "max_reference_exceedance": max(reference_cells),
        "cells": len(rows),
    }
    return TheoremReport(
        theorem="apriori-counting",
        config=cfg.to_dict(),
        rows=tuple(rows),
        summary=summary,
        failures=tuple(failures),
    )


def run_local_law(cfg: ExperimentConfig) -> TheoremReport:
    """Deviation tails of the empirical transform and of the window counting form."""
    _require_bounded_density(cfg, "local-law")
    windows_by_size = {size: _windows_for(cfg, size, enforce_scale=False) for size in cfg.sizes}
    spectra = _spectra(cfg)

    rows = []
    failures = []
    eps_star = LOCALLAW_EPSILON
    # (size, window index) -> transform tail at eps_star
    reference: dict[tuple[int, int], dict] = {}
    for size in cfg.sizes:
        block = spectra[size]
        for j, w in enumerate(windows_by_size[size]):
            sqrt_e = math.sqrt(w.energy)
            limit = mp_stieltjes(w.point)
            transform_devs = sqrt_e * np.abs(empirical_stieltjes(block, w.point) - limit)
            counting_devs = sqrt_e * np.abs(
                eigenvalue_count(block, w) / (size * w.eta) - mp_window_mass(w) / w.eta
            )
            scale = w.point.scale(size)
            for form, devs in (("transform", transform_devs), ("count", counting_devs)):
                for eps in LOCALLAW_EPSILON_GRID:
                    tail = _exceedance(int(np.sum(devs >= eps)), cfg.trials)
                    p = tail["statistic"]
                    rows.append(
                        {
                            "size": size,
                            "energy": w.energy,
                            "eta": w.eta,
                            "scale": scale,
                            "form": form,
                            "epsilon": eps,
                            **tail,
                        }
                    )
                    if form == "transform" and eps == eps_star:
                        reference[(size, j)] = tail
                        if size == max(cfg.sizes) and p > LOCALLAW_EXCEEDANCE:
                            failures.append(
                                f"{_pfx(size, w)}: transform exceedance {p:.4g} at "
                                f"epsilon={eps_star} above {LOCALLAW_EXCEEDANCE}"
                            )

    if len(cfg.sizes) > 1 and cfg.windows is not None:
        # explicit windows are shared across sizes, so the size trend is testable
        small, large = min(cfg.sizes), max(cfg.sizes)
        for j, w in enumerate(cfg.windows):
            tail_small = reference[(small, j)]
            p_small = tail_small["statistic"]
            p_large = reference[(large, j)]["statistic"]
            if p_large > tail_small["ci_hi"]:
                failures.append(
                    f"window E={w.energy:.6g}: exceedance grew from N={small} "
                    f"({p_small:.4g}) to N={large} ({p_large:.4g}) beyond interval slack"
                )

    summary = {
        "epsilon_reference": eps_star,
        "max_transform_exceedance_at_reference": max(v["statistic"] for v in reference.values()),
    }
    return TheoremReport(
        theorem="local-law",
        config=cfg.to_dict(),
        rows=tuple(rows),
        summary=summary,
        failures=tuple(failures),
    )


def run_delocalization(cfg: ExperimentConfig) -> TheoremReport:
    """Sup-norm statistics of the eigenvectors with eigenvalues in [0, 4 - kappa]."""
    _require_bounded_density(cfg, "delocalization")
    _require_two_or_more(cfg, "the statistic is divided by ln N, which is 0 at N=1")
    upper = 4.0 - cfg.kappa

    def max_supsq(d) -> float:
        # ascending eigenvalues: the band [0, upper] is the leading columns
        hi = np.searchsorted(d.eigenvalues, upper, side="right")
        if hi == 0:
            return math.nan
        # max, then square by a multiply (scalar ** 2 calls pow): the max of the squares, bit for bit
        top = np.max(np.abs(d.eigenvectors[:, :hi]))
        return float(d.eigenvalues.size * (top * top))

    # the Gram eigensolve's vectors hold to the SVD's down to the hard edge
    per_trial = _per_trial(decompose, cfg.distribution, cfg.seed, cfg.sizes, cfg.trials, reduce=max_supsq)
    rows = []
    failures = []
    medians_over_ln = {}
    empty = {}
    for size in cfg.sizes:
        stats = np.asarray(per_trial[size])
        ln_n = math.log(size)
        empty[size] = int(np.count_nonzero(np.isnan(stats)))
        if empty[size] == cfg.trials:
            # nothing to reduce: the row carries nan and the size stays out
            # of the cross-size spread
            failures.append(f"N={size}: no trial had an eigenvalue in the band [0, {upper:.6g}]")
            tail = _exceedance(None, cfg.trials)
            median = q95 = top = math.nan
        else:
            if empty[size]:
                failures.append(
                    f"N={size}: {empty[size]} of {cfg.trials} trials had no eigenvalues "
                    "in the band"
                )
                stats = stats[~np.isnan(stats)]
            ratio = stats / ln_n
            tail = _exceedance(int(np.sum(ratio > DELOC_CAP)), cfg.trials)
            median = float(np.median(stats))
            q95 = float(np.quantile(ratio, 0.95))
            top = float(np.max(ratio))
            medians_over_ln[size] = median / ln_n
        rows.append(
            {
                "size": size,
                "lower_edge": 0.0,
                "upper_edge": upper,
                "cap": DELOC_CAP,
                "median_max_supsq": median,
                "median_over_ln": median / ln_n,
                "q95_over_ln": q95,
                "max_over_ln": top,
                **tail,
            }
        )
        p = tail["statistic"]
        if p > DELOC_EXCEED_FRAC:
            failures.append(
                f"N={size}: {p:.4g} of trials above cap {DELOC_CAP} "
                f"(allowed {DELOC_EXCEED_FRAC})"
            )
    if len(medians_over_ln) > 1:
        ratios = list(medians_over_ln.values())
        spread = max(ratios) / min(ratios)
        if spread > DELOC_RATIO_BAND:
            failures.append(
                f"median(max N*||u||_inf^2)/ln N spread {spread:.3g} across sizes exceeds "
                f"band {DELOC_RATIO_BAND}"
            )
    summary = {
        "medians_over_ln": {str(k): v for k, v in medians_over_ln.items()},
        "empty_window_trials": {str(k): v for k, v in empty.items()},
    }
    return TheoremReport(
        theorem="delocalization",
        config=cfg.to_dict(),
        rows=tuple(rows),
        summary=summary,
        failures=tuple(failures),
    )


def run_wegner(cfg: ExperimentConfig) -> TheoremReport:
    """Tails of the near-zero count in [0, K/N^2] over WEGNER_K_GRID x WEGNER_L_GRID.

    Hard-edge repulsion makes levels beyond the first one or two unobservable
    at desk trial counts (P(count >= 3) is about 8e-9 at N=256, K=1), so a
    cell fails only on what its trials can show: zero hits at the first level,
    or equal positive hits at two neighbouring levels.  A last positive level
    with a single hit is a limit of the trial count, not a failure.
    """
    _require_bounded_density(cfg, "near-zero counting")
    spectra = _spectra(cfg)
    rows = []
    failures = []
    slopes = {}
    levels = WEGNER_L_GRID
    for size in cfg.sizes:
        for k in WEGNER_K_GRID:
            counts = eigenvalue_count(spectra[size], Window(0.0, k / size**2))
            hit_list = [int(np.sum(counts >= level)) for level in levels]
            for level, hits in zip(levels, hit_list):
                rows.append({"size": size, "K": k, "L": level, **_exceedance(hits, cfg.trials)})
            cell = f"N={size}, K={k:.6g}"
            if hit_list[0] == 0:
                failures.append(f"{cell}: first level L={levels[0]} already has zero hits")
            pairs = list(zip(levels, hit_list))
            for (l1, h1), (l2, h2) in zip(pairs, pairs[1:]):
                if 0 < h1 == h2:
                    failures.append(f"{cell}: no strict decay from L={l1} to L={l2}")
            positive = [(l, h) for l, h in pairs if h > 0]
            if len(positive) >= 2:
                ls = np.array([l for l, _ in positive], dtype=float)
                lp = np.array([-math.log(h / cfg.trials) for _, h in positive])
                slopes[cell] = float(np.polyfit(ls, lp, 1)[0])
    summary = {"decay_slopes": slopes}
    return TheoremReport(
        theorem="near-zero-counting",
        config=cfg.to_dict(),
        rows=tuple(rows),
        summary=summary,
        failures=tuple(failures),
    )


def _central_gaps(block: np.ndarray) -> np.ndarray:
    """Per trial of a (trials, N) ascending block: the mean of the up to ten
    consecutive gaps around the eigenvalue nearest 2.  The gaps telescope, so
    the mean is the span of the slice over its number of gaps."""
    center = np.argmin(np.abs(block - 2.0), axis=1)
    lo = np.maximum(center - 5, 0)
    hi = np.minimum(center + 5, block.shape[1] - 1)
    trial = np.arange(len(block))
    return (block[trial, hi] - block[trial, lo]) / (hi - lo)


def run_hard_edge_scaling(cfg: ExperimentConfig) -> TheoremReport:
    """N^2 scaling of the smallest eigenvalue and the 1/(N rho) bulk spacing near E=2."""
    _require_two_or_more(cfg, "the central spacing needs two eigenvalues")
    rho2 = mp_density(2.0)
    spectra = _spectra(cfg)
    rows = []
    failures = []
    medians = {}
    for size in cfg.sizes:
        scaled = spectra[size][:, 0] * size**2
        spacing = _central_gaps(spectra[size]) * size * rho2
        if np.any(scaled <= 0):
            failures.append(f"N={size}: nonpositive smallest eigenvalue observed")
        median = float(np.median(scaled))
        medians[size] = median
        spacing_median = float(np.median(spacing))
        rows.append(
            {
                "size": size,
                "spacing_median": spacing_median,
                "statistic": median,
                "ci_lo": float(np.quantile(scaled, 0.25)),
                "ci_hi": float(np.quantile(scaled, 0.75)),
                "trials": cfg.trials,
            }
        )
        if not (SPACING_LO < spacing_median < SPACING_HI):
            failures.append(
                f"N={size}: central spacing ratio {spacing_median:.4g} outside "
                f"({SPACING_LO}, {SPACING_HI})"
            )
    # a median <= 0 has no spread; its size already failed as nonpositive
    if len(medians) > 1 and min(medians.values()) > 0:
        spread = max(medians.values()) / min(medians.values())
        if spread > HARDEDGE_MEDIAN_FACTOR:
            failures.append(
                f"N^2*s_1 medians spread by factor {spread:.3g} > "
                f"{HARDEDGE_MEDIAN_FACTOR} across sizes"
            )
    summary = {"medians": {str(k): v for k, v in medians.items()}}
    return TheoremReport(
        theorem="hard-edge-scaling",
        config=cfg.to_dict(),
        rows=tuple(rows),
        summary=summary,
        failures=tuple(failures),
    )


_IDENTITY_THETA_GRID = (
    (0.04, 0.02), (0.2, 0.1), (0.5, 0.05), (0.5, 0.5), (1.0, 0.2),
    (2.0, 0.1), (2.0, 1.0), (3.0, 0.3), (3.9, 0.1), (5.0, 0.7),
)
_IDENTITY_WINDOWS = (
    Window(0.0, 0.05), Window(0.5, 0.2), Window(2.0, 0.1), Window(3.5, 0.3),
)


def run_identity_suite(
    sizes: tuple[int, ...] = (16, 32),
    trials: int = 20,
    seed: int = 1,
) -> TheoremReport:
    """Exact finite-N identities on complex-gaussian draws: leave-one-out diagonals vs
    dense inversion, eigenvector identity, interlacing, counting inequality, trace identity."""
    trials = _count("trials", trials)
    sizes = _sizes("sizes", sizes)
    seed = _seed("seed", seed)
    points = [SpectralPoint(e, h) for e, h in _IDENTITY_THETA_GRID]
    thetas = np.array([p.theta for p in points])[:, None, None]

    def one_trial(sample):
        d = decompose(sample)
        # one stacked eigensolve of all N minors serves every theta, both
        # resolvent identities, interlacing and the eigenvector identity
        minors = minor_basis(sample)
        loo = resolvent_diag_leave_one_out(minors, points)
        schur = resolvent_diag_schur(minors, points)
        inter = float(np.max(interlacing_check(d, minors)))
        scans = eigenvector_identity_scan(minors, d)
        finite = np.isfinite(scans)
        covered = int(np.count_nonzero(finite))
        resid = float(np.max(scans, where=finite, initial=0.0))
        gram = sample.entries.conj().T @ sample.entries
        # one stacked solve: the (points, N) resolvent diagonals
        dense = np.diagonal(np.linalg.inv(gram - thetas * np.eye(sample.size)), axis1=1, axis2=2)
        loo_dev = float(np.max(np.abs(loo - dense)))
        schur_dev = float(np.max(np.abs(schur - dense)))
        mean_dev = max(
            abs(np.mean(loo[i]) - empirical_stieltjes(d.eigenvalues, p)) for i, p in enumerate(points)
        )
        count_ok = all(
            eigenvalue_count(d.eigenvalues, w) <= counting_bound(d.eigenvalues, w)
            for w in _IDENTITY_WINDOWS
        )
        trace_dev = abs(float(np.sum(d.eigenvalues)) - float(np.sum(np.abs(sample.entries) ** 2)))
        return loo_dev, schur_dev, mean_dev, inter, resid, covered, count_ok, trace_dev

    per_trial = _per_trial(one_trial, "complex-gaussian", seed, sizes, trials)
    rows = []
    failures = []
    for size in sizes:
        results = per_trial[size]
        checks = (
            ("leave_one_out_vs_dense", max(r[0] for r in results), 1e-9),
            ("schur_vs_dense", max(r[1] for r in results), 1e-9),
            ("mean_diag_vs_transform", max(r[2] for r in results), 1e-9),
            ("interlacing_violation", max(r[3] for r in results), 1e-10),
            ("eigenvector_identity_residual", max(r[4] for r in results), 1e-8),
            # pooled over all (trial, alpha, k): one pair is 11% of a trial at N=3
            ("coverage_fraction", sum(r[5] for r in results) / (trials * size * size), 0.95),
            ("counting_inequality_ok", float(all(r[6] for r in results)), 1.0),
            ("trace_identity", max(r[7] for r in results), 1e-10 * size),
        )
        for name, value, tol in checks:
            if name in ("coverage_fraction", "counting_inequality_ok"):
                ok = value >= tol
            else:
                ok = value <= tol
            rows.append(
                {
                    "size": size,
                    "check": name,
                    "tolerance": tol,
                    "statistic": value,
                    "ci_lo": value,
                    "ci_hi": value,
                    "trials": trials,
                }
            )
            if not ok:
                failures.append(f"N={size}: {name} = {value:.4g} vs tolerance {tol:.4g}")
    return TheoremReport(
        theorem="exact-identities",
        config={
            "sizes": list(sizes),
            "trials": trials,
            "seed": seed,
            "distribution": "complex-gaussian",
            "theta_grid": [list(p) for p in _IDENTITY_THETA_GRID],
        },
        rows=tuple(rows),
        summary={"checks_per_size": len(checks)},
        failures=tuple(failures),
    )


# the operator size both concentration experiments run at
_PROBE_SIZE = 64
_HW_DELTAS = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0)


def run_hw_experiment(
    distribution: str = "complex-gaussian",
    trials: int = 10_000,
    seed: int = 1,
) -> TheoremReport:
    """Quadratic-form tail shape on the identity of size _PROBE_SIZE, over the
    delta grid _HW_DELTAS."""
    trials = _where(_integer, lambda n: n >= 100, ">= 100")("trials", trials)
    seed = _seed("seed", seed)
    distribution = _kind("distribution", distribution)
    hits = hw_tail_curve(_PROBE_SIZE, distribution, trials, _HW_DELTAS, seed)
    grid = np.asarray(_HW_DELTAS)
    # the normalizer T = Tr A*A of the identity
    norm = float(_PROBE_SIZE)
    # min(delta/sqrt(T), delta^2/T), the same array for the rows and the fit
    shapes = np.minimum(grid / math.sqrt(norm), grid**2 / norm)
    rows = [
        {"delta": float(delta), "shape": float(shape), **_exceedance(int(h), trials)}
        for delta, shape, h in zip(grid, shapes, hits)
    ]
    failures = []
    # least-squares decay rate of -log(exceedance) against the shape, fitted
    # on the grid points whose exceedance lies strictly inside (0, 1); nan
    # when fewer than two such points exist
    exceedance = hits / trials
    inside = (exceedance > 0.0) & (exceedance < 1.0)
    if int(np.sum(inside)) >= 2:
        slope = float(np.polyfit(shapes[inside], -np.log(exceedance[inside]), 1)[0])
    else:
        slope = math.nan
    if not (math.isfinite(slope) and slope > 0):
        failures.append(f"fitted decay rate {slope} not positive")
    return TheoremReport(
        theorem="quadratic-form-tail",
        config={
            "distribution": distribution,
            "trials": trials,
            "seed": seed,
            "size": _PROBE_SIZE,
            "deltas": list(_HW_DELTAS),
        },
        rows=tuple(rows),
        summary={"slope": slope, "normalizer": norm},
        failures=tuple(failures),
    )


_MASS_M_GRID = (4, 9, 16, 25)


def run_projection_mass_experiment(
    distribution: str = "complex-gaussian",
    trials: int = 40_000,
    seed: int = 1,
) -> TheoremReport:
    """Superlinear-in-sqrt(m) decay of -log P(projection mass <= m/2) at size
    _PROBE_SIZE, over the m grid _MASS_M_GRID.

    The m grid stays where the direct estimator resolves: the complex-
    gaussian probability is already 4e-7 at m=64, far beyond desk trial
    counts, so the grid stops at m=25.  The rows share one nested frame
    per trial (common random numbers across m); each row has the law of an
    independent frame.  A zero-hit row fails once, not again as a trend.
    """
    trials = _count("trials", trials)
    seed = _seed("seed", seed)
    distribution = _kind("distribution", distribution)
    rows = []
    failures = []
    ratios = []
    # one probe serves the grid, keyed by its first m: that row is drawn as a
    # one-entry grid would draw it, and each row depends only on the grid up
    # to its own m
    hits_grid, resolved = projection_mass_probe(
        _MASS_M_GRID, _PROBE_SIZE, distribution, trials, derive_trial_seed(seed, _MASS_M_GRID[0])
    )
    for m, hits in zip(_MASS_M_GRID, hits_grid.tolist()):
        tail = _exceedance(hits, trials)
        rows.append({"m": m, "sqrt_m": math.sqrt(m), "family": resolved, **tail})
        if hits == 0:
            failures.append(
                f"m={m}: zero hits at {trials} trials; grid beyond the estimator's resolution"
            )
            ratios.append(math.inf)
        else:
            ratios.append(-math.log(tail["statistic"]) / math.sqrt(m))
    pairs = list(zip(_MASS_M_GRID, ratios))
    for (m1, r1), (m2, r2) in zip(pairs, pairs[1:]):
        if not (r2 > r1 or r1 == r2 == math.inf):
            failures.append(
                f"-log P / sqrt(m) did not increase from m={m1} ({r1:.4g}) to m={m2} ({r2:.4g})"
            )
    return TheoremReport(
        theorem="projection-mass-tail",
        config={
            "distribution": distribution,
            "trials": trials,
            "seed": seed,
            "size": _PROBE_SIZE,
            "m_grid": list(_MASS_M_GRID),
        },
        rows=tuple(rows),
        summary={"ratios": ratios},
        failures=tuple(failures),
    )
