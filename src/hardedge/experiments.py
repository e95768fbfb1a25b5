"""Monte Carlo harnesses that put each spectral statement on the bench.

Asymptotic log-powers are unreachable at any size a workstation can
decompose ((log 512)^4 alone is ~1.5e3), so windows are parameterized by the
resolution scale N*eta/sqrt(E) directly (default floor 50) and the log-power
exponent b travels along as report metadata.  The pass/fail bands are the
module constants below: desk-calibrated, not claims about the theory's
constants, and not configurable; the calibration provenance is
complex-gaussian pilot runs at N <= 1024, seeds O(1), 2026-08.

Every experiment derives one sub-seed per matrix size and one seed per trial
below that, so trials are order- and schedule-independent; reports aggregate
in trial-index order and are reproducible bit for bit from (config, seed) on
one machine and numpy/OpenBLAS build.  OpenBLAS picks its kernels per CPU,
so no summation rule could make the last bits portable; sums are numpy's.

Each config field's rule lives once, in the parser table `_FIELDS`, which
`ExperimentConfig.__post_init__` runs: a config built in Python, read from
JSON or made by `dataclasses.replace` meets the same rules and is rejected
with the same message, naming the field or entry (`sizes[0]`).  The direct
runners (identities, hw, projmass) check their sizes, seed and grids with the
same parsers.

Every matrix experiment is a reducer over one trial engine (`_per_trial`),
which maps a per-sample function over the seeded draws of each size.  The
apriori, local-law, near-zero and hard-edge experiments share one memoised
spectra pass (`_spectra`): each trial is drawn and decomposed once per
process, however many of them run on the same config.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .concentration import hw_tail_curve, projection_mass_probe, wilson_interval
from .ensemble import (
    KINDS,
    EnsembleSpec,
    EntryDistribution,
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
    gram_decompose,
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


def _list_of(item, increasing: bool = False):
    """A nonempty list (or tuple) of item-parsed entries, returned as a tuple."""

    def parse(path: str, value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        values = tuple(item(f"{path}[{i}]", v) for i, v in enumerate(value))
        if not values or (increasing and any(a >= b for a, b in zip(values, values[1:]))):
            need = "a nonempty, strictly increasing list" if increasing else "a nonempty list"
            raise ConfigError(f"{path}: need {need}, got {values!r}")
        return values

    return parse


_count = _where(_integer, lambda n: n >= 1, ">= 1")
_positive = _where(_number, lambda x: x > 0, "> 0")
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
    "b": _positive,
    "kappa": _where(_number, lambda x: 0 < x < 1, "in (0, 1)"),
    "epsilon_grid": _list_of(_positive),
    "k_grid": _list_of(_positive, increasing=True),
    "l_grid": _list_of(_count, increasing=True),
    "seed": _seed,
    "scale_min": _positive,
    "n_windows": _count,
    "windows": lambda path, value: None if value is None else _list_of(_window)(path, value),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters; JSON keys match field names."""

    sizes: tuple[int, ...] = (128, 256, 512)
    trials: int = 100
    distribution: str = "complex-gaussian"
    b: float = 4.0
    kappa: float = 0.5
    epsilon_grid: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.3)
    k_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    l_grid: tuple[int, ...] = (1, 2, 3, 4, 5)
    seed: int = 1
    scale_min: float = 50.0
    n_windows: int = 4
    windows: tuple[Window, ...] | None = None

    def __post_init__(self) -> None:
        for name, parse in _FIELDS.items():
            object.__setattr__(self, name, parse(name, getattr(self, name)))

    @property
    def entry_distribution(self) -> EntryDistribution:
        return EntryDistribution(self.distribution)

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


def _workers(threads: int) -> int:
    return min(_count("threads", threads), os.cpu_count() or 1)


def _map_trials(fn, trials: int, threads: int) -> list:
    workers = _workers(threads)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(trials)))
    return [fn(t) for t in range(trials)]


def _per_trial(fn, distribution: str, seed: int, sizes, trials: int, threads: int) -> dict[int, list]:
    """{size: [fn(sample) for each trial]} over the seeded draws of each size.

    The one place a size's ensemble is built: a sub-master seed per size, so
    streams never overlap across sizes, and a seed per trial below it.
    """
    dist = EntryDistribution(distribution)
    out = {}
    for size in sizes:
        spec = EnsembleSpec(size=size, distribution=dist, master_seed=derive_trial_seed(seed, size))
        out[size] = _map_trials(lambda t, spec=spec: fn(sample_matrix(spec, t)), trials, threads)
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


def _spectra(cfg: ExperimentConfig, threads: int) -> dict[int, np.ndarray]:
    """Ascending eigenvalues of every trial as {size: read-only (trials, N) array}.

    Only the distribution, seed, sizes and trial count decide the draws, so the
    experiments on one config share a single pass; a different config evicts it.
    """
    _workers(threads)  # a bad thread count is rejected even when the pass is cached
    key = (cfg.distribution, cfg.seed, cfg.sizes, cfg.trials)
    cached = _SPECTRA.get(key)
    if cached is not None:
        return cached
    _SPECTRA.clear()
    per_trial = _per_trial(eigenvalues_only, cfg.distribution, cfg.seed, cfg.sizes, cfg.trials, threads)
    spectra = {size: np.array(eigs) for size, eigs in per_trial.items()}
    for eigs in spectra.values():
        eigs.flags.writeable = False
    _SPECTRA[key] = spectra
    return spectra


def _hard_edge_floor(cfg: ExperimentConfig, size: int) -> float:
    """Lowest energy 2 (scale_min / (kappa N))^2 a desk-scale window or
    eigenvalue band may start at."""
    return 2.0 * (cfg.scale_min / (cfg.kappa * size)) ** 2


def derived_windows(cfg: ExperimentConfig, size: int) -> tuple[Window, ...]:
    """Geometric energy ladder from the desk-scale hard-edge floor to 4 - kappa,
    each window at the exact resolution scale scale_min."""
    lo = _hard_edge_floor(cfg, size)
    hi = 4.0 - cfg.kappa
    if lo >= hi:
        raise ConfigError(
            f"sizes: N={size} cannot host windows at scale_min={cfg.scale_min} "
            f"with kappa={cfg.kappa} (floor {lo:.3g} >= ceiling {hi:.3g})"
        )
    if cfg.n_windows == 1:
        energies = [hi / 2.0]
    else:
        ratio = (hi / lo) ** (1.0 / (cfg.n_windows - 1))
        energies = [lo * ratio**j for j in range(cfg.n_windows)]
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
    if not cfg.entry_distribution.density_bounded:
        raise ConfigError(
            f"distribution: {cfg.distribution!r} has an atomic part density and is "
            f"excluded from the {theorem} experiment"
        )


def _pfx(size: int, w: Window) -> str:
    return f"N={size}, window E={w.energy:.6g}, eta={w.eta:.6g}"


def run_apriori(cfg: ExperimentConfig, threads: int = 1) -> TheoremReport:
    """Tail of the window eigenvalue count against thresholds K * N*eta/sqrt(E)."""
    windows_by_size = {size: _windows_for(cfg, size, enforce_scale=True) for size in cfg.sizes}
    spectra = _spectra(cfg, threads)

    rows = []
    failures = []
    reference_cells = []
    for size in cfg.sizes:
        for w in windows_by_size[size]:
            counts = eigenvalue_count(spectra[size], w)
            scale = w.point.scale(size)
            for k in cfg.k_grid:
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
        "max_reference_exceedance": max(reference_cells) if reference_cells else None,
        "cells": len(rows),
    }
    return TheoremReport(
        theorem="apriori-counting",
        config=cfg.to_dict(),
        rows=tuple(rows),
        summary=summary,
        failures=tuple(failures),
    )


def run_local_law(cfg: ExperimentConfig, threads: int = 1) -> TheoremReport:
    """Deviation tails of the empirical transform and of the window counting form."""
    _require_bounded_density(cfg, "local-law")
    eps_grid = tuple(sorted(set(cfg.epsilon_grid) | {LOCALLAW_EPSILON}))

    windows_by_size = {size: _windows_for(cfg, size, enforce_scale=False) for size in cfg.sizes}
    spectra = _spectra(cfg, threads)

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
                for eps in eps_grid:
                    tail = _exceedance(int(np.sum(devs >= eps)), cfg.trials)
                    p = tail["statistic"]
                    nominal = math.exp(-eps * math.sqrt(scale)) + math.exp(
                        -math.log(size) ** (cfg.b / 4.0)
                    )
                    rows.append(
                        {
                            "size": size,
                            "energy": w.energy,
                            "eta": w.eta,
                            "scale": scale,
                            "form": form,
                            "epsilon": eps,
                            "nominal_tail": nominal,
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


def run_delocalization(cfg: ExperimentConfig, threads: int = 1) -> TheoremReport:
    """Sup-norm statistics of eigenvectors with eigenvalues away from the edges."""
    _require_bounded_density(cfg, "delocalization")
    upper = 4.0 - cfg.kappa
    lower_of = {}
    for size in cfg.sizes:
        lower_of[size] = _hard_edge_floor(cfg, size)
        if lower_of[size] >= upper:
            raise ConfigError(
                f"sizes: N={size} leaves no eigenvalue window "
                f"(floor {lower_of[size]:.3g} >= {upper:.3g})"
            )

    def max_supsq(sample) -> float:
        # the window's floor is far above the Gram eigensolve's absolute error
        d = gram_decompose(sample)
        # ascending eigenvalues: the inclusive window is one slice of columns
        lo = np.searchsorted(d.eigenvalues, lower_of[sample.size], side="left")
        hi = np.searchsorted(d.eigenvalues, upper, side="right")
        if lo == hi:
            return math.nan
        return float(sample.size * np.max(np.abs(d.eigenvectors[:, lo:hi]) ** 2))

    per_trial = _per_trial(max_supsq, cfg.distribution, cfg.seed, cfg.sizes, cfg.trials, threads)
    rows = []
    failures = []
    medians_over_ln = {}
    empty = {}
    for size in cfg.sizes:
        lower = lower_of[size]
        stats = np.asarray(per_trial[size])
        ln_n = math.log(size)
        empty[size] = int(np.count_nonzero(np.isnan(stats)))
        if empty[size] == cfg.trials:
            # nothing to reduce: the row carries nan and the size stays out
            # of the cross-size spread
            failures.append(
                f"N={size}: no trial had an eigenvalue in the window "
                f"[{lower:.6g}, {upper:.6g}]"
            )
            tail = _exceedance(None, cfg.trials)
            median = q95 = top = math.nan
        else:
            if empty[size]:
                failures.append(
                    f"N={size}: {empty[size]} of {cfg.trials} trials had no eigenvalues "
                    "in the window"
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
                "lower_edge": lower,
                "upper_edge": upper,
                "nominal_edge_b": math.log(size) ** cfg.b / (cfg.kappa**2 * size**2),
                "nominal_edge_2b": math.log(size) ** (2 * cfg.b) / (cfg.kappa**2 * size**2),
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


def run_wegner(cfg: ExperimentConfig, threads: int = 1) -> TheoremReport:
    """Tails of the near-zero eigenvalue count in [0, K/N^2] over the L grid.

    Hard-edge repulsion makes levels beyond the first one or two unobservable
    at desk trial counts (P ~ 1e-6 or less); zero-hit cells are therefore
    upper-bounded by 1/trials and the decay check requires strict decrease
    only where the data can show it.
    """
    _require_bounded_density(cfg, "near-zero counting")
    spectra = _spectra(cfg, threads)
    rows = []
    failures = []
    slopes = {}
    levels = cfg.l_grid
    for size in cfg.sizes:
        for k in cfg.k_grid:
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
            if positive and positive[-1][1] < 2 and len(positive) < len(levels):
                failures.append(
                    f"{cell}: last resolvable level L={positive[-1][0]} has a single hit; "
                    "zero cells cannot be placed above it"
                )
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


def run_hard_edge_scaling(cfg: ExperimentConfig, threads: int = 1) -> TheoremReport:
    """N^2 scaling of the smallest eigenvalue and the 1/(N rho) bulk spacing near E=2."""
    rho2 = mp_density(2.0)
    spectra = _spectra(cfg, threads)
    rows = []
    failures = []
    medians = {}
    for size in cfg.sizes:
        scaled = spectra[size][:, 0] * size**2
        spacing = []
        for eigs in spectra[size]:
            center = int(np.argmin(np.abs(eigs - 2.0)))
            gaps = np.diff(eigs[max(0, center - 5) : min(len(eigs), center + 6)])
            spacing.append(float(np.mean(gaps)) * size * rho2)
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
    distribution: str = "complex-gaussian",
    threads: int = 1,
) -> TheoremReport:
    """Exact finite-N identities: leave-one-out diagonals vs dense inversion,
    eigenvector identity, interlacing, counting inequality, trace identity."""
    trials = _count("trials", trials)
    sizes = _sizes("sizes", sizes)
    seed = _seed("seed", seed)
    points = [SpectralPoint(e, h) for e, h in _IDENTITY_THETA_GRID]
    thetas = np.array([p.theta for p in points])[:, None, None]

    def one_trial(sample):
        d = decompose(sample)
        # one stacked SVD of all N minors serves every theta, both resolvent
        # identities, interlacing and the eigenvector identity
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

    per_trial = _per_trial(one_trial, distribution, seed, sizes, trials, threads)
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
            "distribution": distribution,
            "theta_grid": [list(p) for p in _IDENTITY_THETA_GRID],
        },
        rows=tuple(rows),
        summary={"checks_per_size": 8},
        failures=tuple(failures),
    )


_HW_DELTAS = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0)


def run_hw_experiment(
    distribution: str = "complex-gaussian",
    trials: int = 10_000,
    seed: int = 1,
    size: int = 64,
    deltas: tuple[float, ...] = _HW_DELTAS,
    spectrum=None,
) -> TheoremReport:
    """Quadratic-form tail shape on the identity (or a given spectrum, whose
    length then replaces the unused size)."""
    if spectrum is None:
        _count("size", size)
    trials = _where(_integer, lambda n: n >= 100, ">= 100")("trials", trials)
    seed = _seed("seed", seed)
    dist = EntryDistribution(distribution)
    operator = np.ones(size) if spectrum is None else np.asarray(spectrum, dtype=float)
    hits, norm = hw_tail_curve(operator, dist, trials, deltas, seed)
    grid = np.asarray(deltas, dtype=float)
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
            "size": len(operator),
            "deltas": [float(d) for d in deltas],
            "spectrum": None if spectrum is None else [float(x) for x in operator],
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
    size: int = 64,
    m_grid: tuple[int, ...] = _MASS_M_GRID,
    family: str = "auto",
) -> TheoremReport:
    """Superlinear-in-sqrt(m) decay of -log P(projection mass <= m/2).

    The m grid must stay where the direct estimator resolves: the complex-
    gaussian probability is already 4e-7 at m=64, far beyond desk trial
    counts, so the default stops at m=25.
    """
    size = _count("size", size)
    trials = _count("trials", trials)
    seed = _seed("seed", seed)
    m_entry = _where(_integer, lambda m: 1 <= m <= size, f"in [1, {size}]")
    m_grid = _list_of(m_entry, increasing=True)("m_grid", m_grid)
    dist = EntryDistribution(distribution)
    rows = []
    failures = []
    ratios = []
    for m in m_grid:
        m_seed = derive_trial_seed(seed, m)
        hits, resolved = projection_mass_probe(m, size, dist, trials, m_seed, family)
        tail = _exceedance(hits, trials)
        rows.append({"m": m, "sqrt_m": math.sqrt(m), "family": resolved, **tail})
        if hits == 0:
            failures.append(
                f"m={m}: zero hits at {trials} trials; grid beyond the estimator's resolution"
            )
            ratios.append(math.inf)
        else:
            ratios.append(-math.log(tail["statistic"]) / math.sqrt(m))
    for (m1, r1), (m2, r2) in zip(zip(m_grid, ratios), list(zip(m_grid, ratios))[1:]):
        if not r2 > r1:
            failures.append(
                f"-log P / sqrt(m) did not increase from m={m1} ({r1:.4g}) to m={m2} ({r2:.4g})"
            )
    return TheoremReport(
        theorem="projection-mass-tail",
        config={
            "distribution": distribution,
            "trials": trials,
            "seed": seed,
            "size": size,
            "m_grid": list(m_grid),
            "family": family,
        },
        rows=tuple(rows),
        summary={"ratios": ratios},
        failures=tuple(failures),
    )
