"""Flat key=value experiment configuration; each schema maps a key to its
default, and the default's type is the key's type."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from ..counterexample import CounterexampleParams
from ..measures import GRID_CAP
from ..schrodinger import FREQ_LIMIT


class ConfigError(Exception):
    """Raised on any malformed, unknown, or ill-typed configuration input."""


def _parse_value(default: object, raw: str):
    """raw as the type of its key's default: a tuple is comma-separated ints,
    a float also takes a/b, and an int, Fraction or str is its constructor."""
    raw = raw.strip()
    kind = type(default)
    try:
        if kind is tuple:
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if kind is float and "/" in raw:
            return float(Fraction(raw))
        return kind(raw)
    except (ValueError, ZeroDivisionError) as exc:
        name = "comma-separated ints" if kind is tuple else kind.__name__
        raise ConfigError(f"cannot parse {raw!r} as {name}: {exc}") from None


COMMON = {
    "seed": 0,  # root seed for every randomized draw
}

# The blow-up datum's parameters, shared by evolve and claims.
COUNTEREXAMPLE = {
    "lam": 16,  # lacunary base
    "alpha": 1.0,  # target dimension
    "delta": 0.05,  # growth exponent
    "kappa": 0.25,  # window ratio
    "c1": CounterexampleParams.c1,  # lower offset constant
    "c2": CounterexampleParams.c2,  # upper offset constant
}

SCHEMAS: dict[str, dict[str, object]] = {
    "gauss": {
        **COMMON,
        "q_max": 2000,  # largest modulus for the closed-form audit
        "random_r_per_q": 2,  # extra random coprime quadratic coefficients per q
        "spot_checks": 200,  # per-call brute-force spot checks against the table
        "perturbed_q_min": 16,  # smallest perturbed modulus (multiple of 4)
        "perturbed_q_max": 1024,  # largest perturbed modulus
        "perturbed_dev_const": 5.0,  # C in deviation <= C sqrt(q)(q|e| + q^2 e^2)
        "abel_instances": 10000,  # random summation-by-parts instances
        "tol": 1e-8,  # relative tolerance for the closed form
    },
    "evolve": {
        **COMMON,
        **COUNTEREXAMPLE,
        "j_max": 4,  # largest block level
        "samples_per_q": 32,  # samples per admissible time
        "tol": 1e-9,  # relative agreement between fast and direct paths
    },
    "claims": {
        **COMMON,
        **COUNTEREXAMPLE,
        "j_list": (2, 3, 4),  # levels entering the growth claim
        "samples_per_j": 64,  # total samples per level
        # coherent factor ratios must lie in [1/band, band]; at the defaults
        # they land in [1.32, 2.66]
        "factor_band": 8.0,
        "factor_frac": 0.95,  # required fraction of samples inside the band
        "slope_tol": 0.25,  # relative tolerance of the growth-slope fit
        # frozen cap for upper-regime ratios (k < j); measured <= 1.33 at the defaults
        "upper_ratio_cap": 4.0,
        "vdc_mult": 8.0,  # factor-sum cap multiple of the derivative-test bound
        # frozen cap for incoherent factor ratios (k > j); measured <= 148 at the defaults
        "decay_factor_cap": 256.0,
        "decay_c_min_frac": 0.25,  # fitted decay rate must reach this fraction of s_alpha
    },
    "dimension": {
        **COMMON,
        # alpha:lam:kappa triples for the covering-exponent sweep
        "cov_cases": "1:64:1/8;2/3:343:1/7;1/2:625:1/5;1/3:729:1/3",
        "cov_j_min": 2,  # first generation level
        "cov_j_max": 6,  # last generation level
        "cov_tol": 0.05,  # absolute tolerance on the fitted exponent
        "sep_beta": Fraction(4),  # denominator-window ratio
        "sep_exp_min": 6,  # smallest log2 denominator bound
        "sep_exp_max": 12,  # largest log2 denominator bound
        "sep_slope_tol": 0.2,  # tolerance on the packing-count slope d+1
        "nested_n1": 256,  # first-level denominator bound
        "nested_levels": 3,  # construction depth
        "nested_bound_min": 0.8,  # required mass-distribution lower bound
        "ideal_lam": 16,  # base of the idealized reference plan
        "ideal_levels": 4,  # depth of the idealized plan
        "ideal_tol": 0.15,  # relative tolerance to (d+1)/tau
        "meas_lam": 16,  # base for the volume bound at alpha = d
        "meas_kappa": Fraction(1, 64),  # window ratio for the volume bound
        "meas_j_list": (3, 4, 5),  # levels for the volume bound
        "meas_ratio_band": 4.0,  # consecutive-level ratios must lie in [1/band, band]
    },
    "maximal": {
        **COMMON,
        "cantor_level": 12,  # middle-thirds construction depth
        "conv_exp_min": 6,  # smallest log2 bandwidth of the convolution sweep
        "conv_exp_max": 13,  # largest log2 bandwidth of the convolution sweep
        "conv_slope_tol": 0.08,  # tolerance on the convolution-growth exponent
        "l1_exp_min": 4,  # smallest log2 bandwidth of the kernel-integral sweep
        "l1_exp_max": 16,  # largest log2 bandwidth of the kernel-integral sweep
        "l1_band": 2.0,  # allowed max/min ratio of value / ln N
        "plan_q_max": 64,  # largest reciprocal denominator in the time plan
        "plan_grid": 64,  # uniform time-grid size
        "lp_exp_min": 4,  # smallest log2 bandwidth of the weighted maximal sweep
        "lp_exp_max": 9,  # largest log2 bandwidth of the weighted maximal sweep
        "sweep_exp_min": 5,  # smallest log2 bandwidth of the transfer sweeps
        "sweep_exp_max": 9,  # largest log2 bandwidth of the transfer sweeps
        "sweep_band": 2.0,  # max over median cap for the transfer sweeps
        "carleson_s": 0.3,  # regularity of the truncation-maximal sweep
        "carleson_q": 8,  # denominator of the fixed sampled time
    },
}

EXPERIMENTS = tuple(sorted(SCHEMAS))

# Counts a run loops over: at zero its checks would pass on no samples.
_COUNTS = {
    "gauss": ("spot_checks", "abel_instances"),
    "evolve": ("j_max", "samples_per_q"),
    "maximal": ("plan_grid",),
}


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = raw.strip()
    return out


def load_config(
    experiment: str,
    path: str | Path | None,
    overrides: dict[str, object] | None = None,
) -> dict[str, object]:
    """Typed configuration for one experiment, defaults filled in.

    Unknown keys, unparsable values, or an unknown experiment id raise
    ConfigError before any output is produced.
    """
    if experiment not in SCHEMAS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    schema = SCHEMAS[experiment]
    raw: dict[str, str] = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        raw = parse_config_text(text)
    cfg = dict(schema)
    for name, value in raw.items():
        if name == "experiment":
            if value != experiment:
                raise ConfigError(
                    f"config file names experiment {value!r}, running {experiment!r}"
                )
            continue
        if name not in schema:
            raise ConfigError(f"unknown key {name!r} for experiment {experiment!r}")
        cfg[name] = _parse_value(schema[name], value)
    for name, value in (overrides or {}).items():
        if name not in schema:
            raise ConfigError(f"unknown override {name!r}")
        cfg[name] = value
    _validate(experiment, cfg)
    return cfg


def _validate(experiment: str, cfg: dict[str, object]) -> None:
    for name, value in cfg.items():
        if name.endswith(("tol", "band", "cap", "frac")) and isinstance(value, float) and value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    for name in _COUNTS.get(experiment, ()):
        if cfg[name] < 1:
            raise ConfigError(f"{name} must be at least 1, got {cfg[name]}")
    if experiment == "gauss":
        if cfg["q_max"] < 4:
            raise ConfigError("q_max must be at least 4")
        q_min = cfg["perturbed_q_min"]
        if q_min < 4 or q_min % 4:
            raise ConfigError(
                f"perturbed_q_min must be a multiple of 4 and at least 4, got {q_min}"
            )
        if cfg["perturbed_q_max"] < q_min:
            raise ConfigError(
                f"perturbed_q_max must be at least perturbed_q_min = {q_min},"
                f" got {cfg['perturbed_q_max']}"
            )
    if experiment in ("evolve", "claims"):
        if experiment == "claims" and len(cfg["j_list"]) < 3:
            raise ConfigError(f"j_list needs at least three levels, got {list(cfg['j_list'])}")
        top = cfg["j_max"] if experiment == "evolve" else max(cfg["j_list"]) + 2
        if cfg["lam"] ** top > FREQ_LIMIT:
            raise ConfigError(
                f"lam^{top} exceeds the frequency limit {FREQ_LIMIT}; lower j_max/j_list or lam"
            )
    if experiment == "maximal":
        level = cfg["cantor_level"]
        # 2 * 3^L > 2^L, so every level past the cap's bit length is above it
        if 2 * 3 ** min(level, GRID_CAP.bit_length()) > GRID_CAP:
            raise ConfigError(
                f"cantor_level {level}: convolution grid of 2*3^{level} points above cap {GRID_CAP}"
            )
        for sweep in ("conv", "l1", "lp", "sweep"):
            lo, hi = cfg[f"{sweep}_exp_min"], cfg[f"{sweep}_exp_max"]
            if not 1 <= lo <= hi:
                raise ConfigError(
                    f"need 1 <= {sweep}_exp_min <= {sweep}_exp_max, got {lo} and {hi}"
                )
        if cfg["conv_exp_max"] - cfg["conv_exp_min"] < 2:
            raise ConfigError("the convolution exponent fit needs at least 3 bandwidths")
    if experiment == "dimension":
        covering_cases(cfg["cov_cases"])
        if len(cfg["meas_j_list"]) < 2:
            raise ConfigError(
                "meas_j_list needs at least two levels for the consecutive-level ratios,"
                f" got {list(cfg['meas_j_list'])}"
            )


def covering_cases(text: str) -> list[tuple[Fraction, int, Fraction]]:
    """The exact (alpha, lam, kappa) triples of a cov_cases value,
    "alpha:lam:kappa" cases joined by ";"."""
    cases = []
    for case in text.split(";"):
        parts = case.split(":")
        if len(parts) != 3:
            raise ConfigError(f"covering case {case!r} is not alpha:lam:kappa")
        try:
            cases.append((Fraction(parts[0]), int(parts[1]), Fraction(parts[2])))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot parse covering case {case!r}") from None
    return cases


def counterexample_params(cfg: dict[str, object]) -> CounterexampleParams:
    """The d = 1 blow-up parameters named by the COUNTEREXAMPLE keys of cfg."""
    return CounterexampleParams(d=1, **{name: cfg[name] for name in COUNTEREXAMPLE})

