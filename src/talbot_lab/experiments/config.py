"""Flat key=value experiment configuration with typed schemas."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ..counterexample import CounterexampleParams
from ..measures import GRID_CAP
from ..schrodinger import FREQ_LIMIT


class ConfigError(Exception):
    """Raised on any malformed, unknown, or ill-typed configuration input."""


@dataclass(frozen=True)
class Key:
    kind: str  # int | float | fraction | str | intlist
    default: object
    help: str


def _parse_value(kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(Fraction(raw)) if "/" in raw else float(raw)
        if kind == "fraction":
            return Fraction(raw)
        if kind == "str":
            return raw
        if kind == "intlist":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse {raw!r} as {kind}: {exc}") from None
    raise ConfigError(f"unknown config kind {kind!r}")


COMMON = {
    "seed": Key("int", 0, "root seed for every randomized draw"),
}

# The blow-up datum's parameters, shared by evolve and claims.
COUNTEREXAMPLE = {
    "lam": Key("int", 16, "lacunary base"),
    "alpha": Key("float", 1.0, "target dimension"),
    "delta": Key("float", 0.05, "growth exponent"),
    "kappa": Key("float", 0.25, "window ratio"),
    "c1": Key("fraction", Fraction(1, 200), "lower offset constant"),
    "c2": Key("fraction", Fraction(1, 100), "upper offset constant"),
}

SCHEMAS: dict[str, dict[str, Key]] = {
    "gauss": {
        **COMMON,
        "q_max": Key("int", 2000, "largest modulus for the closed-form audit"),
        "random_r_per_q": Key("int", 2, "extra random coprime quadratic coefficients per q"),
        "spot_checks": Key("int", 200, "per-call brute-force spot checks against the table"),
        "perturbed_q_min": Key("int", 16, "smallest perturbed modulus (multiple of 4)"),
        "perturbed_q_max": Key("int", 1024, "largest perturbed modulus"),
        "perturbed_dev_const": Key("float", 5.0, "C in deviation <= C sqrt(q)(q|e| + q^2 e^2)"),
        "abel_instances": Key("int", 10000, "random summation-by-parts instances"),
        "tol": Key("float", 1e-8, "relative tolerance for the closed form"),
    },
    "evolve": {
        **COMMON,
        **COUNTEREXAMPLE,
        "j_max": Key("int", 4, "largest block level"),
        "samples_per_q": Key("int", 32, "samples per admissible time"),
        "tol": Key("float", 1e-9, "relative agreement between fast and direct paths"),
    },
    "claims": {
        **COMMON,
        **COUNTEREXAMPLE,
        "j_list": Key("intlist", (2, 3, 4), "levels entering the growth claim"),
        "samples_per_j": Key("int", 64, "total samples per level"),
        "factor_band": Key(
            "float", 8.0,
            "coherent factor ratios must lie in [1/band, band]; at the defaults they land"
            " in [1.32, 2.66]",
        ),
        "factor_frac": Key("float", 0.95, "required fraction of samples inside the band"),
        "slope_tol": Key("float", 0.25, "relative tolerance of the growth-slope fit"),
        "upper_ratio_cap": Key(
            "float", 4.0,
            "frozen cap for upper-regime ratios (k < j); measured <= 1.33 at the defaults",
        ),
        "vdc_mult": Key("float", 8.0, "factor-sum cap multiple of the derivative-test bound"),
        "decay_factor_cap": Key(
            "float", 256.0,
            "frozen cap for incoherent factor ratios (k > j); measured <= 148 at the defaults",
        ),
        "decay_c_min_frac": Key("float", 0.25, "fitted decay rate must reach this fraction of s_alpha"),
    },
    "dimension": {
        **COMMON,
        "cov_cases": Key(
            "str",
            "1:64:1/8;2/3:343:1/7;1/2:625:1/5;1/3:729:1/3",
            "alpha:lam:kappa triples for the covering-exponent sweep",
        ),
        "cov_j_min": Key("int", 2, "first generation level"),
        "cov_j_max": Key("int", 6, "last generation level"),
        "cov_tol": Key("float", 0.05, "absolute tolerance on the fitted exponent"),
        "sep_beta": Key("fraction", Fraction(4), "denominator-window ratio"),
        "sep_exp_min": Key("int", 6, "smallest log2 denominator bound"),
        "sep_exp_max": Key("int", 12, "largest log2 denominator bound"),
        "sep_slope_tol": Key("float", 0.2, "tolerance on the packing-count slope d+1"),
        "nested_n1": Key("int", 256, "first-level denominator bound"),
        "nested_levels": Key("int", 3, "construction depth"),
        "nested_bound_min": Key("float", 0.8, "required mass-distribution lower bound"),
        "ideal_lam": Key("int", 16, "base of the idealized reference plan"),
        "ideal_levels": Key("int", 4, "depth of the idealized plan"),
        "ideal_tol": Key("float", 0.15, "relative tolerance to (d+1)/tau"),
        "meas_lam": Key("int", 16, "base for the volume bound at alpha = d"),
        "meas_kappa": Key("fraction", Fraction(1, 64), "window ratio for the volume bound"),
        "meas_j_list": Key("intlist", (3, 4, 5), "levels for the volume bound"),
        "meas_ratio_band": Key("float", 4.0, "consecutive-level ratios must lie in [1/band, band]"),
    },
    "maximal": {
        **COMMON,
        "cantor_level": Key("int", 12, "middle-thirds construction depth"),
        "conv_exp_min": Key("int", 6, "smallest log2 bandwidth of the convolution sweep"),
        "conv_exp_max": Key("int", 13, "largest log2 bandwidth of the convolution sweep"),
        "conv_slope_tol": Key("float", 0.08, "tolerance on the convolution-growth exponent"),
        "l1_exp_min": Key("int", 4, "smallest log2 bandwidth of the kernel-integral sweep"),
        "l1_exp_max": Key("int", 16, "largest log2 bandwidth of the kernel-integral sweep"),
        "l1_band": Key("float", 2.0, "allowed max/min ratio of value / ln N"),
        "plan_q_max": Key("int", 64, "largest reciprocal denominator in the time plan"),
        "plan_grid": Key("int", 64, "uniform time-grid size"),
        "lp_exp_min": Key("int", 4, "smallest log2 bandwidth of the weighted maximal sweep"),
        "lp_exp_max": Key("int", 9, "largest log2 bandwidth of the weighted maximal sweep"),
        "sweep_exp_min": Key("int", 5, "smallest log2 bandwidth of the transfer sweeps"),
        "sweep_exp_max": Key("int", 9, "largest log2 bandwidth of the transfer sweeps"),
        "sweep_band": Key("float", 2.0, "max over median cap for the transfer sweeps"),
        "carleson_s": Key("float", 0.3, "regularity of the truncation-maximal sweep"),
        "carleson_q": Key("int", 8, "denominator of the fixed sampled time"),
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
    cfg: dict[str, object] = {name: key.default for name, key in schema.items()}
    for name, value in raw.items():
        if name == "experiment":
            if value != experiment:
                raise ConfigError(
                    f"config file names experiment {value!r}, running {experiment!r}"
                )
            continue
        if name not in schema:
            raise ConfigError(f"unknown key {name!r} for experiment {experiment!r}")
        cfg[name] = _parse_value(schema[name].kind, value)
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
    if cfg.get("seed") is not None and int(cfg["seed"]) < 0:
        raise ConfigError("seed must be nonnegative")
    for name in _COUNTS.get(experiment, ()):
        if int(cfg[name]) < 1:
            raise ConfigError(f"{name} must be at least 1, got {cfg[name]}")
    if experiment == "gauss":
        if int(cfg["q_max"]) < 4:
            raise ConfigError("q_max must be at least 4")
        q_min = int(cfg["perturbed_q_min"])
        if q_min < 4 or q_min % 4:
            raise ConfigError(
                f"perturbed_q_min must be a multiple of 4 and at least 4, got {q_min}"
            )
        if int(cfg["perturbed_q_max"]) < q_min:
            raise ConfigError(
                f"perturbed_q_max must be at least perturbed_q_min = {q_min},"
                f" got {cfg['perturbed_q_max']}"
            )
    if experiment in ("evolve", "claims"):
        if not 0 < float(cfg["kappa"]) < 1:
            raise ConfigError("kappa must lie in (0, 1)")
        if not 0 < Fraction(cfg["c1"]) < Fraction(cfg["c2"]) <= 1:
            raise ConfigError("need 0 < c1 < c2 <= 1")
        if experiment == "claims" and not cfg["j_list"]:
            raise ConfigError("j_list needs at least one level")
        lam = int(cfg["lam"])
        top = int(cfg["j_max"]) if experiment == "evolve" else max(cfg["j_list"]) + 2
        if lam**top > FREQ_LIMIT:
            raise ConfigError(
                f"lam^{top} exceeds the frequency limit {FREQ_LIMIT}; lower j_max/j_list or lam"
            )
    if experiment == "maximal":
        level = int(cfg["cantor_level"])
        # 2 * 3^L > 2^L, so every level past the cap's bit length is above it
        if 2 * 3 ** min(level, GRID_CAP.bit_length()) > GRID_CAP:
            raise ConfigError(
                f"cantor_level {level}: convolution grid of 2*3^{level} points above cap {GRID_CAP}"
            )
        for sweep in ("conv", "l1", "lp", "sweep"):
            lo, hi = int(cfg[f"{sweep}_exp_min"]), int(cfg[f"{sweep}_exp_max"])
            if not 1 <= lo <= hi:
                raise ConfigError(
                    f"need 1 <= {sweep}_exp_min <= {sweep}_exp_max, got {lo} and {hi}"
                )
        if int(cfg["conv_exp_max"]) - int(cfg["conv_exp_min"]) < 2:
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
    return CounterexampleParams(
        d=1,
        alpha=float(cfg["alpha"]),
        lam=int(cfg["lam"]),
        delta=float(cfg["delta"]),
        kappa=float(cfg["kappa"]),
        c1=cfg["c1"],
        c2=cfg["c2"],
    )

