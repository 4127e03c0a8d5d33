"""Batch experiment driver: configs, orchestration, reports.

Configs are flat dotted-key text, one ``key = value`` per line with
``#`` comments.  Parsing materializes defaults, so rendering a parsed
config reproduces an equivalent normalized document.

A run writes three files into the output directory: a JSON summary
whose bytes depend only on the config (keys sorted, floats via repr,
no timestamps), a CSV sample table at 17 significant digits, and a
``.meta.json`` sidecar holding the wall-clock data that must stay out
of the deterministic report.  Samples are computed in parallel across
a thread pool and collected in submission order; every file write
happens single-threaded after the compute phase.
"""
from __future__ import annotations

import json
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .birman_schwinger import classify, make_potential, resonance_tune
from .decayfit import fit_decay
from .errors import ConfigError
from .kernels import PLUS, expansion_partial_sum, free_resolvent
from .partial_waves import build_grid
from .propagator import (
    CorrectionCache,
    Geometry,
    _free_kernel_result,
    evolution_kernel,
    weighted_norm,
    weighted_operator,
)
from .spectral_map import eta_of_lambda

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "RunReport",
    "parse_config",
    "render_config",
    "run",
]

EXPERIMENTS = (
    "classify",
    "free-decay",
    "perturbed-decay",
    "resolvent-bounds",
    "expansion-check",
    "resonance-tune",
)

# key -> (type tag, default, required); None default means "absent unless given"
_COMMON = {
    "experiment.name": ("str", None, True),
    "output.json": ("str", "report.json", False),
    "output.csv": ("str", "samples.csv", False),
    "output.meta": ("str", "report.meta.json", False),
}
_GRID = {
    "grid.count": ("int", 64, False),
    "grid.r_max": ("float", None, False),
    "grid.ell_max": ("int", 2, False),
}
_POTENTIAL = {
    "potential.profile": ("str", None, True),
    "potential.coupling": ("float", None, True),
    "potential.beta": ("float", None, False),
}
_POTENTIAL_OPTIONAL = {key: (typ, default, False) for key, (typ, default, _) in _POTENTIAL.items()}

_SCHEMAS = {
    "classify": {
        **_COMMON,
        **_GRID,
        **_POTENTIAL,
        "expect.verdict": ("str", None, False),
    },
    "free-decay": {
        **_COMMON,
        "window.t_lo": ("float", None, True),
        "window.t_hi": ("float", None, True),
        "window.samples": ("int", None, True),
        # the kernel's sup over geometry sits at small separation for
        # every t; large r only raises the oscillation cut (and cost)
        "rgrid.count": ("int", 20, False),
        "rgrid.r_max": ("float", 3.0, False),
        "tolerance.kernel": ("float", 1e-6, False),
        "expect.exponent": ("float", None, False),
        "expect.band": ("float", 0.15, False),
    },
    "perturbed-decay": {
        **_COMMON,
        **_GRID,
        **_POTENTIAL,
        "window.t_lo": ("float", None, True),
        "window.t_hi": ("float", None, True),
        "window.samples": ("int", None, True),
        "geometry.r": ("float", None, True),
        "geometry.r_prime": ("float", None, True),
        "geometry.cos_gamma": ("float", None, True),
        "evolution.subtract": ("str", "auto", False),
        "tolerance.kernel": ("float", 1e-8, False),
        "expect.raw_exponent": ("float", None, False),
        "expect.subtracted_exponent": ("float", None, False),
        "expect.band": ("float", 0.2, False),
    },
    "resolvent-bounds": {
        **_COMMON,
        **_GRID,
        **_POTENTIAL_OPTIONAL,
        "window.lambda_lo": ("float", None, False),
        "window.lambda_hi": ("float", None, False),
        "window.eta_lo": ("float", None, False),
        "window.eta_hi": ("float", None, False),
        "window.samples": ("int", None, True),
        "weight.s": ("float", 2.0, False),
        "weight.s_prime": ("float", 2.0, False),
        "resolvent.order": ("int", 0, False),
        "expect.exponent": ("float", None, False),
        "expect.band": ("float", 0.2, False),
    },
    "expansion-check": {
        **_COMMON,
        "window.eta_lo": ("float", None, True),
        "window.eta_hi": ("float", None, True),
        "window.samples": ("int", None, True),
        "expansion.order": ("int", 4, False),
        "geometry.r": ("float", 1.0, False),
        "expect.exponent": ("float", None, False),
        "expect.band": ("float", 0.1, False),
    },
    "resonance-tune": {
        **_COMMON,
        **_GRID,
        "potential.profile": ("str", None, True),
        "potential.beta": ("float", None, False),
        "bracket.lo": ("float", None, True),
        "bracket.hi": ("float", None, True),
        "tune.sector": ("int", 0, False),
        "expect.verdict": ("str", None, False),
    },
}

_PROFILES = ("gaussian", "exponential", "polynomial")


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed, normalized experiment description."""

    experiment: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)


def _coerce(key: str, text: str, tag: str):
    try:
        if tag == "int":
            return int(text)
        if tag == "float":
            return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {tag}, got {text!r}") from None
    return text


def _window(values: dict, prefix: str) -> tuple[float, float]:
    lo, hi = values[f"window.{prefix}_lo"], values[f"window.{prefix}_hi"]
    if not (0.0 < lo < hi):
        raise ConfigError(f"window.{prefix}_* must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    return lo, hi


def _validate(name: str, values: dict) -> None:
    profile = values.get("potential.profile")
    if profile is not None:
        if profile not in _PROFILES:
            raise ConfigError(f"potential.profile must be one of {_PROFILES}, got {profile!r}")
        if profile == "polynomial" and "potential.beta" not in values:
            raise ConfigError("polynomial profile requires potential.beta")
    if name == "resolvent-bounds":
        has_coupling = "potential.coupling" in values
        if has_coupling != (profile is not None):
            raise ConfigError("potential.profile and potential.coupling go together")
        in_lambda = "window.lambda_lo" in values or "window.lambda_hi" in values
        in_eta = "window.eta_lo" in values or "window.eta_hi" in values
        if in_lambda == in_eta:
            raise ConfigError("give exactly one of window.lambda_* or window.eta_*")
        _window(values, "lambda" if in_lambda else "eta")
        if values["resolvent.order"] not in (0, 1):
            raise ConfigError("resolvent.order must be 0 or 1")
        if values["resolvent.order"] == 1 and not in_lambda:
            raise ConfigError("resolvent.order = 1 differentiates in lambda; use window.lambda_*")
    elif name in ("free-decay", "perturbed-decay"):
        _window(values, "t")
    elif name == "expansion-check":
        _window(values, "eta")
        if not 0 <= values["expansion.order"] <= 4:
            raise ConfigError("expansion.order must be in 0..4")
    elif name == "resonance-tune":
        lo, hi = values["bracket.lo"], values["bracket.hi"]
        if not (0.0 < lo < hi):
            raise ConfigError(f"bracket must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    for key in ("grid.ell_max", "tune.sector"):
        if values.get(key, 0) < 0:
            raise ConfigError(f"{key} must be >= 0, got {values[key]}")
    if "window.samples" in values and values["window.samples"] < 5:
        raise ConfigError("window.samples must be at least 5 (decay fits need 5 points)")
    if "evolution.subtract" in values and values["evolution.subtract"] not in ("auto", "none"):
        raise ConfigError("evolution.subtract must be 'auto' or 'none'")
    if "expect.subtracted_exponent" in values and values.get("evolution.subtract") == "none":
        raise ConfigError("expect.subtracted_exponent needs evolution.subtract = auto")


def parse_config(text: str) -> ExperimentConfig:
    """Parse dotted-key config text into a validated ExperimentConfig."""
    pairs = {}
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"line {n}: expected 'key = value', got {raw.strip()!r}")
        if key in pairs:
            raise ConfigError(f"line {n}: duplicate key {key!r}")
        pairs[key] = val

    name = pairs.get("experiment.name")
    if name is None:
        raise ConfigError("missing experiment.name")
    if name not in _SCHEMAS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {sorted(_SCHEMAS)}")
    schema = _SCHEMAS[name]

    values = {}
    for key, sval in pairs.items():
        if key not in schema:
            raise ConfigError(f"{key!r} is not a key for experiment {name}")
        values[key] = _coerce(key, sval, schema[key][0]) if key != "experiment.name" else sval
    for key, (_, default, required) in schema.items():
        if key in values:
            continue
        if required:
            raise ConfigError(f"experiment {name} requires {key}")
        if default is not None:
            values[key] = default
    _validate(name, values)
    return ExperimentConfig(name, values)


def _render_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_config(config: ExperimentConfig) -> str:
    """Normalized config document; parse(render(c)) == c."""
    lines = [f"{key} = {_render_value(config.values[key])}" for key in sorted(config.values)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunReport:
    """One experiment's results plus the paths its files landed at."""

    experiment: str
    config_echo: dict
    verdict: str | None
    fits: list
    assertions: list
    versions: dict
    csv_header: tuple
    csv_rows: list
    paths: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(a["pass"] for a in self.assertions)

    def json_bytes(self) -> bytes:
        doc = {
            "experiment": self.experiment,
            "config_echo": self.config_echo,
            "fits": self.fits,
            "assertions": self.assertions,
            "versions": self.versions,
        }
        if self.verdict is not None:
            doc["verdict"] = self.verdict
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _versions() -> dict:
    from . import __version__

    return {
        "fourthorder": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _timed(phases: dict, name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with its wall time in seconds recorded as phases[name]."""
    started = time.monotonic()
    result = fn(*args, **kwargs)
    phases[name] = time.monotonic() - started
    return result


def _parallel_map(fn, items, threads: int) -> list:
    # pool.map preserves submission order, so results (hence files) do
    # not depend on scheduling
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _format_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# extent fallback when there is no potential whose decay rate could
# pick one; matches the beta = 16 envelope default
_FREE_R_MAX = 9.0


def _grid_of(config: ExperimentConfig, potential=None):
    r_max = config.get("grid.r_max")
    if r_max is not None:
        return build_grid(config["grid.count"], r_max=r_max)
    if potential is not None:
        return build_grid(config["grid.count"], beta=potential.beta)
    return build_grid(config["grid.count"], r_max=_FREE_R_MAX)


def _potential_of(config: ExperimentConfig):
    return make_potential(
        config["potential.profile"],
        config["potential.coupling"],
        beta=config.get("potential.beta"),
    )


def _fit_assertion(name: str, fit_dict: dict, target: float, band: float) -> dict:
    ok = fit_dict["reliable"] and abs(fit_dict["exponent"] - target) <= band
    lo, hi = fit_dict["window"]
    detail = (
        f"exponent {fit_dict['exponent']:.4f} vs {target:g} +/- {band:g}, "
        f"residual {fit_dict['residual']:.4f}, window [{lo:g}, {hi:g}]"
    )
    return {"name": name, "pass": bool(ok), "detail": detail}


def _exponent_assertions(config: ExperimentConfig, fits: list, keyed: bool = False) -> list:
    """<label>-exponent checks against expect.exponent, or expect.<label>_exponent if keyed."""
    out = []
    for fit in fits:
        key = f"expect.{fit['label']}_exponent" if keyed else "expect.exponent"
        if config.get(key) is not None:
            out.append(_fit_assertion(f"{fit['label']}-exponent", fit, config[key], config["expect.band"]))
    return out


def _verdict_assertion(verdict: str, expected: str) -> dict:
    return {
        "name": "verdict",
        "pass": verdict == expected,
        "detail": f"classified {verdict!r}, expected {expected!r}",
    }


def _labeled(fit, label: str) -> dict:
    d = fit.to_dict()
    d["label"] = label
    return d


def _run_classify(config: ExperimentConfig, threads: int, phases: dict):
    potential = _potential_of(config)
    grid = _grid_of(config, potential)
    cls = classify(potential, grid, ell_max=config["grid.ell_max"])
    rows = []
    for stage in ("T0", "T1", "T2"):
        for ell in sorted(cls.singular_values[stage]):
            for k, sv in enumerate(cls.singular_values[stage][ell]):
                rows.append((stage, ell, k, float(sv)))
    assertions = []
    expected = config.get("expect.verdict")
    if expected is not None:
        assertions.append(_verdict_assertion(cls.verdict, expected))
    return cls.verdict, [], assertions, ("stage", "sector", "index", "singular_value"), rows


def _run_free_decay(config: ExperimentConfig, threads: int, phases: dict):
    t_lo, t_hi = _window(config.values, "t")
    ts = np.geomspace(t_lo, t_hi, config["window.samples"])
    radii = np.linspace(0.0, config["rgrid.r_max"], config["rgrid.count"])
    tol = config["tolerance.kernel"]

    def one(t: float):
        return [_free_kernel_result(t, float(r), tol) for r in radii]

    per_t = _timed(phases, "samples", _parallel_map, one, [float(t) for t in ts], threads)
    rows, sups = [], []
    for t, results in zip(ts, per_t):
        sups.append(max(abs(q.value) for q in results))
        for r, q in zip(radii, results):
            v = q.value
            rows.append((float(t), float(r), 0.0, 1.0, v.real, v.imag, abs(v), 0.0, q.error))
    fits = [_labeled(fit_decay(np.column_stack([ts, sups])), "sup")]
    assertions = _exponent_assertions(config, fits)
    header = ("t", "r", "r_prime", "cos_gamma", "re", "im", "abs", "correction", "est_error")
    return None, fits, assertions, header, rows


def _run_perturbed_decay(config: ExperimentConfig, threads: int, phases: dict):
    potential = _potential_of(config)
    grid = _grid_of(config, potential)
    cls = _timed(phases, "classify", classify, potential, grid, ell_max=config["grid.ell_max"])
    geometry = Geometry(
        config["geometry.r"], config["geometry.r_prime"], config["geometry.cos_gamma"]
    )
    # the eta-grid cache (and its M inverses) is built once, before the
    # parallel phase; evolution_kernel only reads it
    cache = _timed(phases, "cache", CorrectionCache, potential, grid, cls, [geometry], ell_max=config["grid.ell_max"])
    t_lo, t_hi = _window(config.values, "t")
    ts = np.geomspace(t_lo, t_hi, config["window.samples"])
    subtract = config["evolution.subtract"]
    tol = config["tolerance.kernel"]

    def one(t: float):
        return evolution_kernel(t, geometry, cache, subtract=subtract, tol=tol)

    samples = _timed(phases, "samples", _parallel_map, one, [float(t) for t in ts], threads)
    where = (geometry.r, geometry.r_prime, geometry.cos_gamma)
    rows = [
        (s.t, *where, s.value.real, s.value.imag, abs(s.value), abs(s.correction), s.est_error)
        for s in samples
    ]
    raw = np.array([abs(s.value + s.correction) for s in samples])
    fits = [_labeled(fit_decay(np.column_stack([ts, raw])), "raw")]
    if subtract == "auto":
        subtracted = np.array([abs(s.value) for s in samples])
        fits.append(_labeled(fit_decay(np.column_stack([ts, subtracted])), "subtracted"))
    assertions = _exponent_assertions(config, fits, keyed=True)
    header = ("t", "r", "r_prime", "cos_gamma", "re", "im", "abs", "correction", "est_error")
    return cls.verdict, fits, assertions, header, rows


def _run_resolvent_bounds(config: ExperimentConfig, threads: int, phases: dict):
    verdict = None
    if config.get("potential.profile") is not None:
        potential = _potential_of(config)
        grid = _grid_of(config, potential)
        cls = classify(potential, grid, ell_max=config["grid.ell_max"])
        verdict = cls.verdict
    else:
        potential, cls = None, None
        grid = _grid_of(config)
    in_lambda = "window.lambda_lo" in config.values
    variable = "lambda" if in_lambda else "eta"
    lo, hi = _window(config.values, variable)
    xs = np.geomspace(lo, hi, config["window.samples"])
    s, s_prime = config["weight.s"], config["weight.s_prime"]
    ell_max = config["grid.ell_max"]

    if config["resolvent.order"] == 0:

        def one(x: float) -> float:
            return weighted_norm(
                PLUS, x, potential, grid, s=s, s_prime=s_prime,
                ell_max=ell_max, variable=variable, classification=cls,
            )

    else:
        # centered difference in lambda at the sector-matrix level; the
        # relative step keeps the truncation error scale-free across the
        # window
        def one(x: float) -> float:
            h = 1e-3 * x
            best = 0.0
            for ell in range(ell_max + 1):
                upper = weighted_operator(
                    PLUS, eta_of_lambda(x + h), potential, grid, s, s_prime, ell, cls
                )
                lower = weighted_operator(
                    PLUS, eta_of_lambda(x - h), potential, grid, s, s_prime, ell, cls
                )
                best = max(best, float(np.linalg.norm((upper - lower) / (2.0 * h), 2)))
            return best

    norms = _parallel_map(one, [float(x) for x in xs], threads)
    rows = [(float(x), float(n)) for x, n in zip(xs, norms)]
    fits = [_labeled(fit_decay(np.column_stack([xs, norms])), "norm")]
    return verdict, fits, _exponent_assertions(config, fits), (variable, "norm"), rows


def _run_expansion_check(config: ExperimentConfig, threads: int, phases: dict):
    lo, hi = _window(config.values, "eta")
    etas = np.geomspace(lo, hi, config["window.samples"])
    r = config["geometry.r"]
    order = config["expansion.order"]

    def one(eta: float) -> float:
        exact = free_resolvent(PLUS, eta, r)
        return float(abs(exact - expansion_partial_sum(PLUS, eta, r, order)))

    remainders = _parallel_map(one, [float(e) for e in etas], threads)
    rows = [(float(e), float(rem)) for e, rem in zip(etas, remainders)]
    fits = [_labeled(fit_decay(np.column_stack([etas, remainders])), "remainder")]
    return None, fits, _exponent_assertions(config, fits), ("eta", "remainder"), rows


def _run_resonance_tune(config: ExperimentConfig, threads: int, phases: dict):
    profile = config["potential.profile"]
    beta = config.get("potential.beta")

    def family(coupling: float):
        return make_potential(profile, -coupling, beta=beta)

    grid = _grid_of(config, family(config["bracket.lo"]))
    result = resonance_tune(
        family, config["tune.sector"], grid, (config["bracket.lo"], config["bracket.hi"])
    )
    cls = classify(family(result.coupling), grid, ell_max=config["grid.ell_max"])
    rows = [(result.coupling, result.eigenvalue, result.iterations)]
    assertions = [
        {
            "name": "tuned-coupling",
            "pass": True,
            "detail": f"coupling {result.coupling:.17g} after {result.iterations} bisections",
        }
    ]
    expected = config.get("expect.verdict")
    if expected is not None:
        assertions.append(_verdict_assertion(cls.verdict, expected))
    return cls.verdict, [], assertions, ("coupling", "eigenvalue", "iterations"), rows


_RUNNERS = {
    "classify": _run_classify,
    "free-decay": _run_free_decay,
    "perturbed-decay": _run_perturbed_decay,
    "resolvent-bounds": _run_resolvent_bounds,
    "expansion-check": _run_expansion_check,
    "resonance-tune": _run_resonance_tune,
}


def run(config: ExperimentConfig, out_dir, threads: int = 1) -> RunReport:
    """Execute the configured experiment and write its report files."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    started, phases = time.monotonic(), {}
    verdict, fits, assertions, header, rows = _RUNNERS[config.experiment](config, threads, phases)
    elapsed = time.monotonic() - started

    report = RunReport(
        experiment=config.experiment,
        config_echo=dict(sorted(config.values.items())),
        verdict=verdict,
        fits=fits,
        assertions=assertions,
        versions=_versions(),
        csv_header=header,
        csv_rows=rows,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / config["output.json"]
    csv_path = out / config["output.csv"]
    meta_path = out / config["output.meta"]
    writing = time.monotonic()
    json_path.write_bytes(report.json_bytes())
    csv_lines = [",".join(header)]
    csv_lines += [",".join(_format_cell(c) for c in row) for row in rows]
    csv_path.write_text("\n".join(csv_lines) + "\n")
    phases["write"] = time.monotonic() - writing
    meta = {
        "elapsed_seconds": elapsed,
        "phase_seconds": phases,
        "threads": threads,
        "written_utc": datetime.now(timezone.utc).isoformat(),
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    report.paths.update(json=str(json_path), csv=str(csv_path), meta=str(meta_path))
    return report
