"""JSON experiment configuration: parsing, validation, canonical hashing."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .core import (
    Grid,
    InvalidPotential,
    KfgLabError,
    KfgState,
    PhysicalUnits,
    ScalarPotential,
    SpatialProfile,
    TimeFactor,
)
from .bc import BcParams, InvalidParams, params_from_tag
from .evolution import EvolutionConfig, step_scales
from .operators import InvalidMode, SingularClosure, System


class ConfigError(KfgLabError):
    """Malformed or inconsistent experiment configuration."""


def load_config(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(cfg).__name__}")
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _count(value, name: str) -> int:
    """An integral JSON number; int() would truncate 64.7 and take true as 1."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite(value, name: str) -> float:
    """A finite JSON number as a float; float() would take true as 1 and
    "0" as 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    # false for NaN, infinities and integers beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value}")
    return float(value)


def _finite_array(values: list, name: str) -> np.ndarray:
    """`_finite` of every value, as a float array: one conversion and one
    isfinite when every value is exactly an int or a float, else (or when
    one is not finite) the checks one by one, for the same message."""
    if {type(v) for v in values} <= {int, float}:
        try:
            array = np.array(values, dtype=float)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(array).all():
                return array
    return np.array([_finite(v, name) for v in values])


def _known_keys(d, section: str, keys: str) -> None:
    """The config section d; a key outside `keys` (a misspelt option such as
    `record_evry`) is a configuration error rather than silently ignored."""
    if not isinstance(d, dict):
        raise ConfigError(f"the {section} section must be an object, got {d!r}")
    unknown = sorted(set(d) - set(keys.split()))
    if unknown:
        raise ConfigError(f"unknown key(s) in the {section} section: {', '.join(unknown)}")


def units_from_config(cfg: dict) -> PhysicalUnits:
    d = cfg.get("units", {})
    _known_keys(d, "units", "hbar c mass lambda bc_length")
    try:
        return PhysicalUnits(
            **{key: _finite(d.get(key, 1.0), f"units.{key}") for key in ("hbar", "c", "mass")})
    except ValueError as exc:
        raise ConfigError(f"bad units section: {exc}") from exc


def grid_from_config(cfg: dict) -> Grid:
    d = cfg.get("grid")
    if d is None:
        raise ConfigError("config is missing the grid section")
    _known_keys(d, "grid", "a b n")
    try:
        return Grid(a=_finite(d["a"], "grid.a"), b=_finite(d["b"], "grid.b"),
                    n=_count(d["n"], "grid.n"))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad grid section: {exc}") from exc


def _numbers(d: dict, section: str) -> dict:
    """A profile or time-factor dict as keyword arguments: the kind as given,
    a tabulated profile's values as a tuple of floats, the rest as floats,
    each finite."""
    out = {}
    for key, val in d.items():
        name = f"potential {section}.{key}"
        if key == "values":
            val = tuple(_finite(v, name) for v in val)
        elif key != "kind":
            val = _finite(val, name)
        out[key] = val
    return out


def potential_from_config(cfg: dict) -> ScalarPotential:
    d = cfg.get("potential")
    if d is None:
        return ScalarPotential()
    _known_keys(d, "potential", "profile time_factor nonneg")
    nonneg = d.get("nonneg", False)
    if not isinstance(nonneg, bool):
        raise ConfigError(f"potential.nonneg must be true or false, got {nonneg!r}")
    try:
        return ScalarPotential(
            profile=SpatialProfile(**_numbers(d.get("profile", {}), "profile")),
            time_factor=TimeFactor(**_numbers(d.get("time_factor", {}), "time_factor")),
            nonneg=nonneg,
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential section: {exc}") from exc


def bc_from_config(cfg: dict) -> BcParams:
    """The boundary condition; lambda defaults to the units section's
    `lambda`, or `bc_length`, its other spelling."""
    d = cfg.get("bc")
    if d is None:
        raise ConfigError("config is missing the bc section")
    units = cfg.get("units", {})
    if "lambda" in units and "bc_length" in units:
        raise ConfigError("the units section gives both lambda and bc_length; give one")
    key = "bc_length" if "bc_length" in units else "lambda"
    lam = _finite(units.get(key, 1.0), f"units.{key}")
    if not lam > 0.0:
        raise ConfigError(f"bad units section: units.{key} must be positive, got {lam}")
    try:
        if isinstance(d, str):
            return params_from_tag(d, lam=lam)
        _known_keys(d, "bc", "m0 m1 m2 m3 mu lambda")
        return BcParams(
            **{key: _finite(d[key], f"bc.{key}") for key in ("m0", "m1", "m2", "m3", "mu")},
            lam=_finite(d.get("lambda", lam), "bc.lambda"),
        )
    except (KeyError, TypeError, ValueError, InvalidParams) as exc:
        raise ConfigError(f"bad bc section: {exc}") from exc


def t0_from_config(cfg: dict) -> float:
    """The run's start time, at which modes and the spectrum are taken."""
    return _finite(cfg.get("t0", 0.0), "t0")


def system_from_config(cfg: dict, evolution: EvolutionConfig | None = None) -> System:
    """The configured system.  Over the run's times [t0, t0 + steps dt]
    (t0 alone without an evolution section) a `nonneg` potential with
    min S < -1e-14, an end-identifying closure (periodic, say) with
    S(a, t) != S(b, t), and a tabulated profile not of the grid's length
    are configuration errors, checked at the factor's extremes there.
    `evolution` is the config's evolution section, parsed here if not
    given.  A top-level object under a name that is no section (a misspelt
    `potental`, say) and units and a grid whose kinetic scale
    4 (hbar c / dx)^2 leaves the float range are configuration errors;
    scalar annotations pass."""
    sections = "units grid potential bc majorana initial_state evolution t0 seed".split()
    unknown = sorted(key for key, value in cfg.items()
                     if isinstance(value, dict) and key not in sections)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    units = units_from_config(cfg)
    grid = grid_from_config(cfg)
    potential = potential_from_config(cfg)
    bc = bc_from_config(cfg)
    t0 = t1 = t0_from_config(cfg)
    if evolution is None and "evolution" in cfg:
        evolution = evolution_from_config(cfg)
    if evolution is not None:
        t1 = t0 + evolution.steps * evolution.dt
    # each section is in range on its own, but K's second difference reaches
    # 4 (hbar c / dx)^2, the top of the free spectrum
    if not 4.0 * (units.hbar * units.c) ** 2 / grid.dx**2 <= sys.float_info.max:
        raise ConfigError("the units and grid sections give 4 (hbar c / dx)^2 past the float "
                          f"range: hbar = {units.hbar}, c = {units.c}, dx = {grid.dx}")
    system = System(grid=grid, bc=bc, potential=potential, units=units)
    factor = potential.time_factor
    try:
        for t in factor.extreme_times(t0, t1):
            system.potential_diagonal.check(factor.value(t), t)
    except InvalidPotential as exc:
        raise ConfigError(f"bad potential: {exc}") from exc
    except SingularClosure as exc:
        raise ConfigError(f"bc {cfg['bc']!r} with this potential: {exc}") from exc
    return system


def majorana_from_config(cfg: dict) -> str | None:
    kind = cfg.get("majorana", "none")
    if kind in (None, "none"):
        return None
    if kind in ("plus", "minus"):
        return kind
    raise ConfigError(f"majorana must be plus, minus or none, got {kind!r}")


def initial_state_from_config(cfg: dict, system: System) -> KfgState:
    d = cfg.get("initial_state")
    if d is None:
        raise ConfigError("config is missing the initial_state section")
    _known_keys(d, "initial_state", "modes tabulated")
    kind = majorana_from_config(cfg) or "none"
    if kind != "none" and system.closure.is_complex:
        raise ConfigError(
            "a strictly neutral run is incompatible with a complex boundary "
            "condition (|m2| > ALG_TOL)"
        )
    t0 = t0_from_config(cfg)
    if "modes" in d and "tabulated" in d:
        raise ConfigError("initial_state gives both modes and tabulated; give one")
    if "modes" in d:
        if not d["modes"]:
            raise ConfigError("bad mode list: it names no mode")
        try:
            for m in d["modes"]:
                _known_keys(m, "initial_state mode", "index amplitude phase")
            coeffs = [
                (
                    _count(m["index"], "mode index"),
                    _finite(m.get("amplitude", 1.0), "mode amplitude"),
                    _finite(m.get("phase", 0.0), "mode phase"),
                )
                for m in d["modes"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad mode list: {exc}") from exc
        try:
            return system.synthesize(coeffs, t=t0, kind=kind)
        except InvalidMode as exc:
            raise ConfigError(f"bad mode list: {exc}") from exc
    if "tabulated" in d:
        td = d["tabulated"]
        _known_keys(td, "initial_state tabulated", "psi_re psi_im psi_t_re psi_t_im")
        if "psi_re" not in td:
            raise ConfigError("bad tabulated state: it gives no psi_re")
        n = system.grid.n
        parts = []
        for key in ("psi_re", "psi_im", "psi_t_re", "psi_t_im"):
            values = td.get(key, [0.0] * n)
            if not isinstance(values, list) or len(values) != n:
                raise ConfigError(f"tabulated state {key} needs one number per grid point ({n})")
            parts.append(_finite_array(values, f"tabulated state {key}"))
        re, im, t_re, t_im = parts
        return KfgState(psi=re + 1j * im, psi_t=t_re + 1j * t_im, t=t0)
    raise ConfigError("initial_state must contain 'modes' or 'tabulated'")


def evolution_from_config(cfg: dict) -> EvolutionConfig:
    d = cfg.get("evolution")
    if d is None:
        raise ConfigError("config is missing the evolution section")
    _known_keys(d, "evolution", "dt steps record_every scheme")
    if d.get("scheme", "cayley") != "cayley":
        raise ConfigError(f"evolution.scheme must be 'cayley', got {d['scheme']!r}")
    try:
        evolution = EvolutionConfig(
            dt=_finite(d["dt"], "evolution.dt"),
            steps=_count(d["steps"], "evolution.steps"),
            record_every=_count(d.get("record_every", 1), "evolution.record_every"),
        )
        step_scales(evolution.dt, units_from_config(cfg).hbar)
        return evolution
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad evolution section: {exc}") from exc
