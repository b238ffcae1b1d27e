"""JSON experiment configuration: parsing, validation, canonical hashing."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .core import (
    Grid,
    KfgLabError,
    KfgState,
    PhysicalUnits,
    ScalarPotential,
    SpatialProfile,
    TimeFactor,
)
from .bc import BcParams, InvalidParams, params_from_tag
from .evolution import EvolutionConfig
from .operators import SingularClosure, System, check_end_values


class ConfigError(KfgLabError):
    """Malformed or inconsistent experiment configuration."""


def load_config(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


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
            hbar=float(d.get("hbar", 1.0)),
            c=float(d.get("c", 1.0)),
            mass=float(d.get("mass", 1.0)),
            bc_length=float(d.get("lambda", d.get("bc_length", 1.0))),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad units section: {exc}") from exc


def grid_from_config(cfg: dict) -> Grid:
    d = cfg.get("grid")
    if d is None:
        raise ConfigError("config is missing the grid section")
    _known_keys(d, "grid", "a b n")
    try:
        return Grid(a=float(d["a"]), b=float(d["b"]), n=_count(d["n"], "grid.n"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid section: {exc}") from exc


def _numbers(d: dict) -> dict:
    """A profile or time-factor dict as keyword arguments: the kind as given,
    a tabulated profile's values as a tuple of floats, the rest as floats."""
    return {
        key: val if key == "kind" else tuple(map(float, val)) if key == "values" else float(val)
        for key, val in d.items()
    }


def potential_from_config(cfg: dict) -> ScalarPotential:
    d = cfg.get("potential")
    if d is None:
        return ScalarPotential()
    _known_keys(d, "potential", "profile time_factor nonneg")
    try:
        return ScalarPotential(
            profile=SpatialProfile(**_numbers(d.get("profile", {}))),
            time_factor=TimeFactor(**_numbers(d.get("time_factor", {}))),
            nonneg=bool(d.get("nonneg", False)),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential section: {exc}") from exc


def bc_from_config(cfg: dict, units: PhysicalUnits) -> BcParams:
    d = cfg.get("bc")
    if d is None:
        raise ConfigError("config is missing the bc section")
    try:
        if isinstance(d, str):
            return params_from_tag(d, lam=units.bc_length)
        _known_keys(d, "bc", "m0 m1 m2 m3 mu lambda")
        return BcParams(
            m0=float(d["m0"]),
            m1=float(d["m1"]),
            m2=float(d["m2"]),
            m3=float(d["m3"]),
            mu=float(d["mu"]),
            lam=float(d.get("lambda", units.bc_length)),
        )
    except (KeyError, TypeError, ValueError, InvalidParams) as exc:
        raise ConfigError(f"bad bc section: {exc}") from exc


def system_from_config(cfg: dict) -> System:
    """The configured system.  A closure that identifies the end values
    (periodic, say) needs a profile with S(a) = S(b), at every time, so a
    profile with different end values is a configuration error."""
    units = units_from_config(cfg)
    grid = grid_from_config(cfg)
    potential = potential_from_config(cfg)
    bc = bc_from_config(cfg, units)
    system = System(grid=grid, bc=bc, potential=potential, units=units)
    try:
        check_end_values(system.closure, potential.profile.sample(grid.x))
    except SingularClosure as exc:
        raise ConfigError(f"bc {cfg['bc']!r} with this potential profile: {exc}") from exc
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
    kind = majorana_from_config(cfg) or "none"
    if kind != "none" and system.closure.is_complex:
        raise ConfigError(
            "a strictly neutral run is incompatible with a complex (m2 != 0) "
            "boundary condition"
        )
    t0 = float(cfg.get("t0", 0.0))
    if "modes" in d:
        try:
            for m in d["modes"]:
                _known_keys(m, "initial_state mode", "index amplitude phase")
            coeffs = [
                (
                    _count(m["index"], "mode index"),
                    float(m.get("amplitude", 1.0)),
                    float(m.get("phase", 0.0)),
                )
                for m in d["modes"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad mode list: {exc}") from exc
        return system.frozen(t0).synthesize(coeffs, t=t0, kind=kind)
    if "tabulated" in d:
        td = d["tabulated"]
        _known_keys(td, "initial_state tabulated", "psi_re psi_im psi_t_re psi_t_im")
        try:
            n = system.grid.n
            psi = np.asarray(td["psi_re"], dtype=float) + 1j * np.asarray(
                td.get("psi_im", np.zeros(n)), dtype=float
            )
            psi_t = np.asarray(td.get("psi_t_re", np.zeros(n)), dtype=float) + 1j * np.asarray(
                td.get("psi_t_im", np.zeros(n)), dtype=float
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad tabulated state: {exc}") from exc
        if len(psi) != n or len(psi_t) != n:
            raise ConfigError("tabulated state length must match the grid")
        return KfgState(psi=psi, psi_t=psi_t, t=t0)
    raise ConfigError("initial_state must contain 'modes' or 'tabulated'")


def evolution_from_config(cfg: dict) -> EvolutionConfig:
    d = cfg.get("evolution")
    if d is None:
        raise ConfigError("config is missing the evolution section")
    _known_keys(d, "evolution", "dt steps record_every scheme")
    if d.get("scheme", "cayley") != "cayley":
        raise ConfigError(f"evolution.scheme must be 'cayley', got {d['scheme']!r}")
    try:
        return EvolutionConfig(
            dt=float(d["dt"]),
            steps=_count(d["steps"], "evolution.steps"),
            record_every=_count(d.get("record_every", 1), "evolution.record_every"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad evolution section: {exc}") from exc
