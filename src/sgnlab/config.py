"""Flat INI-style configuration files, one section per module.

Example::

    [params]
    g = 9.81
    gamma = 9.81
    hbar = 1.0
    epsilon = 0.0

    [grid]
    n = 1024
    length = 40.0
    x_left = -20.0
    mode = periodic

    [scenario]
    kind = gaussian
    amplitude = 0.05
    width = 1.0

    [step]
    cfl = 0.3
    t_end = 5.0
    output_dt = 0.5

    [checks]
    energy = true

``_SCHEMA`` is the format's one declaration: section -> key -> (the part of
:class:`ScenarioConfig` it sets, the field, its parser).  Validation,
parsing and the echo all walk it.  A key left out (or left blank) takes the
dataclass's own default; no default is restated here.  Four things are
written by hand: ``[grid] length`` as the alternative to ``dx``; the check
switches, which become ``ScenarioConfig.checks``; blow-up thresholds, built
from the threshold keys given (``ScenarioConfig`` decides whether the
monitor runs); and the comparison box, which needs all four ``box_*`` keys
or none.

Unknown sections or keys are rejected, and so are non-integer values of
integer keys (configuration typos must not silently change a run).
``--override section.key=value`` entries are applied before parsing.  The
echo written into every artifact contains every key with its effective
value, so an echo alone reproduces the run.
"""

from __future__ import annotations

import configparser
import io
from collections import defaultdict

from .diagnostics import Box
from .dynamics import BlowupThresholds, StepControl
from .errors import ConfigError
from .grid import Grid
from .kinematics import Params
from .scenarios import CHECKS, ScenarioConfig

__all__ = ["parse_config", "parse_config_text", "config_echo"]


def _float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key} = {raw!r} is not a number") from exc


def _int(key: str, raw: str) -> int:
    value = _float(key, raw)
    if not value.is_integer():
        raise ConfigError(f"key {key} = {raw!r} is not an integer")
    return int(value)


def _floats(key: str, raw: str) -> tuple[float, ...]:
    tokens = [tok for tok in raw.replace(" ", "").split(",") if tok]
    if not tokens:
        raise ConfigError(f"{key} = {raw!r} is not a number list")
    return tuple(_float(key, tok) for tok in tokens)


def _bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key} = {raw!r} is not a boolean")


def _str(key: str, raw: str) -> str:
    return raw


# Parts: an attribute of ScenarioConfig ("params", "grid", "step", "blowup",
# "box"), "" for ScenarioConfig's own fields, "checks" for the check switches
# and None for [grid] length (the echo states dx instead).  Keys are in echo order.
_SCHEMA = {
    "params": {key: ("params", key, _float) for key in ("g", "gamma", "hbar", "epsilon")},
    "grid": {
        "n": ("grid", "n", _int),
        "dx": ("grid", "dx", _float),
        "length": (None, "length", _float),
        "x_left": ("grid", "x_left", _float),
        "mode": ("grid", "mode", _str),
    },
    "scenario": {
        "kind": ("", "kind", _str),
        "amplitude": ("", "amplitude", _float),
        "width": ("", "width", _float),
        "center": ("", "center", _float),
        "wavenumber": ("", "wavenumbers", _floats),
        "mollifier_epsilon": ("", "mollifier_epsilon", _float),
        "expect_blowup": ("", "expect_blowup", _bool),
        "plateau": ("", "plateau", _float),
        "target_energy": ("", "target_energy", _float),
        "file": ("", "file", _str),
    },
    "step": {
        "cfl": ("step", "cfl", _float),
        "dt_max": ("step", "dt_max", _float),
        "t_end": ("step", "t_end", _float),
        "farfield_rtol": ("step", "farfield_rtol", _float),
        "output_dt": ("step", "output_dt", _float),
        "dt_fixed": ("step", "dt_fixed", _float),
    },
    "checks": {
        **{name: ("checks", name, _bool) for name in CHECKS},
        "energy_rtol": ("", "energy_rtol", _float),
        "dispersion_rtol": ("", "dispersion_rtol", _float),
        "oleinik_c": ("", "oleinik_C", _float),
        "ux_threshold": ("blowup", "ux", _float),
        "hx_threshold": ("blowup", "hx", _float),
    },
    "sweep": {
        "box_t1": ("box", "t1", _float),
        "box_t2": ("box", "t2", _float),
        "box_a": ("box", "a", _float),
        "box_b": ("box", "b", _float),
    },
}


def _read(text: str, overrides: list[str] | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for entry in overrides or []:
        if "=" not in entry or "." not in entry.split("=", 1)[0]:
            raise ConfigError(f"override {entry!r} must look like section.key=value")
        target, value = entry.split("=", 1)
        section, key = (part.strip() for part in target.split(".", 1))
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key] = value.strip()
    return cp


def parse_config_text(text: str, overrides: list[str] | None = None) -> ScenarioConfig:
    cp = _read(text, overrides)
    given: dict = defaultdict(dict)  # part -> field -> parsed value
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        table = _SCHEMA[section]
        unknown = set(cp[section]) - set(table)
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        for key, raw in cp[section].items():
            if raw:  # configparser strips values; a blank one takes the default
                part, name, parse = table[key]
                given[part][name] = parse(key, raw)

    if not cp.has_section("grid"):
        raise ConfigError("config needs a [grid] section")
    grid = given["grid"]
    if not grid.get("n"):
        raise ConfigError("[grid] needs n (a positive cell count)")
    length = given[None].get("length")
    if (length is None) == ("dx" not in grid):
        raise ConfigError("[grid] needs exactly one of length or dx")
    if length is not None:
        grid["dx"] = length / grid["n"]

    # a switch left out keeps its state in ScenarioConfig's default checks
    switches = given["checks"]
    checks = tuple(name for name in CHECKS if switches.get(name, name in ScenarioConfig.checks))
    blowup = BlowupThresholds(**given["blowup"]) if given["blowup"] else None
    box = None
    if given["box"]:
        if len(given["box"]) != len(Box._fields):
            raise ConfigError("[sweep] needs all four box_* keys or none")
        box = Box(**given["box"])

    return ScenarioConfig(params=Params(**given["params"]), grid=Grid(**grid),
                          step=StepControl(**given["step"]), checks=checks,
                          blowup=blowup, box=box, **given[""])


def parse_config(path: str, overrides: list[str] | None = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, overrides)


def _effective(cfg: ScenarioConfig, part: str | None, name: str):
    """The value a table entry has in ``cfg``; ``None`` is not echoed."""
    if part == "checks":
        return name in cfg.checks
    if part is None:
        return None
    owner = getattr(cfg, part) if part else cfg
    return None if owner is None else getattr(owner, name)


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    return str(value)


def config_echo(cfg: ScenarioConfig) -> str:
    """Canonical INI text with every effective value materialized."""
    cp = configparser.ConfigParser(interpolation=None)
    for section, table in _SCHEMA.items():
        if section == "sweep" and cfg.box is None:
            continue  # the default sweep: nothing to state
        values = {key: _effective(cfg, part, name) for key, (part, name, _) in table.items()}
        cp[section] = {key: _format(v) for key, v in values.items() if v is not None}
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()
