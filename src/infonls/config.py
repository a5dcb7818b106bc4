"""Experiment configuration: plain-text sectioned key-value format.

Grammar (format_version 1): lines are either ``[section]`` headers,
``key = value`` pairs, blank, or ``#`` comments. No nesting. Values are
scalars or comma-separated lists; alpha profiles use ``harmonic:amplitude``
pairs. parse/render round-trip exactly on valid configs.

``parse_config`` and ``run_sweep`` validate through ``_inputs``: the rules on
the config itself, then the command's one inputs function (``sweeps``), which
builds what the command builds. The CLI calls ``_read`` and ``_inputs``
itself and runs what they built, so it builds each input once. Rules on
values are the constructors' own; ``_built`` lands a refusal on the line of
the key its message opens with.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigParseError, ConfigValidationError, InfonlsError
from .grid import Grid, PhysConstants, _check_policy

FORMAT_VERSION = 1

COMMANDS = (
    "evolve",
    "spectrum",
    "shift-sweep",
    "eta-opt",
    "exact-verify",
    "cotangent",
    "measures",
)

POTENTIAL_KINDS = ("zero", "harmonic", "quartic")

ETA_OPT_PROFILES = ("node-excited", "gaussian-ground")

INITIAL_KINDS = ("gaussian", "plane-wave")


@dataclass
class ExperimentConfig:
    command: str
    format_version: int = FORMAT_VERSION
    # constants
    hbar: float = 1.0
    mass: float = 1.0
    # grid
    x_min: float = 0.0
    dx: float = 0.01
    n_points: int = 1024
    boundary: str = "periodic"
    # nonlinearity
    eta_values: tuple[float, ...] = ()
    L_values: tuple[float, ...] = ()
    policy: str = ""
    # potential
    potential_kind: str = "zero"
    omega: float = 1.0
    quartic_coeff: float = 1.0
    # spectrum / sweep
    n_states: int = 1
    # evolve
    dt: float = 0.0
    n_steps: int = 0
    initial_kind: str = "gaussian"
    initial_sigma: float = 1.0
    initial_center: float = 0.0
    initial_k: float = 0.0
    # eta-opt
    profile: str = "node-excited"
    L_over_a: float = 0.1
    # exact / cotangent
    kappa: float = 1.0
    alpha: tuple[tuple[int, float], ...] = ((1, 1.0),)
    node_exclusion_radius_steps: float = 3.0
    # measures
    density_sigma: float = 1.0
    # output
    directory: str = "out"


# (section, key) -> (attribute, converter tag), in the order render_config
# writes them
_SCHEMA = {
    ("run", "command"): ("command", "str"),
    ("run", "format_version"): ("format_version", "int"),
    ("constants", "hbar"): ("hbar", "float"),
    ("constants", "mass"): ("mass", "float"),
    ("grid", "x_min"): ("x_min", "float"),
    ("grid", "dx"): ("dx", "float"),
    ("grid", "n_points"): ("n_points", "int"),
    ("grid", "boundary"): ("boundary", "str"),
    ("nonlinearity", "eta"): ("eta_values", "floats"),
    ("nonlinearity", "L"): ("L_values", "floats"),
    ("nonlinearity", "policy"): ("policy", "str"),
    ("potential", "kind"): ("potential_kind", "str"),
    ("potential", "omega"): ("omega", "float"),
    ("potential", "coeff"): ("quartic_coeff", "float"),
    ("spectrum", "n_states"): ("n_states", "int"),
    ("evolve", "dt"): ("dt", "float"),
    ("evolve", "n_steps"): ("n_steps", "int"),
    ("evolve", "initial"): ("initial_kind", "str"),
    ("evolve", "sigma"): ("initial_sigma", "float"),
    ("evolve", "center"): ("initial_center", "float"),
    ("evolve", "k"): ("initial_k", "float"),
    ("eta-opt", "profile"): ("profile", "str"),
    ("eta-opt", "L_over_a"): ("L_over_a", "float"),
    ("exact", "kappa"): ("kappa", "float"),
    ("exact", "alpha"): ("alpha", "alpha"),
    ("exact", "node_exclusion_radius_steps"): ("node_exclusion_radius_steps", "float"),
    ("measures", "sigma"): ("density_sigma", "float"),
    ("output", "directory"): ("directory", "str"),
}


def _convert(tag: str, text: str, line_no: int):
    try:
        if tag == "int":
            return int(text)
        if tag == "float":
            return float(text)
        if tag == "floats":
            return tuple(float(t.strip()) for t in text.split(",") if t.strip())
        if tag == "alpha":
            pairs = []
            for item in text.split(","):
                item = item.strip()
                if not item:
                    continue
                h, a = item.split(":")
                pairs.append((int(h.strip()), float(a.strip())))
            return tuple(pairs)
        return text.strip()
    except ValueError as exc:
        raise ConfigParseError(f"line {line_no}: cannot parse value {text!r}: {exc}") from exc


def _read(text: str) -> tuple[ExperimentConfig, dict[str, int]]:
    """The config ``text`` holds and the line of each key it sets, before
    validation; ConfigParseError carries the offending line number."""
    values: dict[str, object] = {}
    lines_seen: dict[str, int] = {}
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {line_no}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigParseError(f"line {line_no}: key outside any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        lookup = (section, key)
        if lookup not in _SCHEMA:
            raise ConfigParseError(f"line {line_no}: unknown key '{key}' in [{section}]")
        attr, tag = _SCHEMA[lookup]
        if attr in values:
            raise ConfigParseError(f"line {line_no}: duplicate key '{key}' in [{section}]")
        values[attr] = _convert(tag, val.strip(), line_no)
        lines_seen[attr] = line_no
    if "command" not in values:
        raise ConfigParseError("missing [run] command")
    return ExperimentConfig(**values), lines_seen  # type: ignore[arg-type]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; errors carry the offending line number."""
    cfg, lines = _read(text)
    _inputs(cfg, lines)
    return cfg


def _err(lines: dict[str, int], attr: str, message: str) -> ConfigValidationError:
    where = f"line {lines[attr]}: " if attr in lines else ""
    return ConfigValidationError(where + message)


#: the attribute of each key name, with which a constructor guard's message opens
_ATTRS = {key: attr for (_, key), (attr, _) in _SCHEMA.items()}


def _built(lines: dict[str, int], attr: str, build, *args, at: str = ""):
    """build(*args), its ValueError, ArithmeticError or InfonlsError refused
    on the line of the key its message opens with, else on the line of
    ``attr``; ``at`` names the point of a list that failed."""
    try:
        return build(*args)
    except (ValueError, ArithmeticError, InfonlsError) as exc:
        message = str(exc)
        attr = _ATTRS.get(message.split(" ", 1)[0], attr)
        raise _err(lines, attr, f"{message} ({at})" if at else message) from None


def _inputs(cfg: ExperimentConfig, lines: dict[str, int]):
    """(schema, solve) of cfg's command, after building what it builds. A
    rule or constructor that refuses a value raises ConfigValidationError on
    the line of its key, if ``lines`` has it."""
    from .sweeps import _COMMANDS  # sweeps imports this module

    if cfg.format_version != FORMAT_VERSION:
        raise _err(lines, "format_version", f"unsupported format_version {cfg.format_version}")
    if cfg.command not in COMMANDS:
        raise _err(lines, "command", f"unknown command '{cfg.command}'; one of {COMMANDS}")
    consts = _built(lines, "hbar", PhysConstants, cfg.hbar, cfg.mass)
    grid = _built(lines, "dx", Grid, cfg.x_min, cfg.dx, cfg.n_points, cfg.boundary)
    if cfg.policy:
        _built(lines, "policy", _check_policy, cfg.policy)
        if cfg.command not in ("evolve", "shift-sweep", "measures"):
            raise _err(lines, "policy", f"{cfg.command} does not read [nonlinearity] policy")
    if cfg.potential_kind not in POTENTIAL_KINDS:
        raise _err(lines, "potential_kind", f"unknown potential kind '{cfg.potential_kind}'")
    if cfg.initial_kind not in INITIAL_KINDS:
        raise _err(lines, "initial_kind", f"unknown initial state '{cfg.initial_kind}'")
    if cfg.profile not in ETA_OPT_PROFILES:
        raise _err(lines, "profile", f"unknown profile '{cfg.profile}'; one of {ETA_OPT_PROFILES}")
    return _COMMANDS[cfg.command](cfg, lines, consts, grid)


def _format(tag: str, value) -> str:
    """Value text that ``_convert(tag, ...)`` parses back to value."""
    if tag == "floats":
        return ", ".join(repr(v) for v in value)
    if tag == "alpha":
        return ", ".join(f"{h}:{a!r}" for h, a in value)
    return repr(value) if tag == "float" else str(value)


def render_config(cfg: ExperimentConfig) -> str:
    """Config text whose parse reproduces cfg exactly."""
    defaults = ExperimentConfig(command=cfg.command)
    out: dict[str, list[str]] = {}
    for (section, key), (attr, tag) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if attr != "command" and attr != "format_version" and value == getattr(defaults, attr):
            continue
        out.setdefault(section, []).append(f"{key} = {_format(tag, value)}")
    chunks = []
    for section, lines in out.items():
        chunks.append(f"[{section}]")
        chunks.extend(lines)
        chunks.append("")
    return "\n".join(chunks)
