"""Experiment configuration: plain-text sectioned key-value format.

Grammar (format_version 1): lines are either ``[section]`` headers,
``key = value`` pairs, blank, or ``#`` comments. No nesting. Values are
scalars or comma-separated lists; alpha profiles use ``harmonic:amplitude``
pairs. parse/render round-trip exactly on valid configs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigParseError, ConfigValidationError, IncommensurateShiftError
from .grid import Grid, PhysConstants

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

    def constants(self) -> PhysConstants:
        return PhysConstants(hbar=self.hbar, mass=self.mass)

    def grid(self) -> Grid:
        return Grid(
            x_min=self.x_min, dx=self.dx, n_points=self.n_points, boundary=self.boundary
        )


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


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; errors carry the offending line number."""
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
    cfg = ExperimentConfig(**values)  # type: ignore[arg-type]
    _validate(cfg, lines_seen)
    return cfg


def _err(lines: dict[str, int], attr: str, message: str) -> ConfigValidationError:
    where = f"line {lines[attr]}: " if attr in lines else ""
    return ConfigValidationError(where + message)


def _validate(cfg: ExperimentConfig, lines: dict[str, int]) -> None:
    if cfg.format_version != FORMAT_VERSION:
        raise _err(lines, "format_version", f"unsupported format_version {cfg.format_version}")
    if cfg.command not in COMMANDS:
        raise _err(lines, "command", f"unknown command '{cfg.command}'; one of {COMMANDS}")
    if cfg.hbar <= 0 or cfg.mass <= 0:
        raise _err(lines, "hbar", "hbar and mass must be positive")
    if cfg.dx <= 0:
        raise _err(lines, "dx", "dx must be positive")
    if cfg.n_points < 8:
        raise _err(lines, "n_points", "n_points must be at least 8")
    if cfg.boundary not in ("periodic", "dirichlet"):
        raise _err(lines, "boundary", f"unknown boundary '{cfg.boundary}'")
    if cfg.policy and cfg.policy not in ("periodic", "floor", "extrap"):
        raise _err(lines, "policy", f"unknown policy '{cfg.policy}'")
    if cfg.policy and cfg.command not in ("evolve", "shift-sweep", "measures"):
        raise _err(lines, "policy", f"{cfg.command} does not read [nonlinearity] policy")
    if cfg.potential_kind not in POTENTIAL_KINDS:
        raise _err(lines, "potential_kind", f"unknown potential kind '{cfg.potential_kind}'")
    for eta in cfg.eta_values:
        if not 0.0 < eta <= 1.0:
            raise _err(lines, "eta_values", f"eta = {eta} outside the range (0, 1]")
    for L in cfg.L_values:
        if L <= 0:
            raise _err(lines, "L_values", f"L = {L} must be positive")
    shifts = []
    if cfg.command in ("evolve", "shift-sweep", "exact-verify", "cotangent"):
        shifts = [(eta * L, "eta_values", f"eta={eta}, L={L}")
                  for eta in cfg.eta_values for L in cfg.L_values]
    elif cfg.command == "measures":
        # the measures shift is L itself, not eta*L
        shifts = [(L, "L_values", f"L={L}") for L in cfg.L_values]
    grid = cfg.grid()
    for distance, attr, what in shifts:
        try:
            steps = grid.steps_for(distance)
        except IncommensurateShiftError as exc:
            raise _err(lines, attr, f"incommensurate shift ({what}): {exc}") from None
        # the bound of shift_density; cotangent never shifts a density
        if abs(steps) >= cfg.n_points and cfg.command != "cotangent":
            raise _err(lines, attr, f"shift ({what}) spans {abs(steps)} steps; "
                                    f"must be below n_points = {cfg.n_points}")
    if cfg.command == "evolve":
        if len(cfg.eta_values) != 1 or len(cfg.L_values) != 1:
            raise _err(lines, "eta_values", "evolve requires exactly one eta and one L")
        if cfg.dt <= 0 or cfg.n_steps <= 0:
            raise _err(lines, "dt", "evolve requires positive dt and n_steps")
        if cfg.initial_kind not in INITIAL_KINDS:
            raise _err(lines, "initial_kind", f"unknown initial state '{cfg.initial_kind}'")
    if cfg.command in ("spectrum", "shift-sweep") and cfg.n_states < 1:
        raise _err(lines, "n_states", "n_states must be at least 1")
    if cfg.command in ("spectrum", "shift-sweep") and cfg.boundary != "dirichlet":
        # the eigensolver solves the Dirichlet box only
        raise _err(lines, "boundary", f"{cfg.command} requires boundary = dirichlet")
    if cfg.command == "shift-sweep" and (not cfg.eta_values or not cfg.L_values):
        raise _err(lines, "eta_values", "shift-sweep requires eta and L lists")
    if cfg.command == "eta-opt" and cfg.profile not in ETA_OPT_PROFILES:
        raise _err(lines, "profile", f"unknown profile '{cfg.profile}'; one of {ETA_OPT_PROFILES}")
    if cfg.command in ("exact-verify", "cotangent"):
        if len(cfg.eta_values) != 1 or len(cfg.L_values) != 1:
            raise _err(lines, "eta_values", f"{cfg.command} requires exactly one eta and one L")
        if not 0.0 < cfg.eta_values[0] < 1.0:
            raise _err(lines, "eta_values", "exact solutions require 0 < eta < 1")
        if cfg.kappa <= 0:
            raise _err(lines, "kappa", "kappa must be positive")
        if cfg.boundary != "dirichlet" or cfg.x_min != 0.0:
            raise _err(lines, "boundary", f"{cfg.command} requires a half-line grid "
                                          "(x_min = 0, boundary = dirichlet)")
        # x = 0 is a singular point of the cotangent potential on every such
        # grid, so its radius must be positive; exact-verify accepts zero
        radius = cfg.node_exclusion_radius_steps
        if cfg.command == "cotangent" and not radius > 0:
            raise _err(lines, "node_exclusion_radius_steps",
                       f"node_exclusion_radius_steps = {radius} must be positive")
        if not radius >= 0:
            raise _err(lines, "node_exclusion_radius_steps",
                       f"node_exclusion_radius_steps = {radius} must not be negative")
        # the cotangent potential reproduces only the single-harmonic state
        if cfg.command == "cotangent" and cfg.alpha != ExperimentConfig.alpha:
            raise _err(lines, "alpha", "cotangent takes only the default alpha = 1:1.0")
    if cfg.command == "measures" and (not cfg.L_values):
        raise _err(lines, "L_values", "measures requires an L list")


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
