"""Experiment configuration: plain-text sectioned key-value format.

Grammar (format_version 1): lines are either ``[section]`` headers,
``key = value`` pairs, blank, or ``#`` comments. No nesting. Values are
scalars or comma-separated lists; alpha profiles use ``harmonic:amplitude``
pairs. parse/render round-trip exactly on valid configs.

Validation builds what the command builds and calls the checks it calls, so
the rules on values are the constructors' own; a refusal lands on the line of
the key its message opens with. Only rules on the config itself live here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import harmonic_potential, quartic_potential, zero_potential
from .errors import ConfigParseError, ConfigValidationError, InfonlsError
from .exact import ExactSolutionSpec, _check_halfline, exact_energy
from .grid import Grid, NonlinearParams, PhysConstants, Potential, _check_policy, _check_steps
from .spectra import _check_eigensolver

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
        return Grid(self.x_min, self.dx, self.n_points, self.boundary)

    def potential(self, grid: Grid) -> Potential:
        if self.potential_kind == "harmonic":
            return harmonic_potential(grid, self.constants(), omega=self.omega)
        if self.potential_kind == "quartic":
            return quartic_potential(grid, coeff=self.quartic_coeff)
        return zero_potential(grid)


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


def _validate(cfg: ExperimentConfig, lines: dict[str, int]) -> None:
    """Build what cfg's command builds; refuse what its constructors refuse."""
    if cfg.format_version != FORMAT_VERSION:
        raise _err(lines, "format_version", f"unsupported format_version {cfg.format_version}")
    if cfg.command not in COMMANDS:
        raise _err(lines, "command", f"unknown command '{cfg.command}'; one of {COMMANDS}")
    consts = _built(lines, "hbar", cfg.constants)
    grid = _built(lines, "dx", cfg.grid)
    if cfg.policy:
        _built(lines, "policy", _check_policy, cfg.policy)
        if cfg.command not in ("evolve", "shift-sweep", "measures"):
            raise _err(lines, "policy", f"{cfg.command} does not read [nonlinearity] policy")
    if cfg.potential_kind not in POTENTIAL_KINDS:
        raise _err(lines, "potential_kind", f"unknown potential kind '{cfg.potential_kind}'")
    if cfg.command in ("evolve", "spectrum", "shift-sweep"):
        attr = "omega" if cfg.potential_kind == "harmonic" else "quartic_coeff"
        _built(lines, attr, cfg.potential, grid)
    if cfg.command in ("evolve", "exact-verify", "cotangent"):
        if len(cfg.eta_values) != 1 or len(cfg.L_values) != 1:
            raise _err(lines, "eta_values", f"{cfg.command} requires exactly one eta and one L")
    if cfg.command == "shift-sweep" and (not cfg.eta_values or not cfg.L_values):
        raise _err(lines, "eta_values", "shift-sweep requires eta and L lists")
    if cfg.command == "measures" and not cfg.L_values:
        raise _err(lines, "L_values", "measures requires an L list")
    points = []
    if cfg.command in ("evolve", "shift-sweep", "exact-verify", "cotangent"):
        points = [(eta, L, "eta_values", f"eta={eta}, L={L}")
                  for eta in cfg.eta_values for L in cfg.L_values]
    elif cfg.command == "measures":
        # the measures shift is L itself, the eta = 1 shift of scale L
        points = [(1.0, L, "L_values", f"L={L}") for L in cfg.L_values]
    for eta, L, attr, at in points:
        params = _built(lines, "L_values", NonlinearParams.for_length, L, eta, consts, at=at)
        steps = _built(lines, attr, params.shift_steps, grid, at=at)
        # the bound of shift_density; cotangent never shifts a density
        if cfg.command != "cotangent":
            _built(lines, attr, _check_steps, steps, grid.n_points, at=at)
    if cfg.command == "evolve":
        if not (cfg.dt > 0 and cfg.n_steps > 0):
            raise _err(lines, "dt", "evolve requires positive dt and n_steps")
        if cfg.initial_kind not in INITIAL_KINDS:
            raise _err(lines, "initial_kind", f"unknown initial state '{cfg.initial_kind}'")
    if cfg.command in ("spectrum", "shift-sweep"):
        _built(lines, "boundary", _check_eigensolver, grid, cfg.n_states, cfg.command)
    if cfg.command == "eta-opt" and cfg.profile not in ETA_OPT_PROFILES:
        raise _err(lines, "profile", f"unknown profile '{cfg.profile}'; one of {ETA_OPT_PROFILES}")
    if cfg.command in ("exact-verify", "cotangent"):
        # params is the one (eta, L) point built above
        _built(lines, "alpha", ExactSolutionSpec, cfg.kappa, params, cfg.alpha)
        _built(lines, "eta_values", exact_energy, cfg.kappa, params, consts)
        _built(lines, "boundary", _check_halfline, grid, cfg.command)
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
