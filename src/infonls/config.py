"""Experiment configuration: plain-text sectioned key-value format.

Grammar (format_version 1): lines are either ``[section]`` headers,
``key = value`` pairs, blank, or ``#`` comments. No nesting. Values are
scalars or comma-separated lists; alpha profiles use ``harmonic:amplitude``
pairs. parse/render round-trip exactly on valid configs. Each key is
declared once, on its ``ExperimentConfig`` field: its section, its name where
that differs from the attribute, and its type, the field's annotation.

``parse_config`` and ``run_sweep`` validate through ``_inputs``, the only
reader of a config. It checks the format version and the command, builds the
constants and the grid, and hands the command's one inputs function
(``sweeps``) a view of the config (``_Reads``) that records each key read;
that function builds what the command builds and checks each name where it
reads it. Then a set key that nothing read (in ``lines`` or, in a config
built in Python, away from its default) is refused on its line as
"<command> does not read [section] key"; [output] directory, which the CLI
reads, is exempt. The CLI calls ``_read`` and ``_inputs`` itself and runs
what they built, so it builds each input once. Rules on values are the
constructors' own; the view's ``built`` lands a refusal on the line of the
key its message opens with.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

from .errors import ConfigParseError, ConfigValidationError, InfonlsError
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


def _key(section: str, default=MISSING, key: str = ""):
    """The field of a config key in [section], named ``key`` where that
    differs from the attribute."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class ExperimentConfig:
    command: str = _key("run")
    format_version: int = _key("run", FORMAT_VERSION)
    hbar: float = _key("constants", 1.0)
    mass: float = _key("constants", 1.0)
    x_min: float = _key("grid", 0.0)
    dx: float = _key("grid", 0.01)
    n_points: int = _key("grid", 1024)
    boundary: str = _key("grid", "periodic")
    eta_values: tuple[float, ...] = _key("nonlinearity", (), "eta")
    L_values: tuple[float, ...] = _key("nonlinearity", (), "L")
    policy: str = _key("nonlinearity", "")
    potential_kind: str = _key("potential", "zero", "kind")
    omega: float = _key("potential", 1.0)
    quartic_coeff: float = _key("potential", 1.0, "coeff")
    n_states: int = _key("spectrum", 1)
    dt: float = _key("evolve", 0.0)
    n_steps: int = _key("evolve", 0)
    initial_kind: str = _key("evolve", "gaussian", "initial")
    initial_sigma: float = _key("evolve", 1.0, "sigma")
    initial_center: float = _key("evolve", 0.0, "center")
    initial_k: float = _key("evolve", 0.0, "k")
    profile: str = _key("eta-opt", "node-excited")
    L_over_a: float = _key("eta-opt", 0.1)
    kappa: float = _key("exact", 1.0)
    alpha: tuple[tuple[int, float], ...] = _key("exact", ((1, 1.0),))
    node_exclusion_radius_steps: float = _key("exact", 3.0)
    density_sigma: float = _key("measures", 1.0, "sigma")
    directory: str = _key("output", "out")


#: (section, key) -> field, in the order render_config writes them
_SCHEMA = {(f.metadata["section"], f.metadata["key"] or f.name): f
           for f in fields(ExperimentConfig)}

# the annotations of the two list types; the others are int, float and str
_FLOATS = "tuple[float, ...]"
_ALPHA = "tuple[tuple[int, float], ...]"


def _convert(kind: str, text: str, line_no: int):
    """The value of annotation ``kind`` that ``text`` holds."""
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == _FLOATS:
            return tuple(float(t.strip()) for t in text.split(",") if t.strip())
        if kind == _ALPHA:
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
        f = _SCHEMA[lookup]
        if f.name in values:
            raise ConfigParseError(f"line {line_no}: duplicate key '{key}' in [{section}]")
        values[f.name] = _convert(f.type, val.strip(), line_no)
        lines_seen[f.name] = line_no
    if "command" not in values:
        raise ConfigParseError("missing [run] command")
    return ExperimentConfig(**values), lines_seen  # type: ignore[arg-type]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; errors carry the offending line number."""
    cfg, lines = _read(text)
    _inputs(cfg, lines)
    return cfg


#: the attribute of each key name, with which a constructor guard's message opens
_ATTRS = {key: f.name for (_, key), f in _SCHEMA.items()}


class _Reads:
    """A view of a config that records the name of each attribute read
    through it, and refuses a value on the line of its key in ``lines``,
    if it has one."""

    def __init__(self, cfg: ExperimentConfig, lines: dict[str, int]):
        self._cfg = cfg
        self._lines = lines
        self.names: set[str] = set()

    def __getattr__(self, name: str):
        self.names.add(name)
        return getattr(self._cfg, name)

    def refuse(self, attr: str, message: str) -> ConfigValidationError:
        where = f"line {self._lines[attr]}: " if attr in self._lines else ""
        return ConfigValidationError(where + message)

    def built(self, attr: str, build, *args, at: str = ""):
        """build(*args), its ValueError, ArithmeticError or InfonlsError
        refused on the line of the key its message opens with, else on the
        line of ``attr``; ``at`` names the point of a list that failed."""
        try:
            return build(*args)
        except (ValueError, ArithmeticError, InfonlsError) as exc:
            message = str(exc)
            attr = _ATTRS.get(message.split(" ", 1)[0], attr)
            raise self.refuse(attr, f"{message} ({at})" if at else message) from None


def _inputs(cfg: ExperimentConfig, lines: dict[str, int]):
    """(schema, solve) of cfg's command, after building what it builds. A
    rule or constructor that refuses a value, and a set key that nothing
    read, raise ConfigValidationError on the line of the key, if ``lines``
    has it."""
    from .sweeps import _COMMANDS  # sweeps imports this module

    seen = _Reads(cfg, lines)
    if seen.format_version != FORMAT_VERSION:
        raise seen.refuse("format_version", f"unsupported format_version {cfg.format_version}")
    if seen.command not in COMMANDS:
        raise seen.refuse("command", f"unknown command '{cfg.command}'; one of {COMMANDS}")
    consts = seen.built("hbar", PhysConstants, seen.hbar, seen.mass)
    grid = seen.built("dx", Grid, seen.x_min, seen.dx, seen.n_points, seen.boundary)
    inputs = _COMMANDS[cfg.command](seen, consts, grid)
    defaults = ExperimentConfig(command=cfg.command)
    for (section, key), f in _SCHEMA.items():
        if f.name in seen.names or f.name == "directory":
            continue
        if f.name in lines or getattr(cfg, f.name) != getattr(defaults, f.name):
            raise seen.refuse(f.name, f"{cfg.command} does not read [{section}] {key}")
    return inputs


def _format(kind: str, value) -> str:
    """Value text that ``_convert(kind, ...)`` parses back to value."""
    if kind == _FLOATS:
        return ", ".join(repr(v) for v in value)
    if kind == _ALPHA:
        return ", ".join(f"{h}:{a!r}" for h, a in value)
    return repr(value) if kind == "float" else str(value)


def render_config(cfg: ExperimentConfig) -> str:
    """Config text whose parse reproduces cfg exactly."""
    defaults = ExperimentConfig(command=cfg.command)
    out: dict[str, list[str]] = {}
    for (section, key), f in _SCHEMA.items():
        value = getattr(cfg, f.name)
        if section != "run" and value == getattr(defaults, f.name):
            continue
        out.setdefault(section, []).append(f"{key} = {_format(f.type, value)}")
    chunks = []
    for section, lines in out.items():
        chunks.append(f"[{section}]")
        chunks.extend(lines)
        chunks.append("")
    return "\n".join(chunks)
