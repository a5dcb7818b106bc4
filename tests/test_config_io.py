import json
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infonls import sweeps
from infonls.cli import main as cli_main
from infonls.config import COMMANDS, ExperimentConfig, parse_config, render_config
from infonls.errors import ConfigParseError, ConfigValidationError, NonFiniteError
from infonls.sweeps import emit_results, run_sweep

MINIMAL_EVOLVE = """
[run]
format_version = 1
command = evolve

[grid]
x_min = -5.0
dx = 0.01
n_points = 1000
boundary = periodic

[nonlinearity]
eta = 0.5
L = 0.1

[evolve]
dt = 2e-5
n_steps = 10
initial = gaussian
sigma = 1.0
"""

SWEEP = """
[run]
format_version = 1
command = shift-sweep

[grid]
x_min = -6.0
dx = 0.0015
n_points = 8001
boundary = dirichlet

[nonlinearity]
eta = 0.2, 0.4, 0.6
L = 0.06, 0.12

[potential]
kind = harmonic
omega = 1.0

[spectrum]
n_states = 2
"""

MEASURES = """
[run]
format_version = 1
command = measures

[grid]
x_min = -10.0
dx = 0.01
n_points = 2000

[nonlinearity]
L = 0.2, 0.1
"""

# a 1501-point half-line grid whose shift eta*L is 2000 steps
LONG_SHIFT = """
[run]
format_version = 1
command = exact-verify

[grid]
x_min = 0.0
dx = 0.000625
n_points = 1501
boundary = dirichlet

[nonlinearity]
eta = 0.8
L = 1.5625

[exact]
kappa = 15.0
"""

# a half-line config for the exact-state commands; the shift is 128 steps and
# the grid is long enough for kappa = 1, as in configs/exact_verify.cfg
EXACT_VERIFY = """
[run]
format_version = 1
command = exact-verify

[grid]
x_min = 0.0
dx = 0.000625
n_points = 18433
boundary = dirichlet

[nonlinearity]
eta = 0.8
L = 0.1

[exact]
kappa = 1.0
"""

# a grid too short for kappa = 1: exp(-2 kappa x_max) = 0.78
SHORT_HALFLINE = EXACT_VERIFY.replace("n_points = 18433", "n_points = 201")

# a 10-point dirichlet grid: 3 states are not below n_points / 4
FEW_POINTS = SWEEP.replace("n_points = 8001", "n_points = 10").replace(
    "n_states = 2", "n_states = 3")

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def with_radius(text, radius, command="exact-verify"):
    return text.replace("exact-verify", command) + f"node_exclusion_radius_steps = {radius}\n"


class TestParse:
    def test_minimal_evolve_defaults(self):
        cfg = parse_config(MINIMAL_EVOLVE)
        assert cfg.command == "evolve"
        assert cfg.hbar == 1.0 and cfg.mass == 1.0
        assert cfg.eta_values == (0.5,)

    def test_eta_out_of_range_names_range(self):
        bad = MINIMAL_EVOLVE.replace("eta = 0.5", "eta = 1.5")
        with pytest.raises(ConfigValidationError, match=r"\(0, 1\]"):
            parse_config(bad)

    def test_incommensurate_named(self):
        # evolve shifts by eta*L (reported on the eta line), measures by L
        evolve = MINIMAL_EVOLVE.replace("L = 0.1", "L = 0.146")
        measures = MEASURES.replace("L = 0.2, 0.1", "L = 0.2, 0.146")
        for bad, key in ((evolve, "eta ="), (measures, "L =")):
            line = next(
                i for i, t in enumerate(bad.splitlines(), start=1) if t.startswith(key)
            )
            with pytest.raises(ConfigValidationError, match=f"line {line}: incommensurate"):
                parse_config(bad)

    def test_shift_spanning_grid_named(self):
        # a shift of n_points steps or more is rejected on its line, as
        # shift_density would reject it at run time
        evolve = MINIMAL_EVOLVE.replace("n_points = 1000", "n_points = 10").replace(
            "L = 0.1", "L = 0.3")
        measures = MEASURES.replace("n_points = 2000", "n_points = 10").replace(
            "L = 0.2, 0.1", "L = 0.02, 0.12")
        for bad, key in ((evolve, "eta ="), (measures, "L ="), (LONG_SHIFT, "eta =")):
            line = next(
                i for i, t in enumerate(bad.splitlines(), start=1) if t.startswith(key)
            )
            with pytest.raises(ConfigValidationError, match=f"line {line}: shift .* steps"):
                parse_config(bad)
        # the cotangent check never shifts a density
        cfg = parse_config(LONG_SHIFT.replace("exact-verify", "cotangent"))
        assert cfg.n_points == 1501

    def test_exclusion_radius_named(self):
        # x = 0 is singular for the cotangent check, so its radius must be
        # positive; exact-verify accepts zero but not a negative radius
        bad = [with_radius(EXACT_VERIFY, r, "cotangent") for r in ("0.0", "-1.0", "nan")]
        bad += [with_radius(EXACT_VERIFY, r) for r in ("-1.0", "nan")]
        for text in bad:
            line = len(text.splitlines())
            with pytest.raises(ConfigValidationError,
                               match=f"line {line}: node_exclusion_radius_steps"):
                parse_config(text)
        assert parse_config(with_radius(EXACT_VERIFY, "0.0")).node_exclusion_radius_steps == 0.0
        assert parse_config(with_radius(EXACT_VERIFY, "0.5", "cotangent")).command == "cotangent"

    def test_cotangent_alpha_named(self):
        # the cotangent potential reproduces only the single-harmonic state,
        # so any other alpha is refused on its line; exact-verify takes it
        cot = EXACT_VERIFY.replace("exact-verify", "cotangent")
        for alpha in ("1:1.0, 2:0.5", "2:1.0", "1:0.5"):
            text = cot + f"alpha = {alpha}\n"
            with pytest.raises(ConfigValidationError,
                               match=f"line {len(text.splitlines())}: cotangent"):
                parse_config(text)
        assert parse_config(cot + "alpha = 1:1.0\n").command == "cotangent"
        assert parse_config(EXACT_VERIFY + "alpha = 1:1.0, 2:0.5\n").alpha == ((1, 1.0), (2, 0.5))

    def test_spectrum_requires_dirichlet_named(self):
        # the eigensolver solves the Dirichlet box only; a periodic grid is
        # refused on its boundary line, or without one when the key is absent
        for command in ("spectrum", "shift-sweep"):
            text = SWEEP.replace("shift-sweep", command)
            bad = text.replace("boundary = dirichlet", "boundary = periodic")
            line = bad.splitlines().index("boundary = periodic") + 1
            with pytest.raises(ConfigValidationError,
                               match=f"line {line}: {command} requires boundary = dirichlet"):
                parse_config(bad)
            with pytest.raises(ConfigValidationError, match="^" + command):
                parse_config(text.replace("boundary = dirichlet\n", ""))
            assert parse_config(text).command == command

    @pytest.mark.parametrize("command", ["spectrum", "eta-opt", "exact-verify", "cotangent"])
    def test_unread_policy_named(self, command):
        # these commands never shift a density under a chosen policy, so the
        # key would change only the input hash; it is refused on its line
        base = {"spectrum": SWEEP.replace("shift-sweep", "spectrum"),
                "eta-opt": "[run]\nformat_version = 1\ncommand = eta-opt\n",
                "exact-verify": EXACT_VERIFY,
                "cotangent": EXACT_VERIFY.replace("exact-verify", "cotangent")}[command]
        assert parse_config(base).command == command
        text = base + "[nonlinearity]\npolicy = floor\n"
        with pytest.raises(ConfigValidationError,
                           match=f"line {len(text.splitlines())}: {command} does not read"):
            parse_config(text)

    def test_policy_read_by_three_commands(self):
        for text in (MINIMAL_EVOLVE, SWEEP, MEASURES):
            cfg = parse_config(text.replace("[nonlinearity]", "[nonlinearity]\npolicy = extrap"))
            assert cfg.policy == "extrap"

    def test_error_carries_line_number(self):
        bad = MINIMAL_EVOLVE.replace("eta = 0.5", "eta = 1.5")
        line = next(
            i for i, t in enumerate(bad.splitlines(), start=1) if t.startswith("eta")
        )
        with pytest.raises(ConfigValidationError, match=f"line {line}"):
            parse_config(bad)

    def test_unknown_key_rejected(self):
        bad = MINIMAL_EVOLVE.replace("sigma = 1.0", "sgima = 1.0")
        with pytest.raises(ConfigParseError, match="unknown key"):
            parse_config(bad)

    def test_missing_command(self):
        with pytest.raises(ConfigParseError, match="command"):
            parse_config("[grid]\ndx = 0.1\nn_points = 100\n")

    def test_roundtrip_fixed_examples(self):
        for text in (MINIMAL_EVOLVE, SWEEP):
            cfg = parse_config(text)
            assert parse_config(render_config(cfg)) == cfg

    @given(
        eta=st.floats(min_value=0.1, max_value=1.0),
        n_states=st.integers(min_value=1, max_value=5),
        steps=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, eta, n_states, steps):
        dx = 0.002
        cfg = ExperimentConfig(
            command="shift-sweep",
            x_min=-6.0,
            dx=dx,
            n_points=6001,
            boundary="dirichlet",
            eta_values=(eta,),
            L_values=(steps * dx / eta,),
            potential_kind="harmonic",
            n_states=n_states,
        )
        assert parse_config(render_config(cfg)) == cfg


class TestShippedConfigs:
    def test_one_per_command(self):
        assert sorted(p.stem.replace("_", "-") for p in CONFIGS) == sorted(COMMANDS)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_parses_and_round_trips(self, path):
        cfg = parse_config(path.read_text())
        assert cfg.command == path.stem.replace("_", "-")
        assert parse_config(render_config(cfg)) == cfg


class TestEmit:
    def test_empty_rows_header_only(self, tmp_path):
        path = emit_results([], "shift_result", tmp_path / "t.csv")
        assert path.read_text() == "eta,L,state_index,delta_E\n"

    def test_shift_result_header_contract(self, tmp_path):
        path = emit_results([(0.5, 0.1, 0, -1e-4)], "shift_result", tmp_path / "t.csv")
        assert path.read_text().splitlines()[0] == "eta,L,state_index,delta_E"

    def test_nan_refused(self, tmp_path):
        with pytest.raises(NonFiniteError):
            emit_results(
                [(0.5, 0.1, 0, float("nan"))],
                "shift_result",
                tmp_path / "t.csv",
            )


class TestRunSweep:
    def test_cartesian_row_count(self, tmp_path):
        cfg = parse_config(SWEEP)
        manifest = run_sweep(cfg, tmp_path / "a")
        lines = (tmp_path / "a" / "shift_result.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2 * 2  # header + eta x L x states

    def test_rows_ordered_by_eta_L_state(self, tmp_path):
        cfg = parse_config(SWEEP)
        run_sweep(cfg, tmp_path / "a")
        rows = (tmp_path / "a" / "shift_result.csv").read_text().splitlines()[1:]
        keys = []
        for row in rows:
            eta, L, idx = row.split(",")[:3]
            keys.append((float(eta), float(L), int(idx)))
        assert keys == sorted(keys)

    def test_deterministic_bytes_and_hash(self, tmp_path):
        cfg = parse_config(SWEEP)
        m1 = run_sweep(cfg, tmp_path / "a")
        m2 = run_sweep(cfg, tmp_path / "b", threads=4)
        b1 = (tmp_path / "a" / "shift_result.csv").read_bytes()
        b2 = (tmp_path / "b" / "shift_result.csv").read_bytes()
        assert b1 == b2
        assert m1.input_hash == m2.input_hash

    def test_sweep_runs_on_calling_thread(self, tmp_path, monkeypatch):
        # SWEEP is the sweep of acceptance criterion 15; threads=4 is ignored.
        calls = []
        started = []
        shift = sweeps.first_order_shift_numeric
        thread_start = threading.Thread.start

        def recording_shift(state, params, consts, **kwargs):
            calls.append((threading.get_ident(), params.eta, params.L))
            return shift(state, params, consts, **kwargs)

        def recording_start(thread):
            started.append(thread.name)
            return thread_start(thread)

        monkeypatch.setattr(sweeps, "first_order_shift_numeric", recording_shift)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        run_sweep(parse_config(SWEEP), tmp_path / "a", threads=4)
        assert started == []
        assert len(calls) == 3 * 2 * 2
        assert {ident for ident, _, _ in calls} == {threading.get_ident()}
        points = [(eta, L) for _, eta, L in calls]
        assert points == sorted(points)

    @pytest.mark.parametrize("cfg, message", [
        (ExperimentConfig(command="spectrum", boundary="dirichlet", potential_kind="harmonc"),
         "unknown potential kind 'harmonc'"),
        (ExperimentConfig(command="eta-opt", profile="node-excitd"),
         "unknown profile 'node-excitd'"),
    ], ids=["potential-kind", "profile"])
    def test_hand_built_config_validated(self, tmp_path, cfg, message):
        # run_sweep validates as parse_config does, without line numbers;
        # unvalidated, the kind typo would solve the hard box and the profile
        # typo would write the Gaussian-profile optimum under its label
        with pytest.raises(ConfigValidationError, match=f"^{message}"):
            run_sweep(cfg, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_manifest_references_outputs(self, tmp_path):
        cfg = parse_config(SWEEP)
        run_sweep(cfg, tmp_path / "a")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["output_files"] == ["shift_result.csv"]
        assert (tmp_path / "a" / "shift_result.csv").exists()
        assert manifest["command"] == "shift-sweep"

    def test_eta_opt_node_profile(self, tmp_path):
        cfg = ExperimentConfig(command="eta-opt", profile="node-excited")
        run_sweep(cfg, tmp_path / "opt")
        rows = (tmp_path / "opt" / "eta_opt.csv").read_text().splitlines()
        profile, eta_star, value = rows[1].split(",")
        assert profile == "node-excited"
        assert float(eta_star) == pytest.approx(0.796535, abs=1e-5)
        assert float(value) < 0

    def test_measures_command(self, tmp_path):
        cfg = ExperimentConfig(
            command="measures",
            x_min=-10.0,
            dx=0.01,
            n_points=2000,
            boundary="periodic",
            eta_values=(0.5,),
            L_values=(0.1, 0.05),
            density_sigma=1.0,
        )
        run_sweep(cfg, tmp_path / "m")
        rows = (tmp_path / "m" / "measures.csv").read_text().splitlines()
        assert rows[0] == "name,L,value,quadrature_error_estimate"
        assert len(rows) == 1 + 2 + 2  # two KL rows + fisher + shannon


class TestCli:
    def write(self, tmp_path, text):
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        return str(p)

    def test_success_exit_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, SWEEP.replace("0.2, 0.4, 0.6", "0.4").replace("0.06, 0.12", "0.06"))
        code = cli_main(["shift-sweep", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "shift_result.csv").exists()

    def test_config_error_exit_two(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_EVOLVE.replace("eta = 0.5", "eta = 1.5"))
        assert cli_main(["evolve", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_shift_spanning_grid_exit_two(self, tmp_path):
        path = self.write(tmp_path, LONG_SHIFT)
        assert cli_main(["exact-verify", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_cotangent_zero_radius_exit_two(self, tmp_path):
        path = self.write(tmp_path, with_radius(EXACT_VERIFY, "0.0", "cotangent"))
        assert cli_main(["cotangent", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_command_mismatch_exit_two(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_EVOLVE)
        assert cli_main(["spectrum", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_config_file_closed(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_EVOLVE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["spectrum", "--config", path]) == 2
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_missing_file_exit_two(self, tmp_path):
        assert cli_main(["evolve", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("command, text, key", [
        ("spectrum", FEW_POINTS.replace("shift-sweep", "spectrum"), "n_states ="),
        ("shift-sweep", FEW_POINTS.replace("0.2, 0.4, 0.6", "0.4").replace("0.06, 0.12", "0.015"),
         "n_states ="),
        ("exact-verify", EXACT_VERIFY + "alpha = 0:1.0\n", "alpha ="),
        ("exact-verify", EXACT_VERIFY + "alpha = ,\n", "alpha ="),
        ("evolve", MINIMAL_EVOLVE.replace("dx = 0.01", "dx = nan"), "dx ="),
        ("evolve", MINIMAL_EVOLVE.replace("L = 0.1", "L = nan"), "L ="),
        ("evolve", MINIMAL_EVOLVE.replace("L = 0.1", "L = 0"), "L ="),
        ("exact-verify", EXACT_VERIFY.replace("kappa = 1.0", "kappa = nan"), "kappa ="),
        ("spectrum", SWEEP.replace("shift-sweep", "spectrum").replace("omega = 1.0", "omega = nan"),
         "omega ="),
        ("evolve", MINIMAL_EVOLVE.replace("dt = 2e-5", "dt = nan"), "dt ="),
        ("exact-verify", SHORT_HALFLINE, "n_points ="),
        ("cotangent", SHORT_HALFLINE.replace("exact-verify", "cotangent"), "n_points ="),
        ("evolve", MINIMAL_EVOLVE.replace("x_min = -5.0", "x_min = inf"), "x_min ="),
        ("evolve", MINIMAL_EVOLVE.replace("sigma = 1.0", "sigma = 0.0"), "sigma ="),
        ("evolve", MINIMAL_EVOLVE.replace("sigma = 1.0", "sigma = nan"), "sigma ="),
        ("measures", MEASURES + "[measures]\nsigma = nan\n", "sigma ="),
        ("eta-opt", "[run]\nformat_version = 1\ncommand = eta-opt\n[eta-opt]\n"
         "profile = gaussian-ground\nL_over_a = nan\n", "L_over_a ="),
        ("exact-verify", EXACT_VERIFY + "alpha = 1:nan\n", "alpha ="),
        ("exact-verify", EXACT_VERIFY + "alpha = 1:0.0\n", "alpha ="),
        ("evolve", MINIMAL_EVOLVE + "center = nan\n", "center ="),
    ], ids=["spectrum-n_states", "shift-sweep-n_states", "alpha-harmonic-0", "alpha-empty",
            "dx-nan", "L-nan", "L-0", "kappa-nan", "omega-nan", "dt-nan",
            "exact-verify-n_points", "cotangent-n_points", "x_min-inf", "evolve-sigma-0",
            "evolve-sigma-nan", "measures-sigma-nan", "L_over_a-nan", "alpha-amplitude-nan",
            "alpha-amplitudes-zero", "evolve-center-nan"])
    def test_constructor_refusal_exit_two(self, tmp_path, capsys, command, text, key):
        # each is refused on the line of its key by the constructor or check
        # that the command calls, before the run could end in a Python error
        # (exit 1) or a numerical failure (exit 3)
        line = next(i for i, t in enumerate(text.splitlines(), start=1) if t.startswith(key))
        path = self.write(tmp_path, text)
        assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: line {line}: ")

    def test_inputs_built_once(self, tmp_path, monkeypatch):
        # the CLI solves from the inputs its validation built
        calls = []
        build = sweeps.build_exact_state
        monkeypatch.setattr(sweeps, "build_exact_state", lambda *a: calls.append(a) or build(*a))
        path = self.write(tmp_path, with_radius(EXACT_VERIFY, "0.4", "cotangent"))
        assert cli_main(["cotangent", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_numerical_failure_exit_three(self, tmp_path):
        # dt far above the stability bound -> UnstableStep -> exit 3
        bad = MINIMAL_EVOLVE.replace("dt = 2e-5", "dt = 1.0")
        path = self.write(tmp_path, bad)
        assert cli_main(["evolve", "--config", path, "--out", str(tmp_path / "o")]) == 3

    def test_evolve_end_to_end(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_EVOLVE)
        code = cli_main(["evolve", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 0
        rows = (tmp_path / "o" / "evolve.csv").read_text().splitlines()
        assert rows[0] == "time,norm_drift,energy"
        assert len(rows) == 1 + 11  # initial sample + 10 steps
