"""Tests of the benchmark itself: a corrupted output must be counted as a
failure and never timed.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import unittest
from unittest import mock

import run

run.import_package()

import numpy as np  # noqa: E402

import infonls as nls  # noqa: E402
from infonls.config import parse_config  # noqa: E402

import cli_cold  # noqa: E402
import evolve_exact  # noqa: E402
from harness import Checks, NullTracer, Tracer, self_times  # noqa: E402


def spectrum_csv(energies) -> bytes:
    lines = ["state_index,energy"] + [f"{n},{e!r}" for n, e in enumerate(energies)]
    return ("\n".join(lines) + "\n").encode()


class CliOutputChecks(unittest.TestCase):
    def setUp(self):
        path = run.ROOT / "configs" / "spectrum.cfg"
        self.cfg = parse_config(path.read_text())
        self.state = cli_cold.State(ctx=None, runs=[], env={})
        self.exact = [n + 0.5 for n in range(self.cfg.n_states)]

    def test_correct_output_passes(self):
        checks = Checks()
        cli_cold.check_output(self.state, self.cfg, spectrum_csv(self.exact), checks)
        self.assertGreater(checks.attempted, self.cfg.n_states)
        self.assertEqual(checks.failed, 0, checks.failures)

    def test_one_corrupted_energy_is_one_failure(self):
        corrupted = list(self.exact)
        corrupted[3] *= 1.0 + 1e-4
        checks = Checks()
        cli_cold.check_output(self.state, self.cfg, spectrum_csv(corrupted), checks)
        self.assertEqual(checks.failed, 1, checks.failures)
        self.assertIn("spectrum level 3", checks.failures[0])

    def test_output_changing_between_rounds_is_a_failure(self):
        checks = Checks()
        cli_cold.check_output(self.state, self.cfg, spectrum_csv(self.exact), checks)
        shifted = [e * (1.0 + 1e-9) for e in self.exact]
        cli_cold.check_output(self.state, self.cfg, spectrum_csv(shifted), checks)
        self.assertEqual(checks.failed, 1, checks.failures)
        self.assertIn("sha256", checks.failures[0])


class EvolveOutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.st = evolve_exact.setup(None)

    def fake_evolve(self, corrupt: bool):
        st = self.st
        t_final = evolve_exact.N_STEPS * st.dt
        final = st.psi0.values * np.exp(-1j * st.energy * t_final / st.consts.hbar)
        if corrupt:
            final = final.copy()
            checked = np.flatnonzero(st.check_mask)
            final[checked[checked.size // 2]] += 1e-3 * np.abs(final).max()
        n = evolve_exact.N_STEPS + 1
        report = nls.EvolutionReport(np.arange(n) * st.dt, np.zeros(n), np.zeros(n),
                                     nls.Wavefunction(st.grid, final))
        return lambda *args, **kwargs: report

    def test_exact_phase_evolution_passes(self):
        checks = Checks()
        with mock.patch.object(nls, "evolve", self.fake_evolve(corrupt=False)):
            evolve_exact.run_pass(self.st, NullTracer(), checks)
        self.assertEqual(checks.failed, 0, checks.failures)

    def test_corrupted_final_state_is_one_failure(self):
        checks = Checks()
        with mock.patch.object(nls, "evolve", self.fake_evolve(corrupt=True)):
            evolve_exact.run_pass(self.st, NullTracer(), checks)
        self.assertEqual(checks.failed, 1, checks.failures)
        self.assertIn("phase error", checks.failures[0])


class FakeWorkload:
    """Pass 2 fails a check and pass 3 raises; the others pass."""

    def __init__(self):
        self.calls = 0

    def run_pass(self, state, tr, checks):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("numerical failure")
        checks.check("output", self.calls != 2)
        return {"ops": [float(self.calls)]}


class PassLoop(unittest.TestCase):
    def test_failed_and_raising_passes_are_counted_not_timed(self):
        fake, checks = FakeWorkload(), Checks()
        (timed,) = run.run_passes(fake, None, [NullTracer()], 0.0, checks, min_passes=4)
        self.assertEqual(fake.calls, 4)
        self.assertEqual([out["ops"] for _, out in timed], [[1.0], [4.0]])
        self.assertEqual((checks.attempted, checks.failed), (4, 2))


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = Tracer("t")
        tr.spans = [
            ["cli.evolve", 0.0, 3.0, None, "t"],
            ["sweeps.run_sweep", 1.0, 2.5, 0, "t"],
        ]
        agg = self_times(tr.spans)
        self.assertAlmostEqual(agg["cli"]["self_s"], 1.5)
        self.assertAlmostEqual(agg["cli"]["busy_s"], 3.0)
        self.assertAlmostEqual(agg["sweeps"]["self_s"], 1.5)

    def test_nesting_records_parent(self):
        tr = Tracer("t")
        with tr.span("bench.pass"):
            with tr.span("spectra.solve_linear_spectrum"):
                pass
        self.assertIsNone(tr.spans[0][3])
        self.assertEqual(tr.spans[1][3], 0)


if __name__ == "__main__":
    unittest.main()
