import csv
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import qgeo
from qgeo.cli import (
    _READS,
    ScenarioConfig,
    _read_json,
    _write_trace,
    build_parser,
    emit_table,
    main,
    run_scenario,
)
from qgeo.geometry import SpeedLimitReport, efficiency
from qgeo.hamiltonian import (
    PAULI_X,
    ConstantMatrix,
    TimeDependent,
    TwoLevelDriven,
    TwoLevelStatic,
)
from qgeo.propagation import (
    _WRITE_BLOCK,
    EvolutionTrace,
    _repr_column,
    dispersion_driven_closed,
    evolve,
)
from qgeo.speedlimit import SweepResult, min_time
from qgeo.states import QuantumState


# A driven draw that reported eta = 1.024 when the preset's states moved in
# the frame of the drive while its statistics came from the laboratory frame.
OFF_RESONANCE_DRAW = {
    "epsilon": 0.5606002293404857,
    "omega0": 0.3947223566390008,
    "omega": 0.5124401492259762,
}


# Draws (seed, index) = (106, 0), (35, 1) and (37, 2) of the scenario-driven
# benchmark workload, which reported eta = 1.02402, 1.02376 and 1.00918 at
# 100k steps while the states moved in the frame of the drive.
BENCH_DRIVEN_DRAWS = {
    "seed106-draw0": OFF_RESONANCE_DRAW,
    "seed35-draw1": {
        "epsilon": 0.6451779705319767,
        "omega0": 0.3840477087240677,
        "omega": 0.46113131354445813,
    },
    "seed37-draw2": {
        "epsilon": 0.5966481450776782,
        "omega0": 0.3941843600207421,
        "omega": 0.5309446225124347,
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m qgeo.cli *argv`` in a child process that imports this tree's qgeo."""
    path = [str(Path(qgeo.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "qgeo.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig(scenario="static")
        assert cfg.steps == 2000
        assert cfg.unit_system == "natural"
        assert cfg.output == "json"

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="quartic")

    def test_step_floor(self):
        ScenarioConfig(scenario="static", steps=100)
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="static", steps=99)

    def test_unknown_unit_system(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="static", unit_system="cgs")

    def test_unknown_output(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="static", output="xml")

    def test_si_requires_transverse_field(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="static", unit_system="si")
        ScenarioConfig(
            scenario="static",
            unit_system="si",
            parameters={"b_perp_tesla": 1e-6},
        )

    def test_si_driven_requires_both_fields(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                scenario="driven",
                unit_system="si",
                parameters={"b_perp_tesla": 1e-6},
            )
        ScenarioConfig(
            scenario="driven",
            unit_system="si",
            parameters={"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0},
        )

    def test_custom_requires_duration(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="custom")
        ScenarioConfig(scenario="custom", parameters={"t_final": 1.0})

    def test_custom_runs_in_natural_units_only(self):
        # run_scenario would ignore the units and both fields, and run at hbar = 1
        with pytest.raises(ValueError, match="^custom scenarios do not run in si units$"):
            ScenarioConfig(
                scenario="custom",
                unit_system="si",
                parameters={"t_final": 1.0, "b_perp_tesla": 1e-6, "epsilon": 5.0},
            )

    @pytest.mark.parametrize(
        "scenario, unit_system, parameters, named",
        [
            # SI units fix hbar and derive epsilon from the field
            ("static", "si", {"b_perp_tesla": 1e-6, "epsilon": 5.0, "hbar": 2.0}, "epsilon"),
            ("static", "si", {"b_perp_tesla": 1e-6, "hbar": 2.0}, "hbar"),
            ("static", "si", {"b_perp_tesla": 1e-6, "omega": 0.3}, "omega"),
            ("static", "natural", {"b_perp_tesla": 1e-6}, "b_perp_tesla"),
            ("static", "natural", {"omega": 0.3}, "omega"),
            ("static", "natural", {"omega0": 0.3}, "omega0"),
            ("driven", "natural", {"b_parallel_tesla": 1.0}, "b_parallel_tesla"),
            (
                "driven",
                "si",
                {"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0, "omega0": 3.0},
                "omega0",
            ),
            (
                "driven",
                "si",
                {"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0, "epsilon": 1.0},
                "epsilon",
            ),
            ("custom", "natural", {"t_final": 1.0, "epsilon": 5.0}, "epsilon"),
            ("custom", "natural", {"t_final": 1.0, "b_perp_tesla": 1e-6}, "b_perp_tesla"),
        ],
    )
    def test_presets_refuse_parameters_they_do_not_read(
        self, scenario, unit_system, parameters, named
    ):
        with pytest.raises(ValueError, match=f"^{named} is not read by the {scenario} scenario"):
            ScenarioConfig(scenario=scenario, unit_system=unit_system, parameters=parameters)

    @pytest.mark.parametrize(
        "scenario, unit_system, parameters",
        [
            ("static", "natural", {"epsilon": 2.0, "hbar": 0.5}),
            ("driven", "natural", {"epsilon": 2.0, "omega": 0.3, "omega0": 0.1, "hbar": 0.5}),
            ("static", "si", {"b_perp_tesla": 1e-6}),
            ("driven", "si", {"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0, "omega": 1e11}),
            ("custom", "natural", {"t_final": 1.0, "hbar": 2.0}),
        ],
    )
    def test_presets_accept_every_parameter_they_read(self, scenario, unit_system, parameters):
        ScenarioConfig(scenario=scenario, unit_system=unit_system, parameters=parameters)

    @pytest.mark.parametrize(
        "scenario, unit_system, parameters",
        [
            ("static", "si", {"b_perp_tesla": 1e-6}),
            ("driven", "si", {"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0, "omega": 1.7e11}),
            ("static", "natural", {"epsilon": 2.0, "hbar": 0.5}),
            ("driven", "natural", {"epsilon": 2.0, "omega": 0.3, "omega0": 0.1, "hbar": 0.5}),
        ],
    )
    def test_si_presets_read_exactly_the_parameters_they_accept(
        self, scenario, unit_system, parameters
    ):
        # run_scenario and the _READS row must name the same keys: a key read but
        # not accepted is refused, one accepted but unread is ignored; in natural
        # units they are the preset's fields
        class Reads(dict):
            def __init__(self, items):
                super().__init__(items)
                self.seen = set()

            def __getitem__(self, key):
                self.seen.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.seen.add(key)
                return super().get(key, default)

        given = Reads(parameters)
        run = run_scenario(
            ScenarioConfig(scenario=scenario, steps=100, unit_system=unit_system, parameters=given)
        )
        assert given.seen == set(_READS[scenario, unit_system]) == set(parameters)
        if unit_system == "natural":
            assert given.seen == {f.name for f in fields(run.hamiltonian)}
            assert all(getattr(run.hamiltonian, k) == v for k, v in parameters.items())

    def test_to_json_sorts_parameters(self):
        cfg = ScenarioConfig(
            scenario="driven", parameters={"omega0": 0.2, "epsilon": 1.0}
        )
        assert list(cfg.to_json()["parameters"]) == ["epsilon", "omega0"]


class TestRunScenario:
    def test_static_reproduction(self):
        run = run_scenario(ScenarioConfig(scenario="static"))
        rep = run.report
        assert rep.eta == pytest.approx(1.0, abs=1e-9)
        assert rep.s0 == pytest.approx(math.pi, abs=1e-9)
        assert rep.s == pytest.approx(math.pi, abs=1e-9)
        assert run.trace.n_nodes == 2001
        assert run.extras == {}

    def test_driven_loses_efficiency(self):
        run = run_scenario(ScenarioConfig(scenario="driven"))
        assert run.report.eta < 1.0
        assert run.report.bound_satisfied

    def test_driven_off_resonance_draw_satisfies_bound(self):
        cfg = ScenarioConfig(
            scenario="driven", steps=2000, parameters=dict(OFF_RESONANCE_DRAW)
        )
        assert run_scenario(cfg).report.bound_satisfied

    @pytest.mark.parametrize(
        "parameters, eta",
        [({}, 0.9836266), (OFF_RESONANCE_DRAW, 0.9341687)],
        ids=["default", "off-resonance-draw"],
    )
    def test_driven_eta_is_the_lab_frame_value(self, parameters, eta):
        # eta of the exact lab-frame solution, to the 7 digits it was measured to
        cfg = ScenarioConfig(scenario="driven", steps=2000, parameters=dict(parameters))
        assert run_scenario(cfg).report.eta == pytest.approx(eta, abs=1e-7)

    @pytest.mark.parametrize("name", sorted(BENCH_DRIVEN_DRAWS))
    def test_benchmark_driven_draws_satisfy_the_bound(self, name):
        cfg = ScenarioConfig(
            scenario="driven", steps=100_000, parameters=dict(BENCH_DRIVEN_DRAWS[name])
        )
        report = run_scenario(cfg).report
        assert report.eta < 1.0
        assert report.bound_satisfied

    @pytest.mark.parametrize("steps, rel_tol", [(200, 1e-8), (2000, 1e-9), (20000, 1e-10)])
    def test_driven_si_length_matches_the_closed_law(self, steps, rel_tol):
        # The SI dispersion sqrt(eps^2 + b (hbar w0 - b)) has no w0 oscillation,
        # so s converges on report-grade grids.  Measured relative deviations
        # from the closed law's integral: 5.6e-9, 5.2e-10, 4.5e-11.  The error
        # falls only as 1/steps, because dE turns a corner of width about
        # eps/(hbar w0) at each end, and it stays below the report's own
        # quadrature error estimate.
        run = run_scenario(
            ScenarioConfig(
                scenario="driven",
                steps=steps,
                unit_system="si",
                parameters={"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0},
            )
        )
        h, report = run.hamiltonian, run.report
        ts = np.linspace(0.0, h.orthogonality_time, 200_001)
        disp = dispersion_driven_closed(h.epsilon, h.omega, h.omega0, ts, h.hbar)
        dx = ts[1] - ts[0]
        integral = (dx / 3.0) * (disp[0] + disp[-1] + 4.0 * disp[1:-1:2].sum() + 2.0 * disp[2:-2:2].sum())
        s_closed = 2.0 * integral / h.hbar
        assert abs(report.s / s_closed - 1.0) <= rel_tol
        assert abs(report.s - s_closed) <= report.quadrature_error
        assert report.eta == pytest.approx(math.pi / 2e6, rel=1e-8)

    @pytest.mark.parametrize("steps, rel_tol", [(200, 1e-12), (2000, 1e-10), (20000, 1e-8)])
    def test_driven_si_node_dispersions_match_the_closed_law(self, steps, rel_tol):
        # |<H>| reaches about 1e6 * dE at the ends, where sqrt(<H^2> - <H>^2)
        # lost the node dE to 1.1e-2, 2.5e-2 and 0.5 relative; the residual
        # norm measures 1.0e-13, 4.6e-11 and 2.3e-9, the states' phase error
        run = run_scenario(
            ScenarioConfig(
                scenario="driven",
                steps=steps,
                unit_system="si",
                parameters={"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0},
            )
        )
        h, trace = run.hamiltonian, run.trace
        law = dispersion_driven_closed(h.epsilon, h.omega, h.omega0, trace.times, h.hbar)
        assert np.max(np.abs(trace.energy_dispersion / law - 1.0)) <= rel_tol

    def test_driven_si_larmor_frequency(self):
        cfg = ScenarioConfig(
            scenario="driven",
            steps=200,
            unit_system="si",
            parameters={"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0},
        )
        run = run_scenario(cfg)
        assert 27.5e9 < run.extras["nu_larmor_hz"] < 28.5e9
        assert "constants" in run.extras

    def test_driven_si_effective_time(self):
        cfg = ScenarioConfig(
            scenario="driven",
            steps=200,
            unit_system="si",
            parameters={"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0},
        )
        run = run_scenario(cfg)
        assert 1.7e-5 < run.extras["t_effective_seconds"] < 1.9e-5

    def test_static_si_effective_time(self):
        cfg = ScenarioConfig(
            scenario="static",
            steps=200,
            unit_system="si",
            parameters={"b_perp_tesla": 1e-6},
        )
        run = run_scenario(cfg)
        assert 1.7e-5 < run.extras["t_effective_seconds"] < 1.9e-5

    def test_custom_with_instance(self):
        h = ConstantMatrix(1.0 * PAULI_X)
        cfg = ScenarioConfig(
            scenario="custom", steps=400, parameters={"t_final": math.pi / 2.0}
        )
        run = run_scenario(cfg, hamiltonian=h)
        assert run.report.eta == pytest.approx(1.0, abs=1e-9)

    def test_custom_with_json_spec(self):
        doc = {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        cfg = ScenarioConfig(
            scenario="custom", steps=400, parameters={"t_final": 1.0}
        )
        run = run_scenario(cfg, hamiltonian=doc)
        assert isinstance(run.hamiltonian, ConstantMatrix)
        assert run.report.bound_satisfied

    def test_custom_with_start_state(self):
        h = ConstantMatrix(1.0 * PAULI_X)
        cfg = ScenarioConfig(
            scenario="custom", steps=400, parameters={"t_final": 1.0}
        )
        psi0 = QuantumState.normalized([1.0, 1.0j])
        run = run_scenario(cfg, hamiltonian=h, psi0=psi0)
        np.testing.assert_array_equal(
            run.trace.amplitudes[0], psi0.amplitudes
        )

    @pytest.mark.parametrize("steps", [500, 2000, 8000])
    def test_modulated_geodesic_saturates_the_bound(self, steps):
        # H(t) = (1 + 0.8 sin 3t) sigma_x keeps |0> on the geodesic
        # (cos theta, -i sin theta), theta(t) = t + (0.8/3)(1 - cos 3t), so eta = 1
        def theta(t):
            return t + (0.8 / 3.0) * (1.0 - math.cos(3.0 * t))

        t_final = brentq(lambda t: theta(t) - 0.98 * math.pi / 2.0, 0.0, 2.0, xtol=1e-15)
        h = TimeDependent(lambda t: (1.0 + 0.8 * math.sin(3.0 * t)) * PAULI_X, dimension=2)
        cfg = ScenarioConfig(scenario="custom", steps=steps, parameters={"t_final": t_final})
        run = run_scenario(cfg, hamiltonian=h)
        assert abs(run.report.eta - 1.0) <= 1e-11
        assert run.report.bound_satisfied
        th = theta(t_final)
        np.testing.assert_allclose(
            run.trace.final_state.amplitudes, [math.cos(th), -1j * math.sin(th)], rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize(
        "hamiltonian",
        [ConstantMatrix(PAULI_X), {"kind": "two_level_static", "epsilon": 1.0}],
        ids=["instance", "preset-spec"],
    )
    def test_custom_refuses_hbar_that_its_hamiltonian_carries(self, hamiltonian):
        cfg = ScenarioConfig(
            scenario="custom", steps=100, parameters={"t_final": 1.0, "hbar": 2.0}
        )
        with pytest.raises(ValueError, match="^hbar is read only for a bare re/im matrix"):
            run_scenario(cfg, hamiltonian=hamiltonian)
        cfg = ScenarioConfig(scenario="custom", steps=100, parameters={"t_final": 1.0})
        assert run_scenario(cfg, hamiltonian=hamiltonian).trace.hbar == 1.0

    def test_custom_reads_hbar_for_a_bare_matrix(self):
        doc = {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        cfg = ScenarioConfig(
            scenario="custom", steps=100, parameters={"t_final": 1.0, "hbar": 2.0}
        )
        run = run_scenario(cfg, hamiltonian=doc)
        assert run.trace.hbar == 2.0
        assert run.hamiltonian.hbar == 2.0

    def test_custom_without_hamiltonian(self):
        cfg = ScenarioConfig(scenario="custom", parameters={"t_final": 1.0})
        with pytest.raises(ValueError):
            run_scenario(cfg)


class TestEmitTable:
    def static_report(self):
        return run_scenario(ScenarioConfig(scenario="static", steps=500)).report

    def driven_report(self):
        return run_scenario(ScenarioConfig(scenario="driven", steps=500)).report

    def test_static_row(self):
        text = emit_table([self.static_report()])
        assert "Optimal Quantum Evolution Condition" in text
        assert "orthogonal" in text
        assert "h/4" in text
        assert "geodesic (eta = 1)" in text

    def test_driven_row(self):
        text = emit_table([self.driven_report()])
        # the detuned transfer ends at overlap detuning/(2 kappa) > 0
        assert "nonorthogonal" in text
        assert "arccos" in text
        assert "suboptimal (eta < 1)" in text

    def test_multiple_rows(self):
        text = emit_table([self.static_report(), self.driven_report()])
        assert len(text.splitlines()) == 6

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            emit_table([])

    def test_inequality_numbers_are_consistent(self):
        rep = self.driven_report()
        line = emit_table([rep]).splitlines()[-1]
        lhs = float(line.split(">=")[0].split("=")[-1])
        assert lhs == pytest.approx(rep.avg_dispersion * rep.t_effective, rel=1e-8)


class TestCliScenarios:
    def test_scenario1_json(self, capsys):
        code, out, err = run_cli(capsys, "scenario1")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["eta"] == pytest.approx(1.0, abs=1e-9)
        assert doc["config"]["scenario"] == "static"

    def test_scenario1_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "scenario1", "--steps", "300")
        _, out2, _ = run_cli(capsys, "scenario1", "--steps", "300")
        assert out1 == out2

    def test_scenario1_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "scenario1", "--output", "table")
        assert code == 0
        assert "geodesic (eta = 1)" in out

    def test_scenario1_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "scenario1", "--steps", "100", "--output", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,re_0,im_0,re_1,im_1,energy_mean,energy_dispersion"
        assert len(lines) == 102

    def test_scenario2_si_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scenario2",
            "--steps",
            "200",
            "--unit-system",
            "si",
            "--b-perp-tesla",
            "1e-6",
            "--b-parallel-tesla",
            "1.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert 27.5e9 < doc["extras"]["nu_larmor_hz"] < 28.5e9
        assert 1.7e-5 < doc["extras"]["t_effective_seconds"] < 1.9e-5

    @pytest.mark.parametrize(
        "argv, named",
        [
            (
                ["scenario1", "--unit-system", "si", "--b-perp-tesla", "1e-6"]
                + ["--epsilon", "5", "--hbar", "2"],
                "epsilon",
            ),
            (["scenario1", "--b-perp-tesla", "1e-6"], "b_perp_tesla"),
        ],
    )
    def test_ignored_scenario_flag_is_refused_by_name(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv, "--steps", "200")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named} is not read by the static scenario")

    def test_ignored_config_value_is_refused_by_name(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epsilon": 2.0, "omega": 0.3}))
        code, out, err = run_cli(capsys, "scenario1", "--config", str(cfg_path), "--steps", "200")
        assert (code, out) == (1, "")
        assert err.startswith("error: omega is not read by the static scenario in natural units")

    def test_scenario2_si_missing_fields(self, capsys):
        code, _, err = run_cli(
            capsys, "scenario2", "--unit-system", "si", "--steps", "200"
        )
        assert code == 1
        assert "b_perp_tesla" in err

    def test_scenario_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        code, _, _ = run_cli(
            capsys, "scenario1", "--steps", "200", "--out", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "report.json").exists()

    def test_trace_report_round_trip_is_bit_identical(self, capsys, tmp_path):
        out_dir = tmp_path / "roundtrip"
        run_cli(capsys, "scenario2", "--steps", "250", "--out", str(out_dir))
        code, out, _ = run_cli(capsys, "verify", str(out_dir / "trace.json"))
        assert code == 0
        assert out.strip() == (out_dir / "report.json").read_text().strip()

    @pytest.mark.parametrize(
        "tamper, named",
        [
            pytest.param(
                lambda doc: doc["states"][57].update(
                    re=[x * (1.0 + 1e-6) for x in doc["states"][57]["re"]],
                    im=[x * (1.0 + 1e-6) for x in doc["states"][57]["im"]],
                ),
                "norm drift",
                id="off-unit-norm",
            ),
            pytest.param(
                lambda doc: doc["states"][57]["im"].append(0.0),
                "states are not an (n, dim) array",
                id="re-im-length-mismatch",
            ),
            pytest.param(
                lambda doc: doc["states"][57].update(re=1.0),
                "states are not an (n, dim) array",
                id="scalar-re",
            ),
            pytest.param(
                lambda doc: doc["energy_mean"].__setitem__(57, math.nan),
                "energy_mean must be finite",
                id="nan-energy-mean",
            ),
            pytest.param(
                lambda doc: doc["energy_dispersion"].__setitem__(57, math.nan),
                "energy_dispersion must be finite",
                id="nan-energy-dispersion",
            ),
            pytest.param(
                lambda doc: doc["energy_dispersion"].__setitem__(57, math.inf),
                "energy_dispersion must be finite",
                id="inf-energy-dispersion",
            ),
            pytest.param(
                lambda doc: doc["times"].__setitem__(57, math.nan),
                "times must be finite",
                id="nan-time",
            ),
            pytest.param(
                # orjson refuses the literal 1e400; the string stands for it, as json.dumps cannot write it
                lambda doc: doc["energy_dispersion"].__setitem__(57, "1e400"),
                "energy_dispersion must be finite",
                id="1e400-energy-dispersion",
            ),
            pytest.param(
                lambda doc: doc["states"][2]["im"].__setitem__(1, math.inf),
                "norm drift inf at node 2",
                id="inf-imaginary-part",
            ),
            pytest.param(
                lambda doc: doc["states"][2]["re"].__setitem__(0, 1e200),
                "norm drift inf at node 2",
                id="overflowing-amplitude",
            ),
        ],
    )
    def test_verify_rejects_tampered_trace(self, capsys, tmp_path, tamper, named):
        out_dir = tmp_path / "tampered"
        run_cli(capsys, "scenario1", "--steps", "200", "--out", str(out_dir))
        path = out_dir / "trace.json"
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert named in err

    @pytest.mark.parametrize(
        "tamper, named",
        [
            pytest.param(
                lambda doc: doc.update(times=[repr(t) for t in doc["times"]]),
                "times must be an array of JSON numbers, got str",
                id="times-as-strings",
            ),
            pytest.param(
                # unit-norm rows that jump from |0> to |1> halfway
                lambda doc: doc.update(states=[
                    {"re": [k <= 100, k > 100], "im": [False, False]} for k in range(201)
                ]),
                "states must be an array of JSON numbers, got bool",
                id="boolean-state-rows",
            ),
        ],
    )
    def test_verify_refuses_json_non_numbers(self, capsys, tmp_path, tamper, named):
        # numpy would read "0.5" as 0.5 and true as 1.0, and both traces would verify
        run_cli(capsys, "scenario1", "--steps", "200", "--out", str(tmp_path))
        path = tmp_path / "trace.json"
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named}")

    @pytest.mark.parametrize(
        "command, tamper, named",
        [
            pytest.param("table", lambda doc: {**doc, "eta": None}, "eta must be a JSON number",
                         id="table-eta-null"),
            pytest.param("table", lambda doc: {**doc, "s0": True}, "s0 must be a JSON number",
                         id="table-s0-bool"),
            pytest.param("table", lambda doc: [1, 2], "a report must be a JSON object",
                         id="table-list"),
            pytest.param("table", lambda doc: "report", "a report must be a JSON object",
                         id="table-string"),
            pytest.param("verify", lambda doc: {**doc, "hbar": None}, "hbar must be a JSON number",
                         id="verify-hbar-null"),
            pytest.param("verify", lambda doc: {**doc, "times": {"0": 0.0}},
                         "times must be an array of JSON numbers", id="verify-times-object"),
            pytest.param("verify", lambda doc: [doc], "a trace must be a JSON object",
                         id="verify-list"),
        ],
    )
    def test_wrong_json_type_is_named(self, capsys, tmp_path, command, tamper, named):
        run_cli(capsys, "scenario1", "--steps", "200", "--out", str(tmp_path))
        path = tmp_path / ("report.json" if command == "table" else "trace.json")
        path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named}")

    @pytest.mark.parametrize(
        "command, tamper, named",
        [
            pytest.param("verify", lambda doc: doc.pop("times"), "times", id="verify-times"),
            pytest.param("verify", lambda doc: doc["states"][3].pop("im"), "states[3].im",
                         id="verify-state-3-im"),
            pytest.param("table", lambda doc: doc.pop("eta"), "eta", id="table-eta"),
            pytest.param("table", lambda doc: doc.pop("bound_satisfied"), "bound_satisfied",
                         id="table-bound-satisfied"),
        ],
    )
    def test_missing_field_is_named(self, capsys, tmp_path, command, tamper, named):
        # each used to exit 1 with the bare key, as in "error: 'times'"
        run_cli(capsys, "scenario1", "--steps", "200", "--out", str(tmp_path))
        path = tmp_path / ("report.json" if command == "table" else "trace.json")
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {named} is missing\n"

    @pytest.mark.parametrize(
        "cfg, named",
        [
            ({"epsilon": [1]}, "epsilon must be a JSON number"),
            ({"epsilon": True}, "epsilon must be a JSON number"),
            ({"hbar": "1"}, "hbar must be a JSON number"),
            ({"steps": None}, "steps must be a JSON integer"),
            ({"steps": 150.7}, "steps must be a JSON integer"),
        ],
        ids=["epsilon-list", "epsilon-bool", "hbar-string", "steps-null", "steps-fraction"],
    )
    def test_config_value_of_wrong_type_is_named(self, capsys, tmp_path, cfg, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "scenario1", "--config", str(cfg_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named}")

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epsilon": 2.0, "steps": 150}))
        code, out, _ = run_cli(capsys, "scenario1", "--config", str(cfg_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["parameters"]["epsilon"] == 2.0
        assert doc["config"]["steps"] == 150
        assert doc["report"]["t_effective"] == pytest.approx(math.pi / 4.0)

        code, out, _ = run_cli(
            capsys, "scenario1", "--config", str(cfg_path), "--steps", "300"
        )
        assert json.loads(out)["config"]["steps"] == 300  # flags win

    @pytest.mark.parametrize(
        "command, key",
        [("scenario1", "epsilom"), ("scenario2", "omega_0"), ("scenario1", "out")],
    )
    def test_unknown_config_key_is_refused_by_name(self, capsys, tmp_path, command, key):
        # a misspelt key used to be dropped: exit 0 at the default epsilon = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: 2.0}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg_path), "--steps", "200")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: unknown config key {key!r}")


def synthetic_report(eta=1.024):
    """A report with s0/s = eta (hbar = 1); eta > 1 violates the bound."""
    s0 = 3.0
    s = s0 / eta
    return SpeedLimitReport(
        s0=s0,
        s=s,
        eta=eta,
        t_effective=2.0,
        t_ideal=2.0 * eta,
        avg_dispersion=0.25 * s,
        bound_satisfied=eta <= 1.0 + 1e-9,
        quadrature_error=1e-12,
    )


class TestBoundViolation:
    def test_table_shows_violated_inequality(self):
        line = emit_table([synthetic_report()]).splitlines()[-1]
        assert "violation (eta > 1)" in line
        assert "geodesic" not in line and "suboptimal" not in line
        assert ">=" not in line
        inequality = line.split("<dE>*T = ")[1].split(" = hbar")[0]
        lhs, rhs = (float(x) for x in inequality.split(" < "))
        assert lhs < rhs

    def test_geodesic_flag_needs_eta_within_1e_9(self):
        near = synthetic_report(eta=1.0 - 1e-6)
        assert "suboptimal (eta < 1)" in emit_table([near])
        exact = synthetic_report(eta=1.0 + 5e-10)
        assert "geodesic (eta = 1)" in emit_table([exact])

    @pytest.mark.parametrize("command", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("output", ["json", "table"])
    def test_scenario_exits_2_on_violation(self, capsys, monkeypatch, command, output):
        import dataclasses

        import qgeo.cli as cli_module

        real = cli_module.run_scenario

        def rigged(cfg):
            return dataclasses.replace(real(cfg), report=synthetic_report())

        monkeypatch.setattr(cli_module, "run_scenario", rigged)
        code, out, _ = run_cli(capsys, command, "--steps", "200", "--output", output)
        assert code == 2
        if output == "json":
            assert json.loads(out)["report"]["bound_satisfied"] is False
        else:
            assert "violation (eta > 1)" in out

    def test_verify_exits_2_on_violating_trace(self, capsys, tmp_path):
        # the geodesic static transfer with every dispersion halved: s = pi/2, eta = 2
        assert run_cli(capsys, "scenario1", "--steps", "2000", "--out", str(tmp_path))[0] == 0
        path = tmp_path / "trace.json"
        doc = json.loads(path.read_text())
        doc["energy_dispersion"] = [0.5 * x for x in doc["energy_dispersion"]]
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 2
        report = json.loads(out)
        assert report["bound_satisfied"] is False
        assert report["eta"] == pytest.approx(2.0, rel=1e-9)

    def test_verify_accepts_a_close_endpoint_geodesic(self, capsys, tmp_path):
        # arccos of an overlap 1e-10 below 1 read this geodesic as eta = 1.0000505, exit 2
        h = ConstantMatrix(0.7 * np.array([[0.0, -1j], [1j, 0.0]]))
        tr = evolve(h, QuantumState.exact([1.0, 0.0]), min_time(1.0 - 1e-10, 0.7), steps=200)
        _write_trace(tmp_path, tr, h)
        code, out, _ = run_cli(capsys, "verify", str(tmp_path / "trace.json"))
        assert code == 0
        assert abs(json.loads(out)["eta"] - 1.0) <= 1e-12

    def test_table_exits_2_on_violating_report(self, capsys, tmp_path):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(synthetic_report(eta=0.9).to_json()))
        bad.write_text(json.dumps(synthetic_report().to_json()))
        assert run_cli(capsys, "table", str(good))[0] == 0
        code, out, _ = run_cli(capsys, "table", str(good), str(bad))
        assert code == 2
        assert "violation (eta > 1)" in out

    @pytest.mark.parametrize(
        "field, value",
        [("s", 0.0), ("s", -1.0), ("bound_satisfied", "no"), ("bound_satisfied", 1)],
    )
    def test_table_rejects_a_hostile_report(self, capsys, tmp_path, field, value):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({**synthetic_report(eta=0.9).to_json(), field: value}))
        code, out, err = run_cli(capsys, "table", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field} must be ")


def band_trace():
    """The geodesic cos t|0> - i sin t|1>, t in [0, pi/2], with a dispersion that overshoots.

    201 nodes, mean energy 0 and dispersion lam*(1 + 0.3 t^5), with lam chosen
    so that s - s0 = 10*quadrature_error + 0.5e-12*s: between the two
    tolerances of a second bound check that once refused such valid traces.
    """
    t = np.linspace(0.0, 0.5 * math.pi, 201)
    amps = np.column_stack([np.cos(t), -1j * np.sin(t)])
    shape = 1.0 + 0.3 * t**5
    unit = efficiency(EvolutionTrace(t, amps, np.zeros_like(t), shape))
    lam = unit.s0 / (unit.s - 10.0 * unit.quadrature_error - 0.5e-12 * unit.s)
    return EvolutionTrace(t, amps, np.zeros_like(t), lam * shape)


class TestOneBoundCheck:
    """``efficiency`` alone decides the bound; ``verify`` prints what it reports."""

    def test_band_trace_verifies(self, capsys, tmp_path):
        report = efficiency(band_trace())
        excess = report.s - report.s0
        assert 10.0 * report.quadrature_error < excess
        assert excess <= 10.0 * report.quadrature_error + 1e-12 * report.s
        assert report.bound_satisfied and report.eta < 1.0
        path = tmp_path / "band.json"
        path.write_text(json.dumps(band_trace().to_json()))
        # this used to exit 1: "bound saturated but the trace is not geodesic ..."
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out) == report.to_json()


class TestSelfContradictoryReport:
    """``table`` refuses a report whose fields contradict each other."""

    def write(self, tmp_path, **fields):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**synthetic_report(eta=0.9).to_json(), **fields}))
        return path

    def test_violating_eta_flagged_as_satisfied_is_refused(self, capsys, tmp_path):
        # eta 2 with s0 = pi and s = pi/2 used to print "suboptimal (eta < 1)" and exit 0
        path = self.write(tmp_path, eta=2.0, s0=math.pi, s=0.5 * math.pi, bound_satisfied=True)
        code, out, err = run_cli(capsys, "table", str(path))
        assert (code, out) == (1, "")
        assert err == "error: bound_satisfied = true contradicts eta = 2.0\n"

    def test_eta_that_is_not_s0_over_s_is_refused(self, capsys, tmp_path):
        path = self.write(tmp_path, eta=0.5, s0=math.pi, s=0.5 * math.pi, bound_satisfied=True)
        code, out, err = run_cli(capsys, "table", str(path))
        assert (code, out) == (1, "")
        assert err == "error: eta = 0.5 contradicts s0/s = 2.0\n"

    @pytest.mark.parametrize("eta", [0.9, 1.024])
    def test_bound_flag_that_contradicts_eta_is_refused(self, capsys, tmp_path, eta):
        doc = synthetic_report(eta=eta).to_json()
        path = self.write(tmp_path, **{**doc, "bound_satisfied": not doc["bound_satisfied"]})
        code, out, err = run_cli(capsys, "table", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: bound_satisfied = ")

    @pytest.mark.parametrize(
        "fields, named",
        [
            # each used to exit 0: s0/s overflows to inf, and |eta - inf| <= ETA_ROUNDOFF*inf
            pytest.param({"s0": 1e308, "s": 1e-308}, "s0 must lie in [0, pi]", id="huge-s0"),
            pytest.param(
                {"s": 1e-308, "eta": 1e308, "bound_satisfied": False},
                "s0/s = inf is not finite",
                id="overflowing-ratio",
            ),
            pytest.param({"s0": 4.0, "s": 4.0, "eta": 1.0}, "s0 must lie in [0, pi]", id="s0-past-pi"),
            pytest.param({"s0": -1.0, "eta": -1.0 / 3.0}, "s0 must lie in [0, pi]", id="negative-s0"),
        ],
    )
    def test_s0_off_the_geodesic_range_is_refused(self, capsys, tmp_path, fields, named):
        path = self.write(tmp_path, **{"s": 3.0, "eta": 1.0, "bound_satisfied": True, **fields})
        code, out, err = run_cli(capsys, "table", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named}")

    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    def test_scenario_reports_still_load(self, capsys, tmp_path, scenario):
        run_cli(capsys, scenario, "--steps", "2000", "--out", str(tmp_path))
        code, out, err = run_cli(capsys, "table", str(tmp_path / "report.json"))
        assert (code, err) == (0, "")
        assert "eta = " in out

    def test_eta_within_round_off_of_s0_over_s_is_accepted(self):
        doc = synthetic_report(eta=0.9).to_json()
        assert doc["eta"] != doc["s0"] / doc["s"]  # s = s0/eta is off by an ulp
        assert SpeedLimitReport.from_json(doc).eta == 0.9

    def test_eta_beyond_round_off_is_refused(self):
        doc = synthetic_report(eta=0.9).to_json()
        with pytest.raises(ValueError, match="^eta = "):
            SpeedLimitReport.from_json({**doc, "eta": doc["eta"] * (1.0 + 1e-12)})


class TestParserReuse:
    def test_main_builds_one_parser_for_many_calls(self, capsys, monkeypatch):
        import qgeo.cli as cli_module

        built = []
        monkeypatch.setattr(cli_module, "build_parser", lambda: built.append(1) or build_parser())
        cli_module._shared_parser.cache_clear()
        try:
            code, out, _ = run_cli(capsys, "scenario1", "--steps", "200", "--epsilon", "2.0")
            assert (code, json.loads(out)["report"]["t_effective"]) == (0, 0.25 * math.pi)
            # a flag of the first call does not carry over to the next
            code, out, _ = run_cli(capsys, "scenario1", "--steps", "200")
            assert (code, json.loads(out)["report"]["t_effective"]) == (0, 0.5 * math.pi)
            assert run_cli(capsys, "scenario1", "--steps", "not-a-number")[0] == 1
        finally:
            cli_module._shared_parser.cache_clear()
        assert built == [1]

    def test_import_builds_no_parser(self):
        code = "import qgeo.cli as c; print(c._shared_parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.stdout == "0\n", out.stderr


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["scenario1", "--epsilon", "inf"], "epsilon"),
            (["scenario1", "--hbar", "inf"], "hbar"),
            (["scenario2", "--omega", "inf"], "omega"),
            (["bound", "--overlap", "0.5", "--dispersion", "inf"], "dispersion"),
            (
                ["bound", "--overlap", "0.5", "--dispersion", "1", "--hbar", "inf"],
                "hbar",
            ),
            (
                ["implicit", "--epsilon", "inf", "--omega", "0.25", "--omega0", "0.2"],
                "epsilon",
            ),
            # finite flags whose derived quantities overflow
            (
                ["implicit", "--epsilon", "1", "--omega", "1e200", "--omega0", "1e200"],
                "coefficient_a",
            ),
            (["scenario2", "--omega0", "1e308"], "(hbar*omega0/2)^2"),
            # a finite hbar/dispersion whose minimum time overflows
            (["bound", "--overlap", "0.5", "--dispersion", "1e-320"], "hbar/dispersion"),
            (
                ["bound", "--overlap", "0", "--dispersion", "1", "--hbar", "1.5e308"],
                "hbar/dispersion",
            ),
            (
                ["scenario1", "--unit-system", "si", "--b-perp-tesla", "inf"],
                "b_perp_tesla",
            ),
            # finite fields whose spin rates overflow
            (
                ["scenario1", "--unit-system", "si", "--b-perp-tesla", "1e300"],
                "b_perp_tesla",
            ),
            (
                [
                    "scenario2",
                    "--unit-system",
                    "si",
                    "--b-perp-tesla",
                    "1e-6",
                    "--b-parallel-tesla",
                    "1e300",
                ],
                "b_parallel_tesla",
            ),
        ],
    )
    def test_exits_1_naming_the_parameter(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ")
        assert name in err.split(" must be positive and finite")[0]
        assert "Infinity" not in out

    @pytest.mark.parametrize(
        "epsilon, cause",
        [("1e308", "2*epsilon/hbar overflows"), ("8e307", "is subnormal")],
    )
    def test_epsilon_near_the_float_maximum_is_refused_by_name(self, capsys, epsilon, cause):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "scenario1", "--epsilon", epsilon)
        assert code == 1
        assert err.startswith(f"error: epsilon = {float(epsilon)!r} is too large")
        assert cause in err
        assert out == ""

    def test_non_finite_output_is_an_error_not_json_infinity(self, capsys, monkeypatch):
        import qgeo.cli as cli_module

        monkeypatch.setattr(cli_module, "min_time", lambda *args: math.inf)
        code, out, err = run_cli(
            capsys, "bound", "--overlap", "0.5", "--dispersion", "1"
        )
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""


def stdlib_dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


class TestDumpJson:
    @pytest.mark.parametrize("command", ["scenario1", "scenario2"])
    def test_written_files_are_the_stdlib_rendering(self, capsys, tmp_path, command):
        code, out, _ = run_cli(capsys, command, "--steps", "400", "--out", str(tmp_path))
        assert code == 0
        run = run_scenario(
            ScenarioConfig(scenario="static" if command == "scenario1" else "driven", steps=400)
        )
        trace_json = (tmp_path / "trace.json").read_text()
        assert trace_json == stdlib_dump(run.trace.to_json(run.hamiltonian)) + "\n"
        assert (tmp_path / "report.json").read_text() == stdlib_dump(run.report.to_json()) + "\n"
        envelope = {"config": run.config.to_json(), "report": run.report.to_json(), "extras": {}}
        assert out == stdlib_dump(envelope) + "\n"


def csv_writer_rendering(tr):
    """trace.csv as csv.writer writes the repr of every cell."""
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(
        ["t", *[f"{p}_{k}" for k in range(tr.dim) for p in ("re", "im")],
         "energy_mean", "energy_dispersion"]
    )
    for t, amps, mean, disp in zip(tr.times, tr.amplitudes, tr.energy_mean, tr.energy_dispersion):
        cells = [t, *[x for a in amps for x in (a.real, a.imag)], mean, disp]
        writer.writerow([repr(float(x)) for x in cells])
    return want.getvalue()


def first_difference(got, want):
    """None when equal, else the offset and the text around the first differing character.

    pytest's own diff of two long strings can take minutes.
    """
    if got == want:
        return None
    i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return i, got[max(i - 40, 0) : i + 40], want[max(i - 40, 0) : i + 40]


def edge_trace(dim, n_nodes):
    """A trace built directly, holding -0.0, 5e-324 and 1e-300 among random values, up to t = 1e300."""
    rng = np.random.default_rng(1000 * dim + n_nodes)
    re, im = rng.normal(size=(2, n_nodes, dim))

    def plant():  # values too small to move a norm
        re[:, 0], im[:, 0] = -0.0, 5e-324
        re[1::2, 1], im[::2, -1] = 1e-300, -0.0

    plant()
    norm = np.sqrt(np.sum(re * re + im * im, axis=1, keepdims=True))
    re, im = re / norm, im / norm
    plant()
    amps = np.empty((n_nodes, dim), dtype=complex)
    amps.real, amps.imag = re, im
    mean = rng.normal(size=n_nodes) * 1e-300
    mean[::2] = -0.0
    disp = rng.uniform(0.0, 1e300, n_nodes)
    disp[::4] = 5e-324
    times = np.linspace(-1.0, 1e300, n_nodes) if n_nodes > 1 else np.array([1e300])
    return EvolutionTrace(times, amps, mean, disp, hbar=1.0545718176461565e-34)


def writer_hamiltonians(dim):
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    cases = {
        "none": None,
        "time-dependent": TimeDependent(lambda t: np.eye(dim) * t, dim),
        "constant-matrix": ConstantMatrix(g + g.conj().T),
    }
    if dim == 2:
        cases["static"] = TwoLevelStatic(epsilon=0.7, hbar=1.3)
        cases["driven"] = TwoLevelDriven(epsilon=1.0, omega=0.25, omega0=0.2)
    return cases


def zero_column_trace(n_nodes, zeros):
    """A trace on the geodesic cos t|0> - i sin t|1>: im_0, re_1 and energy_mean are ``zeros``."""
    t = np.linspace(0.0, 1.0, n_nodes)
    amps = np.empty((n_nodes, 2), dtype=complex)
    amps.real[:, 0], amps.imag[:, 0] = np.cos(t), zeros
    amps.real[:, 1], amps.imag[:, 1] = zeros, -np.sin(t)
    return EvolutionTrace(t, amps, zeros, np.ones(n_nodes), hbar=1.0)


def assert_stdlib_renderings(out_dir, tr, h):
    """_write_trace writes json.dumps of to_json() and the csv.writer rendering."""
    _write_trace(out_dir, tr, h)
    want = json.dumps(tr.to_json(h), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert first_difference((out_dir / "trace.json").read_text(), want) is None
    with open(out_dir / "trace.csv", newline="") as fh:
        assert first_difference(fh.read(), csv_writer_rendering(tr)) is None


class TestTraceWriter:
    """trace.json and trace.csv from one formatting pass equal the stdlib renderings."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize(
        "n_nodes", [1, 3, 5, _WRITE_BLOCK - 1, _WRITE_BLOCK, _WRITE_BLOCK + 1, 2 * _WRITE_BLOCK + 1]
    )
    def test_files_are_the_stdlib_renderings(self, tmp_path, dim, n_nodes):
        tr = edge_trace(dim, n_nodes)
        want_csv = csv_writer_rendering(tr)
        for name, h in writer_hamiltonians(dim).items():
            out_dir = tmp_path / name
            out_dir.mkdir()
            _write_trace(out_dir, tr, h)
            want = json.dumps(tr.to_json(h), sort_keys=True, indent=2, allow_nan=False) + "\n"
            assert first_difference((out_dir / "trace.json").read_text(), want) is None, name
            with open(out_dir / "trace.csv", newline="") as fh:
                assert first_difference(fh.read(), want_csv) is None, name

    def test_edge_values_reach_the_files(self, tmp_path):
        tr = edge_trace(3, 5)
        _write_trace(tmp_path, tr, None)
        doc = (tmp_path / "trace.json").read_text()
        for text in ("-0.0", "5e-324", "1e-300", "1e+300"):
            assert text in doc
        assert EvolutionTrace.from_json(json.loads(doc)).amplitudes.tobytes() == tr.amplitudes.tobytes()

    def test_csv_output_is_the_csv_writer_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "scenario2", "--steps", "300", "--output", "csv")
        assert code == 0
        run = run_scenario(ScenarioConfig(scenario="driven", steps=300))
        assert first_difference(out, csv_writer_rendering(run.trace)) is None

    @pytest.mark.parametrize(
        "zeros",
        [
            lambda n: np.zeros(n),
            lambda n: np.full(n, -0.0),
            lambda n: np.where(np.arange(n) % 3 == 1, -0.0, 0.0),
            lambda n: np.where(np.arange(n) % 3 == 0, -0.0, 0.0),
        ],
        ids=["all-zero", "all-negative-zero", "mixed-zero-first", "mixed-negative-zero-first"],
    )
    def test_signed_zero_columns_keep_their_signs(self, tmp_path, zeros):
        # 0.0 == -0.0, so only the bits tell a mixed column from a constant one
        n_nodes = 2 * _WRITE_BLOCK + 1
        assert_stdlib_renderings(tmp_path, zero_column_trace(n_nodes, zeros(n_nodes)), None)

    @pytest.mark.parametrize("dim", [3, 32])
    def test_constant_matrix_trace_files(self, tmp_path, dim):
        h = writer_hamiltonians(dim)["constant-matrix"]
        tr = evolve(h, QuantumState.exact([1.0] + [0.0] * (dim - 1)), 2.0, 300)
        assert_stdlib_renderings(tmp_path, tr, h)

    def test_columns_across_the_layout_switch_points(self, tmp_path):
        # |0> under E(sigma_x + 2) with E = 1e16 for a quarter period: the times
        # are all below 1e-4, the mean is all above 1e16, the dispersion sits on
        # both sides of 1e16, and the amplitudes mix tiny and ordinary entries
        energy = 1e16
        h = ConstantMatrix(energy * (PAULI_X + 2.0 * np.eye(2)))
        tr = evolve(h, QuantumState.exact([1.0, 0.0]), math.pi / (2.0 * energy), 300)
        assert_stdlib_renderings(tmp_path, tr, h)
        times, *amps, mean, dispersion = tr.float_columns()
        assert all("e-" in text for text in times[1:])
        assert all("e+16" in text for text in mean)
        assert "1e+16" in dispersion and any(text.startswith("99999999") for text in dispersion)
        for column in amps:
            assert any("e-" in text for text in column) and any("e" not in text for text in column)

    @pytest.mark.parametrize("steps", [300, 2000])
    def test_scenario2_trace_files(self, tmp_path, steps):
        run = run_scenario(ScenarioConfig(scenario="driven", steps=steps))
        assert_stdlib_renderings(tmp_path, run.trace, run.hamiltonian)

    def test_constant_columns_are_formatted_once(self):
        # t, re_0, im_0, re_1, im_1, energy_mean, energy_dispersion of cos t|0> - i sin t|1>
        columns = run_scenario(ScenarioConfig(scenario="static", steps=20000)).trace.float_columns()
        assert [len({id(text) for text in col}) for col in columns] == [20001, 20001, 1, 1, 20001, 1, 20001]
        assert [len(col) for col in columns] == [20001] * 7
        assert columns[2][0] == columns[3][0] == columns[5][0] == "0.0"

    @pytest.mark.parametrize("command", ["scenario1", "scenario2"])
    def test_out_with_csv_output_formats_once(self, capsys, tmp_path, monkeypatch, command):
        calls = []
        float_columns = EvolutionTrace.float_columns
        monkeypatch.setattr(
            EvolutionTrace, "float_columns", lambda tr: calls.append(1) or float_columns(tr)
        )
        code, out, _ = run_cli(
            capsys, command, "--steps", "300", "--output", "csv", "--out", str(tmp_path)
        )
        assert (code, len(calls)) == (0, 1)
        assert out.encode() == (tmp_path / "trace.csv").read_bytes()


def repr_corpus():
    """Columns at orjson's layout switch points, at the edges of the format, and tiny columns.

    Every one of them holds an entry that orjson lays out unlike ``repr``.
    """
    rng = np.random.default_rng(30)
    neighbours = [
        np.nextafter(sign * x, sign * x * side)
        for x in (1e-5, 1e-4, 1e16)
        for sign in (1.0, -1.0)
        for side in (0.0, 1.0, np.inf)
    ]
    # log-uniform below 1e-4: orjson writes 0.0000x above 1e-5 and a one-digit
    # exponent down to 1e-9, while two-digit exponents agree with repr
    tiny = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-20.0, -4.0, 1000)
    ordinary = rng.normal(size=1000)
    max_float, min_normal = np.finfo(float).max, np.finfo(float).tiny
    return {
        "switch-neighbours": neighbours,
        "subnormals-zeros-max": [5e-324, -5e-324, np.nextafter(min_normal, 0.0), min_normal,
                                 0.0, -0.0, max_float, -max_float],
        "all-tiny": tiny,
        "mixed-30%-tiny": np.where(rng.random(1000) < 0.3, tiny, ordinary),
        "mixed-70%-tiny": np.where(rng.random(1000) < 0.7, tiny, ordinary),
        "non-finite": [np.nan, np.inf, -np.inf, 1.0],
    }


REPR_CORPUS = repr_corpus()


class TestReprColumn:
    """_repr_column takes orjson's digits, so it must stay float.__repr__ entry by entry."""

    @pytest.mark.parametrize("name", REPR_CORPUS)
    def test_corpus_is_float_repr(self, name):
        col = np.array(REPR_CORPUS[name], dtype=np.float64)
        assert _repr_column(col) == list(map(float.__repr__, col.tolist()))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(-1e-3, 1e-3),
                st.floats(1e15, 1e17),
            ),
            min_size=1,
            max_size=64,
        )
    )
    def test_finite_columns_are_float_repr(self, values):
        col = np.array(values, dtype=np.float64)
        assert _repr_column(col) == list(map(float.__repr__, values))


#: Finite floats at the edges of the format: signed zeros, subnormals and the largest magnitudes.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]


def float_bits(value):
    """Every float in a parsed document as ``float.hex``, in order; the type of anything else."""
    if isinstance(value, dict):
        return [float_bits(value[k]) for k in sorted(value)]
    if isinstance(value, list):
        return [float_bits(v) for v in value]
    return value.hex() if type(value) is float else type(value).__name__


class TestReadJson:
    """_read_json parses with orjson and falls back to json.loads for what orjson refuses.

    An identity ``convert`` returns the parse tree itself.
    """

    finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))

    @settings(max_examples=200, deadline=None)
    @given(
        doc=st.one_of(
            st.lists(finite),
            st.lists(st.fixed_dictionaries({"re": st.lists(finite), "im": st.lists(finite)})),
        )
    )
    def test_finite_floats_read_as_json_loads_reads_them(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "floats.json"
        text = json.dumps(doc)
        path.write_text(text)
        assert float_bits(_read_json(path, lambda tree: tree)) == float_bits(json.loads(text)) == float_bits(doc)

    def test_edge_floats_parse_under_orjson(self):
        # the property above would pass through the fallback too; these take the fast path
        text = json.dumps(EDGE_FLOATS).encode()
        assert float_bits(orjson.loads(text)) == float_bits(EDGE_FLOATS)

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "infinity", "-infinity", "1e400", "int-1e400"],
    )
    def test_what_orjson_refuses_reads_as_json_loads_reads_it(self, tmp_path, literal):
        path = tmp_path / "doc.json"
        path.write_text(f"[0.5, {literal}]")
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(path.read_bytes())
        assert repr(_read_json(path, lambda tree: tree)) == repr(json.loads(path.read_text()))

    def test_integer_beyond_64_bits_reads_as_the_nearest_float(self, tmp_path):
        # json.loads keeps 2**64 an int, which json_floats refused as object entries
        path = tmp_path / "doc.json"
        path.write_text(f"[{2**64}, {-(2**63) - 1}, {2**64 - 1}]")
        got = _read_json(path, lambda tree: tree)
        assert got == [2.0**64, -(2.0**63), 2**64 - 1]
        assert [type(x) for x in got] == [float, float, int]

    def test_integer_beyond_64_bits_verifies_as_its_float_literal(self, capsys, tmp_path):
        run_cli(capsys, "scenario1", "--steps", "200", "--out", str(tmp_path))
        path = tmp_path / "trace.json"
        doc = json.loads(path.read_text())
        outputs = []
        for value in (2**64, 2.0**64):
            doc["energy_mean"][57] = value
            path.write_text(json.dumps(doc))
            outputs.append(run_cli(capsys, "verify", str(path)))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw[: len(raw) // 2],
            lambda raw: raw.replace(b"\n", b"\r\n")[: len(raw) // 2],
            lambda raw: b"\xef\xbb\xbf" + raw,
            lambda raw: raw[:100] + b"\xff" + raw[100:],
            lambda raw: b"",
        ],
        ids=["truncated", "truncated-crlf", "utf-8-bom", "invalid-utf-8", "empty"],
    )
    def test_malformed_trace_prints_the_json_loads_error(self, capsys, tmp_path, corrupt):
        run_cli(capsys, "scenario1", "--steps", "200", "--out", str(tmp_path))
        path = tmp_path / "trace.json"
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError) as stdlib:  # how the file was read before orjson
            json.loads(path.read_text())
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out, err) == (1, "", f"error: {stdlib.value}\n")


class TestCollectorPause:
    """Each file is parsed and converted with the garbage collector paused, and its state restored."""

    @pytest.fixture
    def files(self, capsys, tmp_path):
        run_cli(capsys, "scenario1", "--steps", "200", "--out", str(tmp_path))
        raw = (tmp_path / "trace.json").read_bytes()
        doc = json.loads(raw)
        doc["times"][57] = math.nan
        (tmp_path / "tampered.json").write_text(json.dumps(doc))
        (tmp_path / "truncated.json").write_bytes(raw[: len(raw) // 2])
        (tmp_path / "config.json").write_text('{"epsilon": 0.5, "steps": 200}')
        (tmp_path / "bad-config.json").write_text('{"epsilon": 0.5, "step": 200}')
        return tmp_path

    def test_verify_triggers_no_collection(self, capsys, tmp_path):
        # a refused file's traceback holds the parse tree: it is freed inside the pause too
        run_cli(capsys, "scenario2", "--steps", "2000", "--out", str(tmp_path))
        raw = (tmp_path / "trace.json").read_text()
        doc = json.loads(raw)
        doc["times"][57] = math.nan
        (tmp_path / "tampered.json").write_text(json.dumps(doc))
        doc = json.loads(raw)
        del doc["states"][5]["im"]  # refused inside a handler: the tree is in a chained traceback
        (tmp_path / "no-im.json").write_text(json.dumps(doc))
        del raw, doc
        seen = []
        for name in ("trace.json", "tampered.json", "no-im.json"):
            starts = []

            def count(phase, info):
                if phase == "start":
                    starts.append(info["generation"])

            gc.collect()
            gc.callbacks.append(count)
            try:
                code = main(["verify", str(tmp_path / name)])
            finally:
                gc.callbacks.remove(count)
            seen.append((name, code, starts))
        capsys.readouterr()
        assert seen == [("trace.json", 0, []), ("tampered.json", 1, []), ("no-im.json", 1, [])]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            pytest.param(["verify", "trace.json"], 0, id="verify"),
            pytest.param(["verify", "tampered.json"], 1, id="tampered-trace"),
            pytest.param(["verify", "truncated.json"], 1, id="json-loads-fallback"),
            pytest.param(["table", "report.json"], 0, id="table"),
            pytest.param(["scenario1", "--config", "config.json"], 0, id="config"),
            pytest.param(["scenario1", "--config", "bad-config.json"], 1, id="bad-config"),
        ],
    )
    def test_collector_state_is_restored(self, capsys, files, argv, code, enabled):
        argv = [str(files / a) if a.endswith(".json") else a for a in argv]
        was_enabled = gc.isenabled()
        gc.enable() if enabled else gc.disable()
        try:
            assert run_cli(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_convert_runs_paused_and_a_raise_restores_the_collector(self, files):
        assert gc.isenabled()
        assert _read_json(files / "config.json", lambda tree: gc.isenabled()) is False
        assert gc.isenabled()

        def refuse(tree):
            raise RuntimeError("refused")

        with pytest.raises(RuntimeError, match="refused"):
            _read_json(files / "trace.json", refuse)
        assert gc.isenabled()


class TestShiftedTrace:
    """A uniform grid far from t = 0 is uniform: the tolerance allows the rounding of the stored times."""

    @pytest.fixture
    def trace_doc(self, capsys, tmp_path):
        run_cli(capsys, "scenario2", "--steps", "2000", "--out", str(tmp_path))
        return json.loads((tmp_path / "trace.json").read_text())

    def verify(self, capsys, tmp_path, doc):
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "verify", str(path))

    @pytest.mark.parametrize("shift", [1e4, 1e5, 1e6])
    def test_shifted_trace_verifies(self, capsys, tmp_path, trace_doc, shift):
        eta = json.loads(self.verify(capsys, tmp_path, trace_doc)[1])["eta"]
        shifted = {**trace_doc, "times": [t + shift for t in trace_doc["times"]]}
        code, out, err = self.verify(capsys, tmp_path, shifted)
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["eta"] - eta) <= 1e-9

    @pytest.mark.parametrize("shift", [0.0, 1e5])
    def test_one_moved_node_is_still_refused(self, capsys, tmp_path, trace_doc, shift):
        times = [t + shift for t in trace_doc["times"]]
        times[1000] += 1e-6 * (trace_doc["times"][1] - trace_doc["times"][0])
        code, out, err = self.verify(capsys, tmp_path, {**trace_doc, "times": times})
        assert (code, out, err) == (1, "", "error: trace grid is not uniform\n")


class TestCliQueries:
    def test_bound_orthogonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--overlap", "0", "--dispersion", "1"
        )
        assert code == 0
        assert json.loads(out)["min_time"] == pytest.approx(math.pi / 2.0)

    def test_bound_near_orthogonality(self, capsys):
        # asin(sqrt(1 - ov^2)) rounds to pi/2 here, 3e-9 from acos(ov)
        code, out, _ = run_cli(capsys, "bound", "--overlap", "3e-9", "--dispersion", "1")
        assert code == 0
        assert json.loads(out)["min_time"] == math.acos(3e-9)

    def test_bound_requires_exactly_one_dispersion(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--overlap", "0.5")
        assert code == 1
        assert err.startswith("error:")
        code, _, _ = run_cli(
            capsys,
            "bound",
            "--overlap",
            "0.5",
            "--dispersion",
            "1",
            "--avg-dispersion",
            "2",
        )
        assert code == 1

    def test_bound_help_offers_one_dispersion(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--help")
        assert code == 0
        assert "--dispersion" in out
        assert "--avg-dispersion" not in out

    def test_implicit_reference_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "implicit",
            "--epsilon",
            "1",
            "--omega",
            "0.25",
            "--omega0",
            "0.2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficient_a"] == pytest.approx(0.025)  # omega*omega0/2
        assert doc["t_ideal_short_time"] < math.pi / 2.0
        assert abs(doc["residual"]) <= 1e-14 * (math.pi / 2.0)

    def test_implicit_residual_is_finite_near_the_float_max(self, capsys):
        # t0 ~ 7.9e307 is above a third of the float max, so a*T^3 alone overflows
        code, out, _ = run_cli(
            capsys, "implicit", "--epsilon", "1", "--omega", "1", "--omega0", "0.2",
            "--hbar", "5e307",
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.0 < doc["t_ideal_short_time"] < doc["t_effective_orthogonal"]
        assert abs(doc["residual"]) <= 1e-14 * doc["t_effective_orthogonal"]

    def test_verify_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 1
        assert err.startswith("error:")

    def test_verify_rejects_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", str(bad))
        assert code == 1

    def test_table_accepts_bare_and_enveloped_reports(self, capsys, tmp_path):
        h = ConstantMatrix(1.0 * PAULI_X)
        tr = evolve(h, QuantumState.exact([1.0, 0.0]), 1.0, steps=100)
        rep = efficiency(tr)
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(rep.to_json()))
        enveloped = tmp_path / "env.json"
        enveloped.write_text(json.dumps({"report": rep.to_json(), "extras": {}}))
        code, out, _ = run_cli(capsys, "table", str(bare), str(enveloped))
        assert code == 0
        assert len(out.strip().splitlines()) == 6


class TestCliSweep:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--samples", "8", "--seed", "5", "--steps", "32"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 8
        assert doc["total_violations"] == 0

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QGEO_SEED", "777")
        code, out, _ = run_cli(capsys, "sweep", "--samples", "4", "--steps", "32")
        assert code == 0
        assert json.loads(out)["seed"] == 777

    def test_malformed_env_seed_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("QGEO_SEED", "abc")
        code, _, err = run_cli(capsys, "sweep", "--samples", "4", "--steps", "32")
        assert code == 1
        assert err == "error: QGEO_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_is_named(self, capsys, monkeypatch, source):
        argv = ["sweep", "--samples", "4", "--steps", "32"]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("QGEO_SEED", "-1")
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "dims, message",
        [
            (["--dim-min", "5", "--dim-max", "3"], "--dim-min 5 exceeds --dim-max 3"),
            (["--dim-max", "1"], "--dim-min 2 exceeds --dim-max 1"),
            (["--dim-min", "1"], "--dim-min must be at least 2, got 1"),
            (["--dim-min", "-4", "--dim-max", "-6"], "--dim-min must be at least 2, got -4"),
        ],
        ids=["min-above-max", "max-below-two", "min-below-two", "both-negative"],
    )
    def test_bad_dimension_range_names_the_flags(self, capsys, dims, message):
        code, out, err = run_cli(capsys, "sweep", "--samples", "4", "--steps", "32", *dims)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_flag_overrides_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QGEO_SEED", "777")
        _, out, _ = run_cli(
            capsys, "sweep", "--samples", "4", "--seed", "9", "--steps", "32"
        )
        assert json.loads(out)["seed"] == 9

    def test_violations_exit_code(self, capsys, monkeypatch):
        import qgeo.cli as cli_module

        rigged = SweepResult(
            samples=1,
            seed=0,
            eta_min=1.5,
            eta_max=1.5,
            eta_violations=1,
            bound_violations=0,
            rate_violations=0,
            min_bound_margin=0.0,
            max_rate_excess=0.0,
        )
        monkeypatch.setattr(cli_module, "run_sweep", lambda **kw: rigged)
        code, out, _ = run_cli(capsys, "sweep", "--samples", "1")
        assert code == 2
        assert json.loads(out)["eta_violations"] == 1


class TestCliPlumbing:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "scenario9")[0] == 1

    def test_bad_flag_value(self, capsys):
        assert run_cli(capsys, "scenario1", "--steps", "ten")[0] == 1

    def test_help_exits_cleanly(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["scenario1", "--steps", "500"])
        assert args.scenario == "static"
        assert args.steps == 500

    def test_module_bound_exits_0(self):
        proc = run_module("bound", "--overlap", "0", "--dispersion", "1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["min_time"] == math.pi / 2.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--overlap", "0.5", "--avg-dispersion", "1"],
            ["scenario1", "--steps", "ten"],
            ["scenario2", "--omega"],
            ["scenario1", "--b-perp-tesla", "1e-6"],
        ],
        ids=["removed-flag", "bad-value", "missing-value", "ignored-parameter"],
    )
    def test_module_usage_errors_exit_1(self, argv):
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ")

    @pytest.mark.skipif(shutil.which("qgeo") is None, reason="script not on PATH")
    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["qgeo", "bound", "--overlap", "0", "--dispersion", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["min_time"] == pytest.approx(math.pi / 2.0)
