import json
import math
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeo.cli import (
    ScenarioConfig,
    _dump_json,
    build_parser,
    emit_table,
    main,
    run_scenario,
)
from qgeo.geometry import SpeedLimitReport, efficiency
from qgeo.hamiltonian import ConstantMatrix, PAULI_X
from qgeo.propagation import evolve
from qgeo.speedlimit import SweepResult
from qgeo.states import QuantumState


# A driven draw whose report violates the bound (see the strict xfail below).
OFF_RESONANCE_DRAW = {
    "epsilon": 0.5606002293404857,
    "omega0": 0.3947223566390008,
    "omega": 0.5124401492259762,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.xfail(
        strict=True,
        reason="driven node statistics pair the laboratory-frame sample(t) "
        "with rotating-frame states, so some off-resonance draws report eta > 1",
    )
    def test_driven_off_resonance_draw_satisfies_bound(self):
        cfg = ScenarioConfig(
            scenario="driven", steps=2000, parameters=dict(OFF_RESONANCE_DRAW)
        )
        assert run_scenario(cfg).report.bound_satisfied

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
            run.trace.initial_state.amplitudes, psi0.amplitudes
        )

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
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert named in err

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
        flags = [f"--{k}={v!r}" for k, v in OFF_RESONANCE_DRAW.items()]
        code, _, _ = run_cli(
            capsys, "scenario2", "--steps", "2000", *flags, "--out", str(tmp_path)
        )
        assert code == 2
        code, out, _ = run_cli(capsys, "verify", str(tmp_path / "trace.json"))
        assert code == 2
        assert json.loads(out)["bound_satisfied"] is False

    def test_table_exits_2_on_violating_report(self, capsys, tmp_path):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(synthetic_report(eta=0.9).to_json()))
        bad.write_text(json.dumps(synthetic_report().to_json()))
        assert run_cli(capsys, "table", str(good))[0] == 0
        code, out, _ = run_cli(capsys, "table", str(good), str(bad))
        assert code == 2
        assert "violation (eta > 1)" in out


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

    def test_non_finite_output_is_an_error_not_json_infinity(self, capsys, monkeypatch):
        import qgeo.cli as cli_module

        monkeypatch.setattr(cli_module, "min_time", lambda query: math.inf)
        code, out, err = run_cli(
            capsys, "bound", "--overlap", "0.5", "--dispersion", "1"
        )
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""


def stdlib_dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan])
# keys and strings with non-ASCII characters, quotes, backslashes and controls
TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ['"', "\\", "\n\t\x00", "\u00e9\u2192\U0001d11e"]
)
SCALARS = st.none() | st.booleans() | st.integers() | FINITE_FLOATS | TEXT


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(TEXT, children, max_size=5)
        | st.lists(FINITE_FLOATS, min_size=1, max_size=6)  # the all-float fast path
        | st.lists(st.integers() | FINITE_FLOATS, min_size=1, max_size=6)  # mixed
    )


JSON_TREES = st.recursive(SCALARS, containers, max_leaves=40)


def with_a_non_finite_float(children):
    """Trees holding at least one non-finite float, at any depth, among finite values."""
    around = st.lists(JSON_TREES, max_size=3)
    return st.tuples(around, children, around).map(
        lambda t: [*t[0], t[1], *t[2]]
    ) | st.tuples(st.dictionaries(TEXT, JSON_TREES, max_size=3), TEXT, children).map(
        lambda t: {**t[0], t[1]: t[2]}
    )


class TestDumpJson:
    @settings(max_examples=200, deadline=None)
    @given(JSON_TREES)
    def test_matches_the_stdlib_byte_for_byte(self, obj):
        assert _dump_json(obj) == stdlib_dump(obj)

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(NON_FINITE_FLOATS, with_a_non_finite_float, max_leaves=8))
    def test_non_finite_float_raises_the_stdlib_error(self, obj):
        with pytest.raises(ValueError) as want:
            stdlib_dump(obj)
        with pytest.raises(ValueError) as got:
            _dump_json(obj)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "obj", [np.float64(0.1), [np.float64(-2.5), 1.5], [1.5, True], [2**70, 1e-300]]
    )
    def test_edge_values_match_the_stdlib(self, obj):
        assert _dump_json(obj) == stdlib_dump(obj)

    @pytest.mark.parametrize("obj", [{"a": 1, 2: 0}, [{1, 2}], object()])
    def test_unencodable_input_raises_the_stdlib_error(self, obj):
        with pytest.raises(TypeError) as want:
            stdlib_dump(obj)
        with pytest.raises(TypeError) as got:
            _dump_json(obj)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("key", [1, 2.5, True, None, (1, 2)])
    def test_non_string_key_raises_type_error(self, key):
        with pytest.raises(TypeError):
            _dump_json({key: 0})

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


class TestCliQueries:
    def test_bound_orthogonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--overlap", "0", "--dispersion", "1"
        )
        assert code == 0
        assert json.loads(out)["min_time"] == pytest.approx(math.pi / 2.0)

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
        assert doc["coefficient_a"] == pytest.approx(0.07)
        assert doc["t_ideal_short_time"] < math.pi / 2.0
        assert abs(doc["residual"]) <= 1e-14 * (math.pi / 2.0)

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
