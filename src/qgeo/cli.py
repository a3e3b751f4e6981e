"""Command-line interface.

Subcommands::

    qgeo scenario1 [--epsilon 1.0] [--steps 2000] [--output json|csv|table]
    qgeo scenario2 [--epsilon 1.0 --omega 0.25 --omega0 0.2] [...]
    qgeo scenario2 --unit-system si --b-perp-tesla 1e-6 --b-parallel-tesla 1.0
    qgeo bound --overlap 0.5 --dispersion 1.0
    qgeo implicit --epsilon 1.0 --omega 0.25 --omega0 0.2
    qgeo verify trace.json
    qgeo sweep --samples 1000 --seed 7
    qgeo table report.json [report2.json ...]

Scenario commands propagate the corresponding two-level preset over its
closed-form transfer time and report path length, efficiency, and the
time-energy bound.  ``--config FILE`` supplies a flat JSON dict of the same
names (flags win).  Exit status: 0 on success, 2 when a scenario, ``verify``
or ``table`` report or a sweep shows a bound violation (eta > 1), 1 on usage
or validation errors, including any non-finite value bound for the JSON
output.  ``QGEO_SEED`` seeds sweeps when ``--seed`` is absent; a sweep
runs in one process, one vectorized pass per chunk and dimension, and its
result does not depend on the chunking.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import QGeoError, json_number
from .geometry import BOUND_TOL, SpeedLimitReport, efficiency
from .hamiltonian import (
    Hamiltonian,
    TwoLevelDriven,
    TwoLevelStatic,
    hamiltonian_from_json,
)
from .propagation import EvolutionTrace, evolve, short_time_coefficient
from .propagation import trace_hamiltonian_to_json, write_joined
from .si import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR_SI,
    larmor_angular_frequency,
    larmor_frequency_hz,
    rabi_angular_frequency,
)
from .speedlimit import BoundQuery, min_time, run_sweep, solve_implicit_time
from .states import QuantumState

_DEFAULT_SEED = 12345

_SCENARIO_DEFAULTS = {
    "static": {"epsilon": 1.0, "hbar": 1.0},
    "driven": {"epsilon": 1.0, "omega": 0.25, "omega0": 0.2, "hbar": 1.0},
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated inputs of a scenario run."""

    scenario: str
    steps: int = 2000
    unit_system: str = "natural"
    output: str = "json"
    parameters: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scenario not in ("static", "driven", "custom"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.steps < 100:
            raise ValueError(
                f"report-grade runs need at least 100 steps, got {self.steps}"
            )
        if self.unit_system not in ("natural", "si"):
            raise ValueError(f"unknown unit system {self.unit_system!r}")
        if self.output not in ("json", "csv", "table"):
            raise ValueError(f"unknown output mode {self.output!r}")
        if self.unit_system == "si":
            if "b_perp_tesla" not in self.parameters:
                raise ValueError("si mode requires b_perp_tesla")
            if self.scenario == "driven" and "b_parallel_tesla" not in self.parameters:
                raise ValueError("si driven mode requires b_parallel_tesla")
        if self.scenario == "custom" and "t_final" not in self.parameters:
            raise ValueError("custom scenarios require t_final")

    def to_json(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "steps": int(self.steps),
            "unit_system": self.unit_system,
            "output": self.output,
            "parameters": {k: float(v) for k, v in sorted(self.parameters.items())},
        }


@dataclass(frozen=True)
class ScenarioRun:
    """Everything a scenario command produces."""

    config: ScenarioConfig
    hamiltonian: Hamiltonian
    trace: EvolutionTrace
    report: SpeedLimitReport
    extras: dict[str, Any]


def run_scenario(
    cfg: ScenarioConfig,
    hamiltonian: Hamiltonian | Mapping[str, Any] | None = None,
    psi0: QuantumState | None = None,
) -> ScenarioRun:
    """Propagate the configured scenario over its transfer time and report.

    The two presets need no extra arguments; ``custom`` runs take an explicit
    Hamiltonian (instance or its JSON form), an optional start state
    (default: the first basis state), and ``t_final`` in the parameters.
    """
    if cfg.scenario == "custom":
        if hamiltonian is None:
            raise ValueError("custom scenarios require a Hamiltonian")
        if not isinstance(hamiltonian, Hamiltonian):
            hamiltonian = hamiltonian_from_json(
                hamiltonian, hbar=cfg.parameters.get("hbar", 1.0)
            )
        start = psi0 or QuantumState.exact(
            [1.0] + [0.0] * (hamiltonian.dim - 1)
        )
        trace = evolve(hamiltonian, start, cfg.parameters["t_final"], cfg.steps)
        return ScenarioRun(cfg, hamiltonian, trace, efficiency(trace), {})

    params = dict(_SCENARIO_DEFAULTS[cfg.scenario])
    params.update(cfg.parameters)
    extras: dict[str, Any] = {}

    if cfg.unit_system == "si":
        hbar = HBAR_SI
        rabi = rabi_angular_frequency(params["b_perp_tesla"])
        epsilon = hbar * rabi
        extras["rabi_rad_per_s"] = rabi
        extras["constants"] = {
            "elementary_charge_c": ELEMENTARY_CHARGE,
            "electron_mass_kg": ELECTRON_MASS,
            "hbar_j_s": HBAR_SI,
        }
        if cfg.scenario == "driven":
            omega0 = larmor_angular_frequency(params["b_parallel_tesla"])
            # resonant drive unless the caller explicitly set omega (the
            # natural-units default would be nonsense in rad/s)
            omega = cfg.parameters.get("omega", omega0)
            extras["nu_larmor_hz"] = larmor_frequency_hz(params["b_parallel_tesla"])
    else:
        hbar = params["hbar"]
        epsilon = params["epsilon"]
        if cfg.scenario == "driven":
            omega = params["omega"]
            omega0 = params["omega0"]

    if cfg.scenario == "static":
        h: Hamiltonian = TwoLevelStatic(epsilon=epsilon, hbar=hbar)
    else:
        h = TwoLevelDriven(epsilon=epsilon, omega=omega, omega0=omega0, hbar=hbar)

    t_final = h.orthogonality_time
    # a legal epsilon near the float maximum would fail late and unnamed
    if not math.isfinite(2.0 * epsilon / hbar):
        raise ValueError(f"epsilon = {epsilon!r} is too large: 2*epsilon/hbar overflows")
    if not t_final / cfg.steps >= sys.float_info.min:
        raise ValueError(
            f"epsilon = {epsilon!r} is too large: the step T/steps = "
            f"{t_final / cfg.steps!r} is subnormal (hbar = {hbar!r})"
        )
    psi0 = QuantumState.exact([1.0, 0.0])
    trace = evolve(h, psi0, t_final, cfg.steps)
    report = efficiency(trace)
    if cfg.unit_system == "si":
        extras["t_effective_seconds"] = t_final
    return ScenarioRun(cfg, h, trace, report, extras)


def emit_table(reports: Sequence[SpeedLimitReport]) -> str:
    """Render reports in the two-column optimal-evolution layout.

    One row per report: the time-energy inequality with its numbers, and the
    efficiency with a flag for rows that saturate eta = 1 or violate the bound.
    """
    if not reports:
        raise ValueError("emit_table needs at least one report")
    lines = [
        "Optimal Quantum Evolution Condition",
        "-" * 112,
        f"{'quantum states':<16}{'time-energy inequality constraint':<68}"
        "optimal evolution condition",
        "-" * 112,
    ]
    for report in reports:
        overlap = math.cos(0.5 * report.s0)
        orthogonal = overlap <= 1e-9
        label = "orthogonal" if orthogonal else "nonorthogonal"
        lhs = report.avg_dispersion * report.t_effective
        rhs_label = "h/4" if orthogonal else "hbar*arccos|<A|B>|"
        # lhs = hbar*s/2, so hbar*arccos|<A|B>| = hbar*s0/2 = lhs*s0/s in
        # whatever units the report carries.
        rhs = lhs * report.s0 / report.s
        # lhs/rhs = 1/eta, so lhs < rhs beyond round-off is exactly a report
        # whose eta exceeds 1 by more than BOUND_TOL
        relation = ">=" if report.bound_satisfied else "<"
        ineq = f"<dE>*T = {lhs:.9e} {relation} {rhs:.9e} = {rhs_label}"
        if not report.bound_satisfied:
            flag = "violation (eta > 1)"
        elif abs(report.eta - 1.0) <= BOUND_TOL:
            flag = "geodesic (eta = 1)"
        else:
            flag = "suboptimal (eta < 1)"
        lines.append(f"{label:<16}{ineq:<68}eta = {report.eta:.9f}  {flag}")
    return "\n".join(lines)


def _dump_json(obj: Any) -> str:
    """The one rendering of every document qgeo prints or writes, apart from the trace."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _write_trace(out_dir: Path, trace: EvolutionTrace, hamiltonian: Hamiltonian | None) -> None:
    """Write trace.json and trace.csv from one ``float.__repr__`` pass over the trace.

    trace.json is ``_dump_json(trace.to_json(hamiltonian)) + "\\n"``, streamed key
    by key, one template per state.
    """
    columns = trace.float_columns()
    times, *amps, mean, dispersion = columns
    vector = "[\n        " + ",\n        ".join(["%s"] * trace.dim) + "\n      ]"
    state = '{\n      "im": ' + vector + ',\n      "re": ' + vector + "\n    }"
    # JSON escapes every newline inside a string, so this only re-indents the layout
    h_json = _dump_json(trace_hamiltonian_to_json(hamiltonian)).replace("\n", "\n  ")
    with open(out_dir / "trace.json", "w") as fh:
        for head, pieces in (
            ('{\n  "energy_dispersion": [', dispersion),
            ('\n  ],\n  "energy_mean": [', mean),
            (f'\n  ],\n  "hamiltonian": {h_json},\n  "hbar": {float(trace.hbar)!r},\n  "states": [',
             map(state.__mod__, zip(*amps[1::2], *amps[0::2]))),
            ('\n  ],\n  "times": [', times),
        ):
            fh.write(head + "\n    ")
            write_joined(fh, pieces, ",\n    ")
        fh.write("\n  ]\n}\n")
    trace.to_csv(out_dir / "trace.csv", columns)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1 (2 is reserved)."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, help="flat JSON config file")
    p.add_argument("--steps", type=int, help="integrator steps (>= 100)")
    p.add_argument("--unit-system", choices=("natural", "si"))
    p.add_argument("--output", choices=("json", "csv", "table"))
    p.add_argument("--epsilon", type=float, help="coupling energy")
    p.add_argument("--hbar", type=float)
    p.add_argument("--out", type=str, help="directory for trace/report files")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qgeo", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("scenario1", help="static two-level transfer")
    _add_scenario_flags(p1)
    p1.add_argument("--b-perp-tesla", type=float, help="transverse field (si)")
    p1.set_defaults(func=_cmd_scenario, scenario="static")

    p2 = sub.add_parser("scenario2", help="driven two-level transfer")
    _add_scenario_flags(p2)
    p2.add_argument("--omega", type=float, help="drive angular frequency")
    p2.add_argument("--omega0", type=float, help="splitting angular frequency")
    p2.add_argument("--b-perp-tesla", type=float, help="transverse field (si)")
    p2.add_argument("--b-parallel-tesla", type=float, help="static field (si)")
    p2.set_defaults(func=_cmd_scenario, scenario="driven")

    pb = sub.add_parser("bound", help="minimum-time query")
    pb.add_argument("--overlap", type=float, required=True)
    pb.add_argument("--dispersion", type=float)
    pb.add_argument("--avg-dispersion", type=float)
    pb.add_argument("--hbar", type=float, default=1.0)
    pb.set_defaults(func=_cmd_bound)

    pi = sub.add_parser("implicit", help="short-time ideal transfer time")
    pi.add_argument("--epsilon", type=float, required=True)
    pi.add_argument("--omega", type=float, required=True)
    pi.add_argument("--omega0", type=float, required=True)
    pi.add_argument("--hbar", type=float, default=1.0)
    pi.set_defaults(func=_cmd_implicit)

    pv = sub.add_parser("verify", help="re-verify a stored trace")
    pv.add_argument("trace", type=str, help="trace JSON file")
    pv.set_defaults(func=_cmd_verify)

    ps = sub.add_parser("sweep", help="randomized bound sweep")
    ps.add_argument("--samples", type=int, default=1000)
    ps.add_argument("--seed", type=int, help="default: QGEO_SEED or 12345")
    ps.add_argument("--dim-min", type=int, default=2)
    ps.add_argument("--dim-max", type=int, default=8)
    ps.add_argument("--steps", type=int, default=64)
    ps.set_defaults(func=_cmd_sweep)

    pt = sub.add_parser("table", help="tabulate stored reports")
    pt.add_argument("reports", nargs="+", type=str)
    pt.set_defaults(func=_cmd_table)

    return parser


def _merged_config(args: argparse.Namespace) -> ScenarioConfig:
    file_cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(file_cfg, dict):
        raise ValueError("config file must hold a JSON object")

    # flags win over the file
    merged = {**file_cfg, **{k: v for k, v in vars(args).items() if v is not None}}
    params = {
        name: json_number(merged, name)
        for name in ("epsilon", "omega", "omega0", "hbar", "b_perp_tesla", "b_parallel_tesla")
        if name in merged
    }
    steps = merged.get("steps", 2000)
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ValueError(f"steps must be a JSON integer, got {steps!r}")
    return ScenarioConfig(
        scenario=args.scenario,
        steps=steps,
        unit_system=str(merged.get("unit_system", "natural")),
        output=str(merged.get("output", "json")),
        parameters=params,
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    run = run_scenario(cfg)

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_trace(out_dir, run.trace, run.hamiltonian)
        (out_dir / "report.json").write_text(
            _dump_json(run.report.to_json()) + "\n"
        )

    if cfg.output == "json":
        envelope = {
            "config": cfg.to_json(),
            "report": run.report.to_json(),
            "extras": run.extras,
        }
        print(_dump_json(envelope))
    elif cfg.output == "csv":
        run.trace.to_csv(sys.stdout)
    else:
        print(emit_table([run.report]))
    return 0 if run.report.bound_satisfied else 2


def _cmd_bound(args: argparse.Namespace) -> int:
    query = BoundQuery(
        overlap=args.overlap,
        dispersion=args.dispersion,
        avg_dispersion=args.avg_dispersion,
        hbar=args.hbar,
    )
    t_min = min_time(query)
    print(
        _dump_json(
            {
                "overlap": args.overlap,
                "dispersion": query.effective_dispersion,
                "hbar": args.hbar,
                "min_time": t_min,
            }
        )
    )
    return 0


def _cmd_implicit(args: argparse.Namespace) -> int:
    t_short = solve_implicit_time(args.epsilon, args.omega, args.omega0, args.hbar)
    a = short_time_coefficient(args.omega, args.omega0)
    target = 0.5 * math.pi * args.hbar / args.epsilon
    print(
        _dump_json(
            {
                "coefficient_a": a,
                "t_ideal_short_time": t_short,
                "t_effective_orthogonal": target,
                # a*T first: T**3 alone can overflow where a*T^3 <= target
                "residual": t_short + a * t_short * t_short * t_short / 3.0 - target,
            }
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    trace = EvolutionTrace.from_json(json.loads(Path(args.trace).read_text()))
    report = efficiency(trace)
    print(_dump_json(report.to_json()))
    return 0 if report.bound_satisfied else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("QGEO_SEED", str(_DEFAULT_SEED))
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"QGEO_SEED must be an integer, got {raw!r}") from None
    result = run_sweep(
        samples=args.samples,
        seed=seed,
        dims=(args.dim_min, args.dim_max),
        steps=args.steps,
    )
    print(_dump_json(result.to_json()))
    return 2 if result.total_violations > 0 else 0


def _cmd_table(args: argparse.Namespace) -> int:
    reports = []
    for path in args.reports:
        data = json.loads(Path(path).read_text())
        # a scenario envelope holds its report; from_json refuses a non-object
        if isinstance(data, Mapping) and isinstance(data.get("report"), Mapping):
            data = data["report"]
        reports.append(SpeedLimitReport.from_json(data))
    print(emit_table(reports))
    return 0 if all(r.bound_satisfied for r in reports) else 2


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: built on its first call, not at import."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QGeoError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
