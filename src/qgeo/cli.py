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
names (flags win) and refuses any other key; a scenario refuses any parameter
its unit system does not read.  ``bound`` prints
``min_time = hbar*arccos(overlap)/dispersion``.  Exit status: 0 on success,
2 when a scenario, ``verify`` or ``table`` report or a sweep shows a bound
violation (eta > 1), 1 on usage or validation errors (each printed as
``error: <cause>``), including any non-finite value bound for the JSON
output.  Every file qgeo reads is parsed by orjson, and by :mod:`json` when
orjson refuses it (``NaN``, ``Infinity``, a number beyond the float range,
a malformed file), so a refusal names the field or prints ``json``'s error.
Each file is parsed and converted with the cyclic garbage collector paused
and then restored: a parse tree holds no reference cycles, so reference
counting frees it inside the pause and no collection walks it.
``QGEO_SEED`` seeds sweeps when ``--seed`` is absent; a
sweep runs in one process at hbar = 1, one closed-form pass per chunk and
dimension, and a sample's row depends on its chunk's draws alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field, fields
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TypeVar

import orjson

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
from .speedlimit import min_time, run_sweep, solve_implicit_time
from .states import QuantumState

_DEFAULT_SEED = 12345

_T = TypeVar("_T")

#: The preset each scenario command runs, and the CLI's values for its fields that have no default.
_PRESETS = {"driven": TwoLevelDriven, "static": TwoLevelStatic}
_NATURAL_DEFAULTS = {"epsilon": 1.0, "omega": 0.25, "omega0": 0.2}

#: What each scenario reads in each unit system, and so accepts: a name maps to its
#: refusal when it is required and absent, else to None.  In natural units a preset
#: reads its fields.  Any other name, or a pair with no row, is refused.
_READS: dict[tuple[str, str], dict[str, str | None]] = {
    ("driven", "natural"): dict.fromkeys(f.name for f in fields(TwoLevelDriven)),
    ("driven", "si"): {
        "b_perp_tesla": "si mode requires b_perp_tesla",
        "b_parallel_tesla": "si driven mode requires b_parallel_tesla",
        "omega": None,
    },
    ("static", "natural"): dict.fromkeys(f.name for f in fields(TwoLevelStatic)),
    ("static", "si"): {"b_perp_tesla": "si mode requires b_perp_tesla"},
    ("custom", "natural"): {"t_final": "custom scenarios require t_final", "hbar": None},
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
        reads = _READS.get((self.scenario, self.unit_system))
        if reads is None:
            raise ValueError(f"{self.scenario} scenarios do not run in {self.unit_system} units")
        for name in self.parameters:
            if name not in reads:
                raise ValueError(
                    f"{name} is not read by the {self.scenario} scenario "
                    f"in {self.unit_system} units"
                )
        for name, refusal in reads.items():
            if refusal is not None and name not in self.parameters:
                raise ValueError(refusal)

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
    Their ``hbar`` parameter is read only for a bare ``re``/``im`` matrix; an
    instance or a kind-tagged preset spec carries its own, so it is refused there.
    """
    if cfg.scenario == "custom":
        if hamiltonian is None:
            raise ValueError("custom scenarios require a Hamiltonian")
        carries_hbar = isinstance(hamiltonian, Hamiltonian) or hamiltonian.get("kind") is not None
        if carries_hbar and "hbar" in cfg.parameters:
            raise ValueError(
                "hbar is read only for a bare re/im matrix: a Hamiltonian instance "
                "or a kind-tagged spec carries its own"
            )
        if not isinstance(hamiltonian, Hamiltonian):
            hamiltonian = hamiltonian_from_json(
                hamiltonian, hbar=cfg.parameters.get("hbar", 1.0)
            )
        start = psi0 or QuantumState.exact(
            [1.0] + [0.0] * (hamiltonian.dim - 1)
        )
        trace = evolve(hamiltonian, start, cfg.parameters["t_final"], cfg.steps)
        return ScenarioRun(cfg, hamiltonian, trace, efficiency(trace), {})

    extras: dict[str, Any] = {}

    if cfg.unit_system == "si":
        rabi = rabi_angular_frequency(cfg.parameters["b_perp_tesla"])
        args = {"epsilon": HBAR_SI * rabi, "hbar": HBAR_SI}
        extras["rabi_rad_per_s"] = rabi
        extras["constants"] = {
            "elementary_charge_c": ELEMENTARY_CHARGE,
            "electron_mass_kg": ELECTRON_MASS,
            "hbar_j_s": HBAR_SI,
        }
        if cfg.scenario == "driven":
            b_parallel = cfg.parameters["b_parallel_tesla"]
            args["omega0"] = larmor_angular_frequency(b_parallel)
            # resonant drive unless the caller explicitly set omega (the
            # natural-units default would be nonsense in rad/s)
            args["omega"] = cfg.parameters.get("omega", args["omega0"])
            extras["nu_larmor_hz"] = larmor_frequency_hz(b_parallel)
    else:  # a field left unset takes the CLI's value, or else the preset's own default
        reads = _READS[cfg.scenario, "natural"]
        args = {name: value for name, value in _NATURAL_DEFAULTS.items() if name in reads}
        args.update((name, cfg.parameters[name]) for name in reads if name in cfg.parameters)
    h = _PRESETS[cfg.scenario](**args)

    t_final = h.orthogonality_time
    # a legal epsilon near the float maximum would fail late and unnamed
    if not math.isfinite(2.0 * h.epsilon / h.hbar):
        raise ValueError(f"epsilon = {h.epsilon!r} is too large: 2*epsilon/hbar overflows")
    if not t_final / cfg.steps >= sys.float_info.min:
        raise ValueError(
            f"epsilon = {h.epsilon!r} is too large: the step T/steps = "
            f"{t_final / cfg.steps!r} is subnormal (hbar = {h.hbar!r})"
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


def _read_json(path: str | Path, convert: Callable[[Any], _T]) -> _T:
    """``convert`` of the JSON file at ``path``, the one reading of every file qgeo reads.

    orjson parses the bytes.  What it refuses goes to :func:`json.loads`,
    decoded as :meth:`Path.read_text` decodes: the standard library also reads
    ``NaN``/``Infinity`` and numbers beyond the float range, so the caller's
    checks name the field, and prints its own message for a malformed file.
    Under orjson an integer literal beyond 64 bits reads as the nearest float.

    The parse and ``convert`` run with the cyclic garbage collector paused,
    and the collector's previous state is restored on the way out.  A parse
    tree has no reference cycles, so the collector could free nothing in it,
    and reference counting frees it before the pause ends, also when
    ``convert`` raises (the frames its traceback holds are cleared first): no
    collection ever walks it.  Only what ``convert`` built is returned.
    """
    raw = Path(path).read_bytes()
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            tree = orjson.loads(raw)
        except orjson.JSONDecodeError:
            tree = json.loads(io.TextIOWrapper(io.BytesIO(raw)).read())
        try:
            built = convert(tree)
        except Exception as exc:  # its traceback's frames, and those it chains, hold the tree
            del tree
            while exc is not None:
                traceback.clear_frames(exc.__traceback__)
                exc = exc.__context__
            raise
        # its frees cancel its allocations in the collector's count, so none is due after
        del tree
        return built
    finally:
        if enabled:
            gc.enable()


def _dump_json(obj: Any) -> str:
    """The one rendering of every document qgeo prints or writes, apart from the trace."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _write_trace(
    out_dir: Path, trace: EvolutionTrace, hamiltonian: Hamiltonian | None
) -> list[list[str]]:
    """Write trace.json and trace.csv from one formatting pass over the trace.

    Every float is formatted once, as ``float.__repr__`` text, by
    :meth:`EvolutionTrace.float_columns` (orjson's digits, with ``repr`` where
    the layouts differ).  trace.json is
    ``_dump_json(trace.to_json(hamiltonian)) + "\\n"``, streamed key by key.
    Each state record joins the literal pieces of one state template with the
    node's amplitude strings.  Returns the columns, so a caller can print the
    CSV again.
    """
    columns = trace.float_columns()
    times, *amps, mean, dispersion = columns
    vector = "[\n        " + ",\n        ".join(["%s"] * trace.dim) + "\n      ]"
    state = '{\n      "im": ' + vector + ',\n      "re": ' + vector + "\n    }"
    # literal, im_0, literal, ..., re_{dim-1}, literal: the template's pieces in turn
    literals = state.split("%s")
    fields = [repeat(literals[0])]
    for column, literal in zip((*amps[1::2], *amps[0::2]), literals[1:]):
        fields += (column, repeat(literal))
    # JSON escapes every newline inside a string, so this only re-indents the layout
    h_json = _dump_json(trace_hamiltonian_to_json(hamiltonian)).replace("\n", "\n  ")
    with open(out_dir / "trace.json", "w") as fh:
        for head, pieces in (
            ('{\n  "energy_dispersion": [', dispersion),
            ('\n  ],\n  "energy_mean": [', mean),
            (f'\n  ],\n  "hamiltonian": {h_json},\n  "hbar": {float(trace.hbar)!r},\n  "states": [',
             map("".join, zip(*fields))),
            ('\n  ],\n  "times": [', times),
        ):
            fh.write(head + "\n    ")
            write_joined(fh, pieces, ",\n    ")
        fh.write("\n  ]\n}\n")
    trace.to_csv(out_dir / "trace.csv", columns)
    return columns


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors printed as ``error: <cause>`` and exit status 1 (2 is reserved)."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        print(f"error: {message}", file=sys.stderr)
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
    pb.add_argument("--dispersion", type=float, required=True)
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


#: The names a ``--config`` file may set: what the scenario commands read, then the run settings.
_PARAMETER_KEYS = tuple(dict.fromkeys(n for k in _READS if k[0] in _PRESETS for n in _READS[k]))
_CONFIG_KEYS = (*_PARAMETER_KEYS, "steps", "unit_system", "output")


def _merged_config(args: argparse.Namespace) -> ScenarioConfig:
    file_cfg = _read_json(args.config, lambda tree: tree) if args.config else {}
    if not isinstance(file_cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for key in file_cfg:
        if key not in _CONFIG_KEYS:
            raise ValueError(
                f"unknown config key {key!r}; a config file may set {', '.join(_CONFIG_KEYS)}"
            )

    # flags win over the file
    merged = {**file_cfg, **{k: v for k, v in vars(args).items() if v is not None}}
    params = {name: json_number(merged, name) for name in _PARAMETER_KEYS if name in merged}
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

    columns = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        columns = _write_trace(out_dir, run.trace, run.hamiltonian)
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
        run.trace.to_csv(sys.stdout, columns)
    else:
        print(emit_table([run.report]))
    return 0 if run.report.bound_satisfied else 2


def _cmd_bound(args: argparse.Namespace) -> int:
    t_min = min_time(args.overlap, args.dispersion, args.hbar)
    print(
        _dump_json(
            {
                "overlap": args.overlap,
                "dispersion": args.dispersion,
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
                # the cubic term is about target, which may exceed a third of
                # the float max: a*T*T/3 first, then the last factor T
                "residual": t_short + a * t_short * t_short / 3.0 * t_short - target,
            }
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    trace = _read_json(args.trace, EvolutionTrace.from_json)
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
    if args.dim_min < 2:
        raise ValueError(f"--dim-min must be at least 2, got {args.dim_min}")
    if args.dim_min > args.dim_max:
        raise ValueError(f"--dim-min {args.dim_min} exceeds --dim-max {args.dim_max}")
    result = run_sweep(
        samples=args.samples,
        seed=seed,
        dims=(args.dim_min, args.dim_max),
        steps=args.steps,
    )
    print(_dump_json(result.to_json()))
    return 2 if result.total_violations > 0 else 0


def _stored_report(data: Any) -> SpeedLimitReport:
    """The report of a report file, or of a scenario envelope; from_json refuses a non-object."""
    if isinstance(data, Mapping) and isinstance(data.get("report"), Mapping):
        data = data["report"]
    return SpeedLimitReport.from_json(data)


def _cmd_table(args: argparse.Namespace) -> int:
    reports = [_read_json(path, _stored_report) for path in args.reports]
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
