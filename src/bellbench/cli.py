"""Command-line front end: run specs, dispatch, JSON/CSV reports.

Angles anywhere on the command line accept multiples of pi in suffix
notation (``-1/12pi``, ``0.5pi``, ``pi/3``) or plain radians, so published
settings can be transcribed without decimal rounding.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import numbers
import sys
import time
from dataclasses import Field, asdict, dataclass, fields
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BellError, DomainError, NumericError, ResourceError
from .scenario import FAMILIES, MULTIPARTITE, BellExpression, Scenario, bell_expression
from .polytope import DEFAULT_BUDGET, classical_maximum, facet_check, strategy_count
from .quantum import (
    PhaseConfiguration,
    StateVector,
    ghz_max,
    noise_threshold,
    quantum_bell_value,
)
from .optimize import (
    STATE_FAMILIES,
    OptimizerConfig,
    StateFamily,
    optimize_phases,
    optimize_state_family,
    seesaw,
    sweep,
)
from .reference import mermin3_max, reduce_to_bipartite

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2


def parse_angle(token: str) -> float:
    """One angle, in radians or in pi-suffix notation."""
    t = token.strip().lower().replace(" ", "")
    if not t:
        raise DomainError("empty angle token")
    sign = 1.0
    if t[0] in "+-":
        if t[0] == "-":
            sign = -1.0
        t = t[1:]
    try:
        if t == "pi":
            value = np.pi
        elif t.startswith("pi/"):
            value = np.pi / float(t[3:])
        elif t.endswith("pi"):
            body = t[:-2]
            if "/" in body:
                num, den = body.split("/", 1)
                value = float(num) / float(den) * np.pi
            else:
                value = float(body) * np.pi
        else:
            value = float(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed angle {token!r}: {exc}") from None
    if not math.isfinite(value):
        raise DomainError(f"angle {token!r} is not finite")
    return sign * value


def parse_phases(text: str, scenario: Scenario) -> PhaseConfiguration:
    """Semicolon-separated phase vectors, party-major (p1s1; p1s2; p2s1; ...)."""
    groups = [g for g in text.split(";") if g.strip()]
    if len(groups) != 2 * scenario.parties:
        raise DomainError(
            f"need {2 * scenario.parties} phase vectors separated by ';', "
            f"got {len(groups)}"
        )
    vectors = []
    for g in groups:
        vec = [parse_angle(tok) for tok in g.split(",")]
        if len(vec) != scenario.outcomes:
            raise DomainError(
                f"phase vector {g!r} has {len(vec)} entries, expected "
                f"{scenario.outcomes}"
            )
        vectors.append(vec)
    return PhaseConfiguration(scenario, vectors)


def parse_state(
    text: str, scenario: Scenario
) -> Union[StateVector, StateFamily]:
    """State descriptor: family name, family:angles, ghz_max, or amps:list.

    A family name without angles selects the whole family (the angles then
    become free optimization parameters).
    """
    name, _, args = text.partition(":")
    name = name.strip()
    if name == "ghz_max":
        if args:
            raise DomainError("ghz_max takes no angle arguments")
        return ghz_max(scenario.parties, scenario.outcomes)
    if name == "amps":
        try:
            amps = [complex(tok.strip().replace("i", "j")) for tok in args.split(",")]
        except ValueError as exc:
            raise DomainError(f"malformed amplitude list: {exc}") from None
        return StateVector(scenario, amps)
    if name in STATE_FAMILIES:
        family = STATE_FAMILIES[name]
        if family.scenario != scenario:
            raise DomainError(
                f"state family {name} lives on N={family.scenario.parties}, "
                f"d={family.scenario.outcomes}"
            )
        if not args.strip():
            return family
        return family.build([parse_angle(tok) for tok in args.split(",")])
    raise DomainError(
        f"unknown state descriptor {name!r}; known families: "
        f"{sorted(STATE_FAMILIES)} plus ghz_max and amps"
    )


def parse_grid(text: str) -> list[tuple[float, ...]]:
    """Axis lists separated by ';', expanded row-major into a grid."""
    axes = [[parse_angle(tok) for tok in axis.split(",")] for axis in text.split(";")]
    if any(not axis for axis in axes):
        raise DomainError("sweep grid axes must be non-empty")
    points: list[tuple[float, ...]] = [()]
    for axis in axes:
        points = [p + (v,) for p in points for v in axis]
    return points


# isinstance check per annotated RunSpec field type; bool never counts as a number
_FIELD_KINDS = {"int": int, "float": numbers.Real, "str": str, "bool": bool}


def _field_kind(f: Field) -> type:
    return _FIELD_KINDS[f.type.removeprefix("Optional[").removesuffix("]")]


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved description of one workbench run."""

    command: str
    n: Optional[int] = None
    d: Optional[int] = None
    family: str = MULTIPARTITE
    state: Optional[str] = None
    phases: Optional[str] = None
    violation: Optional[float] = None
    grid: Optional[str] = None
    seed: int = 0
    starts: int = 64
    tol: float = 1e-9
    threads: int = 1
    budget: int = DEFAULT_BUDGET
    out: Optional[str] = None
    format: Optional[str] = None
    no_timestamp: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kind = _field_kind(f)
            if value is None and f.type.startswith("Optional["):
                continue
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise DomainError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.command not in COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.n is not None and self.n < 2:
            raise DomainError(f"n must be at least 2, got {self.n}")
        if self.d is not None and self.d < 2:
            raise DomainError(f"d must be at least 2, got {self.d}")
        if self.format not in (None, "json", "csv"):
            raise DomainError(f"unknown format {self.format!r}")
        if self.format == "csv" and self.command != "sweep":
            raise DomainError("csv output is only available for sweep")
        if self.threads < 1:
            raise DomainError("threads must be at least 1")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise DomainError(f"unknown run-spec keys: {', '.join(unknown)}")
        if "command" not in data:
            raise DomainError("run spec needs a command")
        return cls(**data)

    def scenario(self) -> Scenario:
        if self.n is None or self.d is None:
            raise DomainError(f"command {self.command} requires --n and --d")
        return Scenario(self.n, self.d)

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(starts=self.starts, seed=self.seed, tol=self.tol)


def _require(spec: RunSpec, field_name: str):
    value = getattr(spec, field_name)
    if value is None:
        raise DomainError(f"command {spec.command} requires --{field_name}")
    return value


def _state_for(spec: RunSpec, allow_family: bool) -> Union[StateVector, StateFamily]:
    descriptor = _require(spec, "state")
    state = parse_state(descriptor, spec.scenario())
    if isinstance(state, StateFamily) and not allow_family:
        raise DomainError(
            f"command {spec.command} needs a concrete state, not a family"
        )
    return state


def _histogram_json(histogram) -> dict:
    return {str(value): count for value, count in histogram.items()}


def _expression(spec: RunSpec) -> BellExpression:
    return bell_expression(spec.n, spec.d, spec.family)


def _run_classical(spec: RunSpec) -> tuple[dict, int]:
    cm = classical_maximum(_expression(spec), budget=spec.budget, threads=spec.threads)
    return (
        {
            "classical_max": str(cm.max_value),
            "argmax_index": cm.argmax.index,
            "argmax_assignment": [list(p) for p in cm.argmax.assignment],
            "histogram": _histogram_json(cm.histogram),
        },
        cm.strategy_total,
    )


def _run_facet(spec: RunSpec) -> tuple[dict, int]:
    expr = _expression(spec)
    report = facet_check(expr, budget=spec.budget, threads=spec.threads)
    return report.to_json_dict(), strategy_count(expr.scenario)


def _run_violate(spec: RunSpec) -> tuple[dict, int]:
    expr = _expression(spec)
    state = _state_for(spec, allow_family=False)
    phases_text = _require(spec, "phases")
    if phases_text.strip() == "optimize":
        raise DomainError("violate needs explicit phases; use optimize instead")
    config = parse_phases(phases_text, expr.scenario)
    value = quantum_bell_value(state, config, expr)
    return {"bell_value": value, "noise_threshold": noise_threshold(value) if value > 0 else None}, 1


def _run_optimize(spec: RunSpec) -> tuple[dict, int]:
    expr = _expression(spec)
    state = _state_for(spec, allow_family=True)
    config = spec.optimizer_config()
    if isinstance(state, StateFamily):
        phases_text = spec.phases or "optimize"
        fixed = (
            "free"
            if phases_text.strip() == "optimize"
            else parse_phases(phases_text, expr.scenario)
        )
        result = optimize_state_family(state, expr, config, phases=fixed)
    else:
        if spec.phases not in (None, "optimize"):
            raise DomainError(
                "optimize with a concrete state optimizes the phases; "
                "fixed phases belong to the violate command"
            )
        result = optimize_phases(state, expr, config)
    return result.to_json_dict(), result.evaluations


def _run_seesaw(spec: RunSpec) -> tuple[dict, int]:
    result = seesaw(_expression(spec), spec.optimizer_config())
    return result.to_json_dict(), result.evaluations


def _run_sweep(spec: RunSpec) -> tuple[dict, int]:
    expr = _expression(spec)
    state = _state_for(spec, allow_family=True)
    if not isinstance(state, StateFamily):
        raise DomainError("sweep needs a state family, not a concrete state")
    points = parse_grid(_require(spec, "grid"))
    rows = sweep(state, points, expr, spec.optimizer_config())
    payload = {
        "param_names": list(state.param_names),
        "rows": [
            {"parameters": list(r.parameters), "best_value": r.best_value, "converged": r.converged}
            for r in rows
        ],
    }
    return payload, len(rows)


def _run_threshold(spec: RunSpec) -> tuple[dict, int]:
    return {"f_thr": noise_threshold(float(_require(spec, "violation")))}, 1


def _run_reduce(spec: RunSpec) -> tuple[dict, int]:
    reduced = reduce_to_bipartite(_expression(spec))
    cm = classical_maximum(reduced, budget=spec.budget, threads=spec.threads)
    return (
        {
            "n": reduced.scenario.parties,
            "d": reduced.scenario.outcomes,
            "family": reduced.family,
            "terms": [["".join(map(str, settings)), sign] for settings, sign in reduced.terms],
            "classical_max": str(cm.max_value),
        },
        cm.strategy_total,
    )


def _run_mermin(spec: RunSpec) -> tuple[dict, int]:
    state = parse_state(_require(spec, "state"), Scenario(3, 2))
    if isinstance(state, StateFamily):
        raise DomainError("mermin needs a concrete three-qubit state")
    value = mermin3_max(state, spec.optimizer_config())
    return {"mermin_max": value}, spec.starts


# Each command's handler returns (result payload, iteration count).
_HANDLERS = {
    "classical": _run_classical,
    "facet": _run_facet,
    "violate": _run_violate,
    "optimize": _run_optimize,
    "seesaw": _run_seesaw,
    "sweep": _run_sweep,
    "threshold": _run_threshold,
    "reduce": _run_reduce,
    "mermin": _run_mermin,
}
COMMANDS = tuple(_HANDLERS)


def run(spec: RunSpec) -> dict:
    """Execute a run spec and wrap the payload in the report envelope."""
    started = time.perf_counter()
    payload, iterations = _HANDLERS[spec.command](spec)
    elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    diagnostics = {
        "runtime_ms": 0 if spec.no_timestamp else elapsed_ms,
        "iterations": iterations,
    }
    if not spec.no_timestamp:
        diagnostics["timestamp"] = datetime.now(timezone.utc).isoformat()
    return {"spec": spec.to_json_dict(), "result": payload, "diagnostics": diagnostics}


def render_report(spec: RunSpec, report: dict) -> str:
    """JSON by default; CSV rendering for sweeps."""
    fmt = spec.format or ("csv" if spec.command == "sweep" else "json")
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    names = report["result"]["param_names"]
    writer.writerow([*names, "best_value", "converged"])
    for row in report["result"]["rows"]:
        writer.writerow(
            [*(repr(p) for p in row["parameters"]), repr(row["best_value"]), row["converged"]]
        )
    return buffer.getvalue()


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command, --config, and one flag per RunSpec field after command.
    Built on first use and shared by every later call: parse_args leaves the
    parser unchanged and fills a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="bellbench",
        description="Workbench for two-setting N-qudit correlation Bell inequalities.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("--config", type=Path, help="JSON run-spec file")
    choices = {"family": FAMILIES, "format": ("json", "csv")}
    for f in fields(RunSpec)[1:]:
        flag, kind = "--" + f.name.replace("_", "-"), _field_kind(f)
        if kind is bool:
            parser.add_argument(flag, action="store_true", default=None)
        else:
            convert = float if kind is numbers.Real else kind
            parser.add_argument(flag, type=convert, choices=choices.get(f.name))
    return parser


def parse_runspec(argv: Sequence[str]) -> RunSpec:
    """Combine config-file values and flags; flags override the file."""
    args = _build_parser().parse_args(argv)
    file_values: dict = {}
    if args.config is not None:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(file_values, dict):
            raise DomainError(f"config {args.config} must hold a JSON object")
    merged = dict(file_values)
    merged.update({k: v for k, v in vars(args).items() if k != "config" and v is not None})
    if merged.get("command") is None:
        raise DomainError("no command given (positional argument or config file)")
    return RunSpec.from_json_dict(merged)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            spec = parse_runspec(argv)
        except SystemExit as exc:
            # argparse already printed usage; fold its exits into our codes
            return EXIT_OK if not exc.code else EXIT_DOMAIN
        report = run(spec)
        text = render_report(spec, report)
        if spec.out:
            Path(spec.out).write_text(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, NumericError, BellError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
