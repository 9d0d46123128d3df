"""Problem configuration files and run manifests for the CLI.

Configs are JSON objects with the fields of :class:`ProblemConfig`;
coefficient and forcing entries are expression strings in x (see
``expressions``), diffusion entries are either all the literal marker
``"eps"`` for the swept parameter or one repeated positive number. The two
benchmark systems ship as built-in configs so table reproduction needs no
authoring.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import check_doubling
from .expressions import ExpressionError, compile_expression
from .system import ReactionDiffusionSystem, make_system

#: diffusion-entry marker standing for the swept perturbation parameter
EPS_MARKER = "eps"

#: evaluation abscissae used by the published solution tables
PAPER_GRID = (
    0.000, 0.001, 0.003, 0.070, 0.090, 0.100, 0.300, 0.500,
    0.700, 0.900, 0.910, 0.930, 0.997, 0.999, 1.000,
)


class ConfigError(ValueError):
    """Malformed or inconsistent problem configuration."""


@dataclass(frozen=True)
class ProblemConfig:
    """Declarative description of a reaction-diffusion system."""

    name: str
    n: int
    coeff: tuple[tuple[str, ...], ...]
    forcing: tuple[str, ...]
    diffusion: tuple[float | str, ...]
    bc_left: tuple[float, ...]
    bc_right: tuple[float, ...]

    def __post_init__(self) -> None:
        # the name is pasted into output file names, so it must be one plain name
        if (not self.name or self.name.startswith(".")
                or any(c in self.name for c in "/\\\0")):
            raise ConfigError(f"name must be a plain file name, got {self.name!r}")
        if type(self.n) is not int:
            raise ConfigError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if len(self.coeff) != self.n or any(len(r) != self.n for r in self.coeff):
            raise ConfigError("coeff must be an n x n array of expressions")
        for name, seq in (("forcing", self.forcing), ("diffusion", self.diffusion),
                          ("bc_left", self.bc_left), ("bc_right", self.bc_right)):
            if len(seq) != self.n:
                raise ConfigError(f"{name} must have {self.n} entries")
        for entry in self.diffusion:
            if isinstance(entry, str):
                if entry != EPS_MARKER:
                    raise ConfigError(
                        f"diffusion entries must be numbers or {EPS_MARKER!r}, got {entry!r}"
                    )
            elif not 0.0 < float(entry) < math.inf:
                raise ConfigError("numeric diffusion entries must be positive and finite")
        if len(set(self.diffusion)) != 1:
            raise ConfigError("diffusion entries must be all 'eps' or one repeated number: "
                              "unequal values (partially perturbed, nested layers) "
                              "are not supported")
        if not all(map(math.isfinite, self.bc_left + self.bc_right)):
            raise ConfigError("boundary values must be finite")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "coeff": [list(row) for row in self.coeff],
            "forcing": list(self.forcing),
            "diffusion": list(self.diffusion),
            "bc_left": list(self.bc_left),
            "bc_right": list(self.bc_right),
        }

    @functools.cached_property
    def _template(self) -> ReactionDiffusionSystem:
        """The system at unit diffusion, compiled and probed once per config."""
        try:
            coeff = [[compile_expression(e) for e in row] for row in self.coeff]
            forcing = [compile_expression(e) for e in self.forcing]
        except ExpressionError as exc:
            raise ConfigError(str(exc)) from exc
        sys = make_system(coeff, forcing, [1.0] * self.n, self.bc_left, self.bc_right)
        probe = np.linspace(0.0, 1.0, 101)
        # a division by zero here is reported by the finiteness check below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            finite = (np.all(np.isfinite(sys.coeff_matrix(probe)))
                      and np.all(np.isfinite(sys.forcing_vector(probe))))
        if not finite:
            raise ConfigError(f"coefficients of {self.name!r} are not finite on [0, 1]")
        return sys

    def build_system(self, eps: float) -> ReactionDiffusionSystem:
        """Instantiate the system at the given eps; the expressions are
        compiled and checked on the first call only."""
        diffusion = tuple(float(eps if d == EPS_MARKER else d) for d in self.diffusion)
        return replace(self._template, diffusion=diffusion)


BUILTIN_PROBLEMS: dict[str, ProblemConfig] = {
    "example1": ProblemConfig(
        name="example1",
        n=2,
        coeff=(("4", "-2"), ("-1", "3")),
        forcing=("1", "2"),
        diffusion=(EPS_MARKER, EPS_MARKER),
        bc_left=(0.0, 0.0),
        bc_right=(0.0, 0.0),
    ),
    "example2": ProblemConfig(
        name="example2",
        n=3,
        coeff=(("3", "-1", "-1"), ("-1", "3", "-1"), ("0", "-1", "3")),
        forcing=("0", "1", "x"),
        diffusion=(EPS_MARKER, EPS_MARKER, EPS_MARKER),
        bc_left=(0.0, 0.0, 0.0),
        bc_right=(0.0, 0.0, 0.0),
    ),
}


def _as_expr_str(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return repr(value)
    raise ConfigError(f"expected an expression string or number, got {value!r}")


def _as_number(value) -> float:
    """A JSON number (int or float, not bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}")
    return float(value)


def config_from_dict(data: dict) -> ProblemConfig:
    try:
        return ProblemConfig(
            name=str(data["name"]),
            n=data["n"],
            coeff=tuple(tuple(_as_expr_str(e) for e in row) for row in data["coeff"]),
            forcing=tuple(_as_expr_str(e) for e in data["forcing"]),
            diffusion=tuple(
                d if isinstance(d, str) else _as_number(d) for d in data["diffusion"]
            ),
            bc_left=tuple(_as_number(v) for v in data["bc_left"]),
            bc_right=tuple(_as_number(v) for v in data["bc_right"]),
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge JSON int
        raise ConfigError(str(exc)) from exc


def load_problem(spec: str) -> ProblemConfig:
    """Resolve a --problem argument: a builtin name or a JSON config path."""
    if spec in BUILTIN_PROBLEMS:
        return BUILTIN_PROBLEMS[spec]
    path = Path(spec)
    if not path.exists():
        raise ConfigError(
            f"unknown problem {spec!r}: not a builtin "
            f"({', '.join(sorted(BUILTIN_PROBLEMS))}) and no such file"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(data)


def dump_config(config: ProblemConfig) -> str:
    """Serialize a config to canonical JSON (round-trips via load_problem)."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class RunManifest:
    """Everything one CLI invocation needs: problem, sweeps, output layout."""

    problem: ProblemConfig
    eps_list: tuple[float, ...]
    n_list: tuple[int, ...]
    output_dir: Path
    eval_grid: tuple[float, ...] | int | None = 2001  # None: convergence, which has none
    adaptive: bool = True

    def __post_init__(self) -> None:
        if not self.eps_list:
            raise ConfigError("eps list must be nonempty")
        if not all(0.0 < e < math.inf for e in self.eps_list):
            raise ConfigError("eps values must be positive and finite")
        if self.n_list:
            check_doubling(self.n_list, ConfigError)

    def grid(self) -> np.ndarray:
        if isinstance(self.eval_grid, int):
            return np.linspace(0.0, 1.0, self.eval_grid)
        return np.asarray(self.eval_grid, dtype=float)


def parse_eps_token(token: str) -> float:
    """Parse an eps value: a float literal or a power form like 2^-8.

    A leading sign applies after the power, as in Python: -2^-2 is -0.25.
    """
    token = token.strip()
    for sep in ("^", "**"):
        if sep in token:
            base, exp = token.split(sep, 1)
            try:
                value, power = float(base), float(exp)
                if not (math.isfinite(value) and math.isfinite(power)):  # 1 ** nan == 1
                    raise ValueError(token)
                return math.copysign(abs(value) ** power, value)
            except (ValueError, ArithmeticError) as exc:  # 2^10000, 0^-1
                raise ConfigError(f"bad eps token {token!r}") from exc
    try:
        return float(token)
    except ValueError as exc:
        raise ConfigError(f"bad eps token {token!r}") from exc


def parse_eps_list(text: str) -> tuple[float, ...]:
    return tuple(parse_eps_token(tok) for tok in text.split(",") if tok.strip())


def parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad N list {text!r}") from exc
