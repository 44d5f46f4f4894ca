"""Run configuration: flat key-value text with sections, round-trippable.

Format: one `key = value` per line, optional `[section]` headers, `#`
comment lines.  Keys before any header belong to [run].  Vectors are
comma-separated decimals.  The parser reports malformed input with the
offending line number.

Sections and keys:

  [run]    problem, mode, c, gamma, tau, integrator, step, rel_tol,
           abs_tol, horizon, max_iters, stop_tol, x0, z0, y0, grid,
           hit_threshold, record_every, dump_state, out
  [sweep]  taucs, gammas

`mode` must be one of flow, discrete, sweep and check, and is otherwise
ignored: the subcommand decides what runs.

`tau` is a decimal, `auto`, or `saturating:tau0,tau_max`.  `auto` picks
the largest step the flow's conditions allow, shrunk by 1 percent:
0.99 min(1/(c n^2), 4/(L + c(3+gamma) n^2), 2/(L + 2 c n^2)) with n the
exact ||A||_2 (an eigensolve, so no estimate eats the margin) and L the
gradient Lipschitz constant of h.  The first term is the closed-form step
test c tau n^2 <= 1, the second the rate condition
tau (L/4 + c (3+gamma)/4 n^2) <= 1 of `metric.certify`, the last the same
with L/2 at gamma = 1.  With n = 0 and L = 0 every step passes them, so
`auto` has no largest step and is a ConfigError.  They bound the flow,
not the unit-step discrete schemes.  At the CLI's other defaults, `discrete --tau
auto` diverges on example1 at gamma = 0.5 and 0.01 (after 221 and 41
iterations) and, at gamma = 0.01, on lasso-small (63) and on the problem
files `ridge-identity.txt` (92), `wide-lasso.txt` (61) and
`wide-identity.txt` (60).  It ends at its budget on box-qp, which has an
h, at gamma = 0.5 and 0.01 (exit 2, the Lyapunov values rise), and on
`wide-identity.txt` at gamma = 0.5 (exit 0, still converging).  Every run
at gamma = 1 or 0.99, and every `l1-box.txt` run, ends in `tolerance`.  A
certified discrete step is open item 2 of ROADMAP.md.

`x0`/`z0`/`y0` accept a vector, `auto` (problem default; z0 = A x0), or
`example1-default` (the documented start (-10,10)/(-20,0)/(-10,10)).

A problem is a catalog name or a path to a problem file: a [problem]
section with kind keys `f`, `h`, `g`, `A` plus dotted parameter keys, e.g.

  [problem]
  name = my-lasso
  f = l1
  f.weight = 0.05
  h = zero
  g = sq_distance
  g.center = @b.txt
  A = @a.txt

`@path` values load dense arrays (paths relative to the problem file).
`A = identity` takes `A.dim`, a positive integer, and optional `A.scale`;
an `A = @path` needs at least one column.  A key given twice is an error,
as in a run config, and so is a dotted key that its term's kind does not
read: `sq_norm` reads `coef`, `l1` `weight`, `box` `lo` and `hi`,
`sq_distance` `center` and `coef`, `h = quadratic` `P` and `q`, and
`zero` and `A = @path` read none.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import proxlib
from .diagnostics import DEFAULT_GRID
from .errors import ConfigError
from .flow import Adaptive, Euler, FlowParams, RK4, SystemState
from .linops import LinearMap, load_dense
from .metric import TauSchedule
from .problems import CATALOG_NAMES, ProblemSpec, catalog

__all__ = [
    "RunConfig",
    "parse",
    "parse_file",
    "serialize",
    "load_problem",
    "resolve_tau",
    "build_flow_params",
    "build_discrete_params",
    "initial_state",
]

MODES = ("flow", "discrete", "sweep", "check")
INTEGRATORS = ("euler", "rk4", "adaptive")


@dataclass
class RunConfig:
    """Parsed run description; see the module docstring for the format."""

    problem: str = "example1"
    mode: str = "flow"
    c: float = 1.0
    gamma: float = 1.0
    tau: object = "auto"
    integrator: str = "rk4"
    step: float = 0.01
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    horizon: float = 100.0
    max_iters: int = 1000
    stop_tol: float = 1e-8
    x0: object = "auto"
    z0: object = "auto"
    y0: object = "auto"
    grid: tuple = DEFAULT_GRID
    hit_threshold: float = 1e-2
    record_every: int = 1
    dump_state: bool = False
    out: str | None = None
    sweep_taucs: tuple = (0.49, 0.25, 0.1)
    sweep_gammas: tuple = (0.99, 0.5, 0.01)

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(
                f"integrator must be one of {', '.join(INTEGRATORS)}")
        if not self.c > 0:
            raise ConfigError("penalty c must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must lie in [0,1]")
        if not 0 < self.step < math.inf:
            raise ConfigError("step must be positive and finite")
        if not self.horizon > 0:
            raise ConfigError("horizon must be positive")
        if not math.isfinite(self.horizon):
            raise ConfigError("horizon must be finite")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if math.isnan(self.stop_tol):
            raise ConfigError("stop_tol must not be NaN")
        if not self.hit_threshold >= 0:
            raise ConfigError("hit_threshold must be nonnegative")
        if self.record_every < 1:
            raise ConfigError("record_every must be at least 1")
        return self


# -- text <-> RunConfig -------------------------------------------------------


def _scan(text):
    """Yield (where, section, key, value) tuples; raise on malformed lines."""
    section = "run"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"line {lineno}: malformed section header {raw!r}")
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        yield f"line {lineno}", section, key, value.strip()


def _as_float(value, where, key):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects a decimal, got {value!r}") from None


def _as_int(value, where, key):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects an integer, got {value!r}") from None


def _as_bool(value, where, key):
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: {key} expects true/false, got {value!r}")


def _as_vector(value, where, key):
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError:
        raise ConfigError(
            f"{where}: {key} expects comma-separated decimals, got {value!r}") from None


def _as_point(value, where, key):
    if value in ("auto", "example1-default"):
        return value
    return _as_vector(value, where, key)


def _as_choice(choices):
    def convert(value, where, key):
        low = value.lower()
        if low not in choices:
            raise ConfigError(
                f"{where}: {key} must be one of {', '.join(choices)}, got {value!r}")
        return low
    return convert


def _as_tau(value, where):
    if value == "auto":
        return "auto"
    if value.startswith("saturating:"):
        parts = _as_vector(value[len("saturating:"):], where, "tau")
        if len(parts) != 2:
            raise ConfigError(
                f"{where}: tau saturating schedule needs tau0,tau_max")
        return ("saturating",) + parts
    return _as_float(value, where, "tau")


def parse(text: str) -> RunConfig:
    """Parse config text; malformed input raises ConfigError with the line.
    The converted values are collected first and the `RunConfig` is built
    once from them."""
    fields = {}
    for where, section, key, value in _scan(text):
        if section == "run":
            handler = _RUN_KEYS.get(key)
            if handler is None:
                raise ConfigError(f"{where}: unknown key {key!r} in [run]")
        elif section == "sweep":
            handler = _SWEEP_KEYS.get(key)
            if handler is None:
                raise ConfigError(f"{where}: unknown key {key!r} in [sweep]")
        else:
            raise ConfigError(f"{where}: unknown section [{section}]")
        # each (section, key) has its own field
        if handler[0] in fields:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        fields[handler[0]] = handler[1](value, where, key)
    return RunConfig(**fields).validate()


_RUN_KEYS = {
    "problem": ("problem", lambda v, n, k: v),
    "mode": ("mode", _as_choice(MODES)),
    "c": ("c", _as_float),
    "gamma": ("gamma", _as_float),
    "tau": ("tau", lambda v, n, k: _as_tau(v, n)),
    "integrator": ("integrator", _as_choice(INTEGRATORS)),
    "step": ("step", _as_float),
    "rel_tol": ("rel_tol", _as_float),
    "abs_tol": ("abs_tol", _as_float),
    "horizon": ("horizon", _as_float),
    "max_iters": ("max_iters", _as_int),
    "stop_tol": ("stop_tol", _as_float),
    "x0": ("x0", _as_point),
    "z0": ("z0", _as_point),
    "y0": ("y0", _as_point),
    "grid": ("grid", _as_vector),
    "hit_threshold": ("hit_threshold", _as_float),
    "record_every": ("record_every", _as_int),
    "dump_state": ("dump_state", _as_bool),
    "out": ("out", lambda v, n, k: v),
}

_SWEEP_KEYS = {
    "taucs": ("sweep_taucs", _as_vector),
    "gammas": ("sweep_gammas", _as_vector),
}


def parse_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        return parse(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _fmt(value) -> str:
    """The text of a config or footer value; a numpy bool or float prints
    as the Python value it stands for."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and value[0] == "saturating":
            return "saturating:" + ",".join(repr(float(v)) for v in value[1:])
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def serialize(cfg: RunConfig) -> str:
    """Canonical text for a config; parse(serialize(cfg)) equals cfg."""
    lines = ["[run]"]
    for key, (attr, _) in _RUN_KEYS.items():
        value = getattr(cfg, attr)
        if value is None:
            continue
        lines.append(f"{key} = {_fmt(value)}")
    lines.append("")
    lines.append("[sweep]")
    lines.append(f"taucs = {_fmt(cfg.sweep_taucs)}")
    lines.append(f"gammas = {_fmt(cfg.sweep_gammas)}")
    lines.append("")
    return "\n".join(lines)


# -- problem files ------------------------------------------------------------


_PROX_KINDS = ("zero", "sq_norm", "l1", "box", "sq_distance")


def _load_value(value, base_dir, where, key):
    """Scalar, comma vector, or @path dense array (returned as ndarray)."""
    if value.startswith("@"):
        path = os.path.join(base_dir, value[1:])
        try:
            return load_dense(path).to_dense()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where}: {key}: cannot load {path}: {exc}") from None
    if "," in value:
        return np.array(_as_vector(value, where, key))
    return _as_float(value, where, key)


def _build_prox(kind, params, dim, where, key):
    """The prox term of `kind` on R^dim; pops the parameters it reads."""
    def take(name, default):
        value = params.pop(name, default)
        return np.ravel(value) if isinstance(value, np.ndarray) else value

    if kind == "zero":
        return proxlib.zero(dim)
    if kind == "sq_norm":
        return proxlib.sq_norm(dim, coef=take("coef", 1.0))
    if kind == "l1":
        return proxlib.l1_norm(dim, weight=take("weight", 1.0))
    if kind == "box":
        return proxlib.box(dim, lo=take("lo", -1.0), hi=take("hi", 1.0))
    if kind == "sq_distance":
        center = take("center", 0.0)
        return proxlib.sq_distance(dim, center=center, coef=take("coef", 1.0))
    raise ConfigError(
        f"{where}: {key} must be one of {', '.join(_PROX_KINDS)}, got {kind!r}")


def _problem_from_file(path) -> ProblemSpec:
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read problem file {path}: {exc}") from None

    kinds = {}
    params = {"f": {}, "h": {}, "g": {}, "A": {}}
    name = os.path.splitext(os.path.basename(path))[0]
    known, dotted, seen = {}, {}, set()
    for where, section, key, value in _scan(text):
        if section not in ("run", "problem"):
            raise ConfigError(f"{path}: {where}: unknown section [{section}]")
        if key in seen:
            raise ConfigError(f"{path}: {where}: duplicate key {key!r}")
        seen.add(key)
        if key == "name":
            name = value
        elif key in ("f", "h", "g", "A"):
            kinds[key] = (value, where)
        elif "." in key:
            owner, _, pname = key.partition(".")
            if owner not in params:
                raise ConfigError(f"{path}: {where}: unknown key {key!r}")
            params[owner][pname] = _load_value(value, base_dir, where, key)
            dotted[key] = where
        elif key in ("known_primal", "known_dual"):
            known[key] = np.atleast_1d(np.asarray(
                _load_value(value, base_dir, where, key), dtype=float))
        else:
            raise ConfigError(f"{path}: {where}: unknown key {key!r}")

    for required in ("f", "g", "A"):
        if required not in kinds:
            raise ConfigError(f"{path}: problem file must set {required!r}")

    a_kind, a_where = kinds["A"]
    if a_kind.startswith("@"):
        mat = _load_value(a_kind, base_dir, a_where, "A")
        a_map = LinearMap.from_dense(np.atleast_2d(mat))
        if a_map.in_dim == 0:
            raise ConfigError(f"{path}: {a_where}: A has no columns")
    elif a_kind == "identity":
        dim = params["A"].pop("dim", None)
        if dim is None:
            raise ConfigError(f"{path}: {a_where}: A = identity needs A.dim")
        if not (isinstance(dim, float) and dim.is_integer() and dim >= 1):
            raise ConfigError(
                f"{path}: {dotted['A.dim']}: A.dim must be a positive integer")
        a_map = LinearMap.identity(int(dim), float(params["A"].pop("scale", 1.0)))
    else:
        raise ConfigError(
            f"{path}: {a_where}: A must be @path or identity, got {a_kind!r}")

    try:
        f_kind, f_where = kinds["f"]
        f = _build_prox(f_kind, params["f"], a_map.in_dim, f_where, "f")
        g_kind, g_where = kinds["g"]
        g = _build_prox(g_kind, params["g"], a_map.out_dim, g_where, "g")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None

    h_kind, h_where = kinds.get("h", ("zero", "default"))
    if h_kind == "zero":
        h = proxlib.zero_smooth(a_map.in_dim)
    elif h_kind == "quadratic":
        p_mat = params["h"].pop("P", None)
        if p_mat is None:
            raise ConfigError(f"{path}: {h_where}: h = quadratic needs h.P")
        q_vec = params["h"].pop("q", None)
        if q_vec is not None:
            q_vec = np.ravel(q_vec)
        try:
            h = proxlib.quadratic_smooth(np.atleast_2d(p_mat), q_vec)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    else:
        raise ConfigError(
            f"{path}: {h_where}: h must be zero or quadratic, got {h_kind!r}")

    # each term popped the parameters its kind reads
    for key, where in dotted.items():
        owner, _, pname = key.partition(".")
        if pname in params[owner]:
            kind = kinds.get(owner, ("zero",))[0]
            raise ConfigError(
                f"{path}: {where}: {owner} = {kind} does not read {key!r}")

    try:
        return ProblemSpec(name=name, f=f, h=h, g=g, A=a_map,
                           known_primal=known.get("known_primal"),
                           known_dual=known.get("known_dual"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_problem(spec_string: str) -> ProblemSpec:
    """Catalog name or problem-file path -> ProblemSpec."""
    if spec_string in CATALOG_NAMES:
        return catalog(spec_string)
    if os.path.exists(spec_string):
        return _problem_from_file(spec_string)
    raise ConfigError(
        f"unknown problem {spec_string!r}: not a catalog name "
        f"({', '.join(CATALOG_NAMES)}) and not a file")


# -- materialization ----------------------------------------------------------


def resolve_tau(cfg_tau, p: ProblemSpec, c, gamma) -> TauSchedule:
    """Turn the config tau entry into a schedule; `auto` derives a safe step."""
    if isinstance(cfg_tau, (int, float)):
        return TauSchedule.constant(float(cfg_tau))
    if isinstance(cfg_tau, tuple) and cfg_tau and cfg_tau[0] == "saturating":
        return TauSchedule.saturating(cfg_tau[1], cfg_tau[2])
    if cfg_tau == "auto":
        n_sq = p.A.norm() ** 2
        lip = p.h.lipschitz_grad
        if lip == 0.0 and n_sq == 0.0:
            raise ConfigError(
                "tau = auto has no largest step: with ||A|| = 0 and a "
                "gradient of h with Lipschitz constant 0, every tau passes "
                "the flow's conditions; give an explicit --tau")
        bounds = [4.0 / (lip + c * (3.0 + gamma) * n_sq),
                  2.0 / (lip + 2.0 * c * n_sq)]
        if n_sq > 0:
            bounds.append(1.0 / (c * n_sq))
        return TauSchedule.constant(0.99 * min(bounds))
    raise ConfigError(f"cannot interpret tau setting {cfg_tau!r}")


def _integrator(cfg: RunConfig):
    if cfg.integrator == "euler":
        return Euler(h=cfg.step)
    if cfg.integrator == "rk4":
        return RK4(h=cfg.step)
    return Adaptive(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, h0=cfg.step)


def build_flow_params(cfg: RunConfig, p: ProblemSpec, gamma=None,
                      tau=None) -> FlowParams:
    gamma = cfg.gamma if gamma is None else gamma
    schedule = resolve_tau(cfg.tau if tau is None else tau, p, cfg.c, gamma)
    return FlowParams(c=cfg.c, gamma=gamma, tau=schedule,
                      horizon=cfg.horizon, integrator=_integrator(cfg))


def build_discrete_params(cfg: RunConfig, p: ProblemSpec):
    from .discrete import DiscreteParams

    schedule = resolve_tau(cfg.tau, p, cfg.c, cfg.gamma)
    return DiscreteParams(c=cfg.c, gamma=cfg.gamma, tau=schedule,
                          max_iters=cfg.max_iters, stop_tol=cfg.stop_tol)


def _resolve_point(setting, dim, fallback, what):
    if setting == "auto":
        return np.asarray(fallback, dtype=float)
    if setting == "example1-default":
        vec = dict(zip(("x0", "z0", "y0"),
                       catalog("example1").default_start()))[what]
    else:
        vec = np.asarray(setting, dtype=float)
    if vec.shape != (dim,):
        raise ConfigError(f"{what} has dimension {vec.shape[0]}, expected {dim}")
    return vec


def initial_state(cfg: RunConfig, p: ProblemSpec) -> SystemState:
    """Resolve x0/z0/y0 against the problem; auto z0 is A x0."""
    dx0, dz0, dy0 = p.default_start()
    x0 = _resolve_point(cfg.x0, p.n, dx0, "x0")
    y0 = _resolve_point(cfg.y0, p.m, dy0, "y0")
    z_fallback = p.A.apply(x0) if cfg.x0 != "auto" else dz0
    z0 = _resolve_point(cfg.z0, p.m, z_fallback, "z0")
    return SystemState(t=0.0, x=x0, z=z0, y=y0)
