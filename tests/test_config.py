"""Tests for run-configuration parsing, serializing, and resolution."""

import dataclasses
import glob
import importlib.util
import os
import re
import sys

import numpy as np
import pytest

from pdflow import cli, config
from pdflow.config import (RunConfig, build_discrete_params,
                           build_flow_params, initial_state, load_problem,
                           parse, parse_file, resolve_tau, serialize)
from pdflow.errors import CertificationError, ConfigError
from pdflow.flow import Adaptive, Euler, RK4
from pdflow.metric import TauSchedule
from pdflow.problems import CATALOG_NAMES, catalog



def _problem_files():
    """The shipped problem files; the data files they name hold no
    [problem] section."""
    found = []
    for path in sorted(glob.glob(os.path.join(
            os.path.dirname(__file__), os.pardir, "problems", "*.txt"))):
        with open(path, encoding="utf-8") as fh:
            if "[problem]" in fh.read():
                found.append(path)
    return found


class TestParse:
    def test_defaults_from_empty_text(self):
        cfg = parse("")
        assert cfg.problem == "example1"
        assert cfg.mode == "flow"
        assert cfg.tau == "auto"
        assert cfg.integrator == "rk4"

    def test_full_document(self):
        cfg = parse("""
# a comment
problem = lasso-small
mode = discrete
c = 2.0
gamma = 0.5
tau = 0.2
integrator = euler
step = 0.5
horizon = 50
max_iters = 250
stop_tol = 1e-9
x0 = 1, 2, 3, 4, 5, 6, 7, 8
hit_threshold = 0.05
record_every = 4
dump_state = true

[sweep]
taucs = 0.4, 0.2
gammas = 0.9, 0.1
""")
        assert cfg.problem == "lasso-small"
        assert cfg.mode == "discrete"
        assert cfg.c == 2.0 and cfg.gamma == 0.5
        assert cfg.tau == 0.2
        assert cfg.integrator == "euler"
        assert cfg.step == 0.5 and cfg.horizon == 50.0
        assert cfg.max_iters == 250 and cfg.stop_tol == 1e-9
        assert cfg.x0 == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        assert cfg.hit_threshold == 0.05
        assert cfg.record_every == 4
        assert cfg.dump_state is True
        assert cfg.sweep_taucs == (0.4, 0.2)
        assert cfg.sweep_gammas == (0.9, 0.1)

    def test_tau_forms(self):
        assert parse("tau = auto").tau == "auto"
        assert parse("tau = 0.3").tau == 0.3
        assert parse("tau = saturating:0.1,0.4").tau == ("saturating", 0.1, 0.4)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse("problem = example1\nc = 1.0\nc = oops\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse("no_such_key = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="section"):
            parse("[mystery]\nkey = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse("c = 1.0\nc = 2.0\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse("just some words\n")

    def test_bad_choice_value_is_anchored(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse("mode = sideways\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse("dump_state = maybe\n")


def _load_script(*parts):
    """A script of the tree, imported from its path under a name of its
    own (a dataclass in it needs its module registered)."""
    name = "_".join(parts)[:-3]
    if name not in sys.modules:
        path = os.path.join(os.path.dirname(__file__), os.pardir, *parts)
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _parse_by_replace(text):
    """`parse` as one `dataclasses.replace` per key: the reference that
    `parse`, which builds its `RunConfig` once, must equal, errors and
    their messages included."""
    cfg = RunConfig()
    seen = set()
    for where, section, key, value in config._scan(text):
        if section == "run":
            handler = config._RUN_KEYS.get(key)
            if handler is None:
                raise ConfigError(f"{where}: unknown key {key!r} in [run]")
        elif section == "sweep":
            handler = config._SWEEP_KEYS.get(key)
            if handler is None:
                raise ConfigError(f"{where}: unknown key {key!r} in [sweep]")
        else:
            raise ConfigError(f"{where}: unknown section [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        seen.add((section, key))
        cfg = dataclasses.replace(
            cfg, **{handler[0]: handler[1](value, where, key)})
    return cfg.validate()


def _written_configs(indir):
    """The config texts that the benchmark's workloads write (seeds 0 and
    1), and the canonical text (`serialize`) of the config of every run of
    `tools/output_digest.py`."""
    workloads = _load_script("perfbench", "workloads.py").WORKLOADS
    texts = []
    for name, workload in workloads.items():
        for seed in (0, 1):
            where = os.path.join(indir, f"{name}-{seed}")
            os.makedirs(where)
            workload.write_inputs(seed, where)
            for path in sorted(glob.glob(os.path.join(where, "*.cfg"))):
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())
    digest = _load_script("tools", "output_digest.py")
    for argv in digest.commands():
        args = cli.build_parser().parse_args(argv)
        texts.append(serialize(cli._load_config(args)))
    return texts


class TestParseOnce:
    def test_equals_a_replace_per_key(self, tmp_path):
        texts = _written_configs(str(tmp_path))
        assert len(texts) > 100
        for text in texts:
            assert parse(text) == _parse_by_replace(text)

    @pytest.mark.parametrize("text", [
        "c = 1.0\nc = 2.0\n", "[sweep]\ntaucs = 0.1\ntaucs = 0.2\n",
        "no_such_key = 1\n", "[sweep]\nstep = 1\n", "[mystery]\nkey = 1\n",
        "problem = example1\nc = 1.0\nc = oops\n", "mode = sideways\n",
        "dump_state = maybe\n", "tau = saturating:0.1\n", "x0 = 1, a\n",
        "max_iters = 2.5\n", "c = -1\n", "step = inf\n"])
    def test_errors_keep_their_messages(self, text):
        with pytest.raises(ConfigError) as want:
            _parse_by_replace(text)
        with pytest.raises(ConfigError) as got:
            parse(text)
        assert str(got.value) == str(want.value)


class TestValidate:
    def test_gamma_range_message(self):
        cfg = RunConfig(gamma=1.5)
        with pytest.raises(ConfigError, match=r"gamma must lie in \[0,1\]"):
            cfg.validate()

    def test_positive_requirements(self):
        with pytest.raises(ConfigError):
            RunConfig(c=0.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(step=-0.1).validate()
        with pytest.raises(ConfigError):
            RunConfig(horizon=0.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(max_iters=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(record_every=0).validate()

    @pytest.mark.parametrize("step", [float("inf"), float("nan"), 0.0,
                                      -1.0])
    def test_step_must_be_positive_and_finite(self, step):
        """An infinite step would take no integrator step at all."""
        with pytest.raises(ConfigError,
                           match="step must be positive and finite"):
            RunConfig(step=step).validate()

    @pytest.mark.parametrize("key,value,message", [
        ("stop_tol", float("nan"), "stop_tol must not be NaN"),
        ("hit_threshold", float("nan"), "hit_threshold must be nonnegative"),
        ("hit_threshold", -1.0, "hit_threshold must be nonnegative"),
    ])
    def test_nan_and_negative_thresholds_rejected(self, key, value, message):
        """A NaN stop_tol never stops a run, and a NaN or negative hit
        threshold is never hit."""
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{key: value}).validate()

    def test_threshold_edges_accepted(self):
        """-inf runs every iteration (the checks use it), and a zero hit
        threshold is a legal, if strict, level."""
        cfg = RunConfig(stop_tol=-np.inf, hit_threshold=0.0)
        assert cfg.validate() is cfg

    def test_valid_config_returns_self(self):
        cfg = RunConfig()
        assert cfg.validate() is cfg


class TestSerialize:
    def test_round_trip_semantics(self):
        cfg = RunConfig(problem="box-qp", mode="discrete", c=2.0, gamma=0.25,
                        tau=0.11, integrator="euler", step=0.5, horizon=20.0,
                        max_iters=300, stop_tol=1e-7,
                        x0=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                        hit_threshold=0.2, record_every=3, dump_state=True,
                        sweep_taucs=(0.4, 0.2), sweep_gammas=(0.9,))
        again = parse(serialize(cfg))
        assert again == cfg

    def test_round_trip_saturating_tau(self):
        cfg = RunConfig(tau=("saturating", 0.1, 0.45))
        assert parse(serialize(cfg)).tau == ("saturating", 0.1, 0.45)

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(serialize(RunConfig(problem="lasso-small", c=3.0)))
        cfg = parse_file(path)
        assert cfg.problem == "lasso-small"
        assert cfg.c == 3.0


class TestResolveTau:
    def test_explicit_number(self, example1):
        sched = resolve_tau(0.3, example1, 1.0, 1.0)
        assert isinstance(sched, TauSchedule)
        assert sched.value(0.0) == 0.3

    def test_saturating_tuple(self, example1):
        sched = resolve_tau(("saturating", 0.1, 0.4), example1, 1.0, 1.0)
        assert sched.value(0.0) == pytest.approx(0.1)
        assert sched.tau_max == 0.4

    def test_auto_on_example1(self, example1):
        """||A||^2 = 2, L = 0, c = 1, gamma = 1: the three bounds are
        1/2, 4/8, and 2/4, all 0.5, so auto picks 0.495."""
        sched = resolve_tau("auto", example1, 1.0, 1.0)
        assert sched.value(0.0) == pytest.approx(0.495)

    def test_auto_respects_smooth_lipschitz(self):
        """For the box QP (A = I, L > 0) the unit-step stability bound
        2/(L + 2c) is the binding one."""
        p = catalog("box-qp")
        lip = p.h.lipschitz_grad
        sched = resolve_tau("auto", p, 1.0, 1.0)
        expected = 0.99 * min(1.0, 4.0 / (lip + 4.0), 2.0 / (lip + 2.0))
        assert sched.value(0.0) == pytest.approx(expected, rel=1e-6)
        assert sched.value(0.0) < 4.0 / (lip + 4.0), \
            "auto must sit strictly inside the flow condition"

    @pytest.mark.parametrize("c", [1.0, 1.5])
    @pytest.mark.parametrize(
        "problem", list(CATALOG_NAMES) + _problem_files(),
        ids=lambda s: os.path.basename(s))
    def test_auto_is_inside_the_step_test_by_its_margin(self, problem, c):
        """c tau ||A||^2 <= 0.99 with the exact ||A||_2: the 1 percent
        margin of `auto` is not eaten by an estimate of the norm that
        reads low."""
        p = load_problem(problem)
        norm = np.linalg.norm(p.A.to_dense(), 2)
        tau = resolve_tau("auto", p, c, 0.5).value(0.0)
        assert c * tau * norm ** 2 <= 0.99 * (1.0 + 1e-12)

    def test_garbage_rejected(self, example1):
        with pytest.raises(ConfigError):
            resolve_tau("fast", example1, 1.0, 1.0)


class TestBuildParams:
    def test_flow_params(self, example1):
        cfg = RunConfig(c=1.0, gamma=0.5, tau=0.25, horizon=30.0,
                        integrator="rk4", step=0.02)
        params = build_flow_params(cfg, example1)
        assert params.c == 1.0 and params.gamma == 0.5
        assert params.tau.value(0.0) == 0.25
        assert params.horizon == 30.0
        assert isinstance(params.integrator, RK4)
        assert params.integrator.h == 0.02

    def test_flow_params_overrides(self, example1):
        cfg = RunConfig(gamma=0.5, tau=0.25)
        params = build_flow_params(cfg, example1, gamma=0.99, tau=0.1)
        assert params.gamma == 0.99
        assert params.tau.value(0.0) == 0.1

    def test_integrator_selection(self, example1):
        assert isinstance(
            build_flow_params(RunConfig(integrator="euler", tau=0.2),
                              example1).integrator, Euler)
        ada = build_flow_params(
            RunConfig(integrator="adaptive", tau=0.2, rel_tol=1e-7,
                      step=0.05), example1).integrator
        assert isinstance(ada, Adaptive)
        assert ada.rel_tol == 1e-7
        assert ada.h0 == 0.05

    def test_discrete_params(self, example1):
        cfg = RunConfig(c=2.0, gamma=1.0, tau=0.1, max_iters=77,
                        stop_tol=1e-5)
        d = build_discrete_params(cfg, example1)
        assert d.c == 2.0
        assert d.tau.value(0) == 0.1
        assert d.max_iters == 77
        assert d.stop_tol == 1e-5


class TestInitialState:
    def test_auto_uses_problem_start(self, example1):
        s = initial_state(RunConfig(), example1)
        np.testing.assert_array_equal(s.x, [-10.0, 10.0])
        np.testing.assert_array_equal(s.z, [-20.0, 0.0])
        np.testing.assert_array_equal(s.y, [-10.0, 10.0])

    def test_named_default(self, example1):
        cfg = RunConfig(x0="example1-default", z0="example1-default",
                        y0="example1-default")
        s = initial_state(cfg, example1)
        np.testing.assert_array_equal(s.z, [-20.0, 0.0])

    def test_explicit_vectors(self, example1):
        cfg = RunConfig(x0=(1.0, 2.0), z0=(3.0, 4.0), y0=(5.0, 6.0))
        s = initial_state(cfg, example1)
        np.testing.assert_array_equal(s.x, [1.0, 2.0])
        np.testing.assert_array_equal(s.z, [3.0, 4.0])
        np.testing.assert_array_equal(s.y, [5.0, 6.0])

    def test_auto_z_follows_overridden_x(self, example1):
        """When x0 is set but z0 stays auto, the splitting variable starts
        consistent: z0 = A x0."""
        cfg = RunConfig(x0=(1.0, 2.0))
        s = initial_state(cfg, example1)
        np.testing.assert_allclose(s.z, example1.A.apply(np.array([1.0, 2.0])))

    def test_dimension_mismatch(self, example1):
        with pytest.raises(ConfigError, match="dimension"):
            initial_state(RunConfig(x0=(1.0, 2.0, 3.0)), example1)


class TestLoadProblem:
    def test_catalog_names(self):
        assert load_problem("example1").name == "example1"
        assert load_problem("box-qp").name == "box-qp"

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            load_problem("nothere")

    def test_problem_file(self, tmp_path):
        doc = """
[problem]
name = tiny-l1
f = sq_norm
f.coef = 1.0
h = zero
g = l1
g.weight = 0.5
A = identity
A.dim = 3
A.scale = 2.0
"""
        path = tmp_path / "tiny.problem"
        path.write_text(doc)
        p = load_problem(str(path))
        assert p.name == "tiny-l1"
        assert (p.n, p.m) == (3, 3)
        np.testing.assert_allclose(p.A.apply(np.ones(3)), 2.0 * np.ones(3))
        assert p.g(np.array([1.0, -1.0, 0.0])) == pytest.approx(1.0)
        assert p.known_primal is None

    def test_problem_file_with_dense_data(self, tmp_path):
        amat = tmp_path / "amat.txt"
        amat.write_text("2 2\n1.0 -1.0\n1.0 1.0\n")
        center = tmp_path / "center.txt"
        center.write_text("2 1\n0.5\n-0.5\n")
        doc = """
[problem]
name = file-backed
f = zero
h = zero
g = sq_distance
g.center = @center.txt
A = @amat.txt
"""
        path = tmp_path / "fb.problem"
        path.write_text(doc)
        p = load_problem(str(path))
        np.testing.assert_allclose(p.A.apply(np.array([1.0, 0.0])), [1.0, 1.0])
        assert p.g(np.array([0.5, -0.5])) == pytest.approx(0.0)

    def test_problem_file_with_known_solution(self, tmp_path):
        doc = """
[problem]
name = solved
f = sq_norm
h = zero
g = sq_norm
A = identity
A.dim = 2
known_primal = 0, 0
known_dual = 0, 0
"""
        path = tmp_path / "solved.problem"
        path.write_text(doc)
        p = load_problem(str(path))
        np.testing.assert_array_equal(p.known_primal, np.zeros(2))

    def test_problem_file_without_rows_runs(self, tmp_path):
        """An A with columns and no rows is a problem in x alone, which
        every subcommand runs; only an A without columns is refused."""
        (tmp_path / "A.txt").write_text("0 2\n")
        path = tmp_path / "p.txt"
        path.write_text("[problem]\nf = sq_norm\ng = zero\nA = @A.txt\n")
        p = load_problem(str(path))
        assert (p.n, p.m) == (2, 0)
        for command in ("flow", "discrete", "check"):
            assert cli.main([command, "--problem", str(path), "--tau", "0.5",
                             "--horizon", "2", "--out",
                             str(tmp_path / "out")]) == 0

    def test_problem_file_errors_are_anchored(self, tmp_path):
        path = tmp_path / "bad.problem"
        path.write_text("[problem]\nname = x\nf = warp\nh = zero\ng = zero\n"
                        "A = identity\nA.dim = 2\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_problem(str(path))

    def test_problem_file_requires_all_kinds(self, tmp_path):
        path = tmp_path / "short.problem"
        path.write_text("[problem]\nname = x\nf = zero\nA = identity\nA.dim = 2\n")
        with pytest.raises(ConfigError):
            load_problem(str(path))


# a problem whose f, g and A load, and data files for h.P: a non-symmetric
# matrix, an indefinite one and the 3 x 3 identity
_LOADS = "[problem]\nf = zero\ng = zero\nA = identity\nA.dim = 2\n"
_ASYMMETRIC = "2 2\n1.0 2.0\n0.0 1.0\n"
_INDEFINITE = "2 2\n1.0 0.0\n0.0 -1.0\n"
_EYE3 = "3 3\n1.0 0.0 0.0\n0.0 1.0 0.0\n0.0 0.0 1.0\n"

# (id, what the first file is, {file name: text, or None for a directory
# in its place}, the error, its message)
_REJECTED = [
    ("malformed-section-header", "config", {"run.cfg": "c = 1\n[run\n"},
     ConfigError, r"run\.cfg: line 2: malformed section header '\[run'"),
    ("empty-key", "config", {"run.cfg": "c = 1\n = 2\n"},
     ConfigError, r"run\.cfg: line 2: empty key in ' = 2'"),
    ("unreadable-config", "config", {"run.cfg": None},
     ConfigError, r"cannot read config .*run\.cfg"),
    ("unloadable-path", "problem",
     {"p.txt": _LOADS + "f.center = @missing.txt\n"},
     ConfigError, r"line 6: f\.center: cannot load .*missing\.txt"),
    ("unreadable-problem-file", "problem", {"p.txt": None},
     ConfigError, r"cannot read problem file .*p\.txt"),
    ("unknown-section", "problem", {"p.txt": _LOADS + "[solver]\nx = 1\n"},
     ConfigError, r"p\.txt: line 7: unknown section \[solver\]"),
    ("unknown-dotted-owner", "problem", {"p.txt": _LOADS + "q.weight = 1\n"},
     ConfigError, r"p\.txt: line 6: unknown key 'q\.weight'"),
    ("unknown-key", "problem", {"p.txt": _LOADS + "solver = fista\n"},
     ConfigError, r"p\.txt: line 6: unknown key 'solver'"),
    ("identity-without-dim", "problem",
     {"p.txt": "[problem]\nf = zero\ng = zero\nA = identity\n"},
     ConfigError, r"p\.txt: line 4: A = identity needs A\.dim"),
    ("A-neither-path-nor-identity", "problem",
     {"p.txt": "[problem]\nf = zero\ng = zero\nA = random\n"},
     ConfigError, r"p\.txt: line 4: A must be @path or identity, "
                  r"got 'random'"),
    ("quadratic-without-P", "problem", {"p.txt": _LOADS + "h = quadratic\n"},
     ConfigError, r"p\.txt: line 6: h = quadratic needs h\.P"),
    ("non-symmetric-P", "problem",
     {"p.txt": _LOADS + "h = quadratic\nh.P = @P.txt\n",
      "P.txt": _ASYMMETRIC},
     ConfigError, r"p\.txt: quadratic smooth term needs a symmetric matrix"),
    ("unknown-h-kind", "problem", {"p.txt": _LOADS + "h = cubic\n"},
     ConfigError, r"p\.txt: line 6: h must be zero or quadratic, "
                  r"got 'cubic'"),
    ("P-not-A-columns", "problem",
     {"p.txt": _LOADS + "h = quadratic\nh.P = @P.txt\n", "P.txt": _EYE3},
     ConfigError, r"p\.txt: f and h must live on the domain of A"),
    ("unread-f-weight", "cli",
     {"p.txt": "[problem]\nf = l1\nf.wieght = 0.05\ng = zero\n"
               "A = identity\nA.dim = 2\n"},
     ConfigError, r"p\.txt: line 3: f = l1 does not read 'f\.wieght'"),
    ("unread-g-coeff", "problem",
     {"p.txt": "[problem]\nf = zero\ng = sq_norm\ng.coeff = 3\n"
               "A = identity\nA.dim = 2\n"},
     ConfigError, r"p\.txt: line 4: g = sq_norm does not read 'g\.coeff'"),
    ("unread-A-scale", "problem", {"p.txt": _LOADS + "A.sclae = 2\n"},
     ConfigError, r"p\.txt: line 6: A = identity does not read 'A\.sclae'"),
    ("P-under-zero-h", "problem",
     {"p.txt": _LOADS + "h = zero\nh.P = @P.txt\n", "P.txt": _EYE3},
     ConfigError, r"p\.txt: line 7: h = zero does not read 'h\.P'"),
    ("dim-under-A-path", "problem",
     {"p.txt": "[problem]\nf = zero\ng = zero\nA = @A.txt\nA.dim = 3\n",
      "A.txt": _EYE3},
     ConfigError, r"p\.txt: line 5: A = @A\.txt does not read 'A\.dim'"),
    ("known-primal-length", "cli",
     {"p.txt": _LOADS + "known_primal = 1, 2, 3\n"},
     ConfigError, r"p\.txt: known_primal has shape \(3,\), expected \(2,\)"),
    ("repeated-f-weight", "cli",
     {"p.txt": "[problem]\nf = l1\nf.weight = 0.5\nf.weight = 2\n"
               "g = zero\nA = identity\nA.dim = 2\n"},
     ConfigError, r"p\.txt: line 4: duplicate key 'f\.weight'"),
    ("repeated-g-kind", "cli",
     {"p.txt": "[problem]\nf = zero\ng = zero\ng = sq_norm\n"
               "A = identity\nA.dim = 2\n"},
     ConfigError, r"p\.txt: line 4: duplicate key 'g'"),
    ("repeated-name", "problem", {"p.txt": _LOADS + "name = a\nname = b\n"},
     ConfigError, r"p\.txt: line 7: duplicate key 'name'"),
    ("repeated-A-dim", "problem", {"p.txt": _LOADS + "A.dim = 3\n"},
     ConfigError, r"p\.txt: line 6: duplicate key 'A\.dim'"),
    ("repeated-across-sections", "problem",
     {"p.txt": _LOADS + "[run]\nf = l1\n"},
     ConfigError, r"p\.txt: line 7: duplicate key 'f'"),
    ("identity-dim-zero", "cli",
     {"p.txt": "[problem]\nf = zero\ng = zero\nA = identity\nA.dim = 0\n"},
     ConfigError, r"p\.txt: line 5: A\.dim must be a positive integer"),
    ("identity-dim-fraction", "cli",
     {"p.txt": "[problem]\nf = zero\ng = zero\nA = identity\nA.dim = 2.5\n"},
     ConfigError, r"p\.txt: line 5: A\.dim must be a positive integer"),
    ("identity-dim-vector", "problem",
     {"p.txt": "[problem]\nf = zero\ng = zero\nA = identity\nA.dim = 1, 2\n"},
     ConfigError, r"p\.txt: line 5: A\.dim must be a positive integer"),
    ("A-path-without-columns", "cli",
     {"p.txt": "[problem]\nf = zero\ng = zero\nA = @A.txt\n", "A.txt": "2 0\n"},
     ConfigError, r"p\.txt: line 4: A has no columns"),
    ("non-convex-P", "cli",
     {"p.txt": _LOADS + "h = quadratic\nh.P = @P.txt\n",
      "P.txt": _INDEFINITE},
     CertificationError, r"quadratic smooth term is not convex"),
]


class TestRejectedFiles:
    """A config or problem file that cannot be read or is malformed raises
    `ConfigError` with its message; a non-convex h.P raises
    `CertificationError`.  For the "cli" cases, `cli.main` turns the error
    into exit 1 and a `pdflow:` line on stderr."""

    @pytest.mark.parametrize("what,files,error,message",
                             [case[1:] for case in _REJECTED],
                             ids=[case[0] for case in _REJECTED])
    def test_rejected_with_its_message(self, what, files, error, message,
                                       tmp_path, capsys):
        for name, text in files.items():
            if text is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text(text)
        path = str(tmp_path / next(iter(files)))
        with pytest.raises(error, match=message):
            (parse_file if what == "config" else load_problem)(path)
        if what == "cli":
            assert cli.main(["flow", "--problem", path, "--out",
                             str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("pdflow: ") and re.search(message, err)
