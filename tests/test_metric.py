"""Tests for step schedules, metric schedules, and the condition certificates."""

import dataclasses
import math

import numpy as np
import pytest

from pdflow import metric
from pdflow.linops import LinearMap, SelfAdjointPSD, psd_floor
from pdflow.metric import (MetricSchedule, TauSchedule, certify,
                           default_sample_times, weight_W, x_update_metric,
                           z_update_metric)

_A2 = LinearMap.from_dense(np.array([[1.0, -1.0], [1.0, 1.0]]))
# A* A = 2 I for this map, so every operator condition collapses to a scalar.


class TestTauSchedule:
    def test_constant(self):
        """The one saturating formula gives tau0 bit for bit when
        tau0 == tau_max."""
        tau = TauSchedule.constant(0.3)
        assert tau.tau0 == tau.tau_max == 0.3
        for t in (0.0, 1.0, 7.5, 57.0, 1e3):
            assert tau.value(t) == 0.3

    def test_saturating_values(self):
        tau = TauSchedule.saturating(0.1, 0.5)
        assert tau.value(0.0) == pytest.approx(0.1)
        assert tau.value(1.0) == pytest.approx(0.5 - 0.4 * math.exp(-1.0))
        assert tau.value(50.0) == pytest.approx(0.5)
        assert tau.value(1e3) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TauSchedule.constant(0.0)
        with pytest.raises(ValueError):
            TauSchedule.saturating(0.5, 0.1)
        with pytest.raises(ValueError):
            TauSchedule.constant(math.inf)
        with pytest.raises(ValueError):
            TauSchedule.saturating(0.1, math.inf)
        with pytest.raises(ValueError):
            TauSchedule.saturating(0.1, math.nan)
        with pytest.raises(ValueError, match="< tau0 < inf"):
            TauSchedule.constant(1e-320)


class TestMetricSchedule:
    def test_zero_and_constant(self):
        z = MetricSchedule.zero(3)
        assert z.is_time_invariant()
        assert np.ones(3) @ z.at(7.0).apply(np.ones(3)) == 0.0
        assert z.at(7.0).base.scale == 0.0
        op = SelfAdjointPSD.identity(2, 1.5)
        const = MetricSchedule.constant(op)
        assert const.is_time_invariant()
        assert const.at(0.0) is const.at(9.0)

    def test_tau_family_operator(self):
        """M1(t) = I/tau(t) - c A*A applied to random vectors matches the
        dense formula, and the analytic floor is 1/tau - c ||A||^2."""
        tau = TauSchedule.constant(0.25)
        m1 = MetricSchedule.tau_family(tau, 1.0, _A2)
        rng = np.random.default_rng(61)
        m1_t = m1.at(3.0)
        dense = np.eye(2) / 0.25 - 2.0 * np.eye(2)
        for _ in range(10):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(m1_t.apply(x), dense @ x, atol=1e-12)
        assert m1_t.alpha_floor == pytest.approx(4.0 - 2.0)

    def test_tau_family_floor_clamped_at_zero(self):
        m1 = MetricSchedule.tau_family(TauSchedule.constant(0.8), 1.0, _A2)
        assert m1.at(0.0).alpha_floor == 0.0


class TestXUpdateMetric:
    def test_tau_family_collapses_to_scaled_identity(self):
        m1 = MetricSchedule.tau_family(TauSchedule.constant(0.49), 1.0, _A2)
        q = x_update_metric(m1, 1.0, _A2, 0.0)
        rng = np.random.default_rng(67)
        for _ in range(10):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(q.apply(x), x / 0.49, atol=1e-12)
        assert q.alpha_floor == pytest.approx(1.0 / 0.49)
        assert q.norm() == pytest.approx(1.0 / 0.49)
        assert q.base.scale == 1.0 / 0.49

    def test_constant_metric_certified(self):
        mat = np.array([[1.2, 0.3], [0.3, 0.9]])
        m1 = MetricSchedule.constant(SelfAdjointPSD.from_dense(mat))
        q1 = x_update_metric(m1, 2.0, _A2, 0.0)
        dense = 2.0 * 2.0 * np.eye(2) + mat
        expected_floor = float(np.linalg.eigvalsh(dense)[0])
        assert q1.alpha_floor == pytest.approx(expected_floor, rel=1e-9)
        x = np.array([0.7, -0.4])
        np.testing.assert_allclose(q1.apply(x), dense @ x, atol=1e-12)

    def test_floor_and_norm_from_one_eigensolve(self, operator_norm_calls):
        """A dense Q takes its floor and its norm from one eigensolve of
        the matrix it stores; no separate norm is computed."""
        mat = np.array([[1.2, 0.3], [0.3, 0.9]])
        m1 = MetricSchedule.constant(SelfAdjointPSD.from_dense(mat))
        q = x_update_metric(m1, 2.0, _A2, 0.0)
        eigs = np.linalg.eigvalsh(q.base.mat)
        assert q.alpha_floor == eigs[0]
        assert q.norm() == eigs[-1]
        assert operator_norm_calls == []

    def test_q_is_per_map_when_maps_are_freed(self):
        # Each map is dropped after its call, so a later one may reuse its
        # id; each Q must be built from the map it is given.
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(2, 1.5))
        for scale in range(1, 21):
            A = LinearMap.from_dense(scale * np.eye(2))
            q = x_update_metric(m1, 1.0, A, 0.0)
            del A
            np.testing.assert_allclose(q.apply(np.array([1.0, 0.0])),
                                       [scale ** 2 + 1.5, 0.0], atol=1e-9)


class TestZUpdateMetric:
    def test_scaled_identity_is_analytic(self):
        m2 = MetricSchedule.constant(SelfAdjointPSD.identity(3, 0.5))
        q1 = z_update_metric(m2, 2.0, 0.0)
        assert q1.alpha_floor == 2.5
        assert q1.norm() == 2.5
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(q1.apply(x), 2.5 * x, atol=1e-15)

    def test_zero_schedule_gives_c_identity(self):
        q = z_update_metric(MetricSchedule.zero(2), 1.5, 0.0)
        assert q.alpha_floor == 1.5
        assert q.norm() == 1.5

    def test_dense_metric_adds_c_identity(self):
        mat = np.array([[1.0, 0.4], [0.4, 0.6]])
        floor = float(np.linalg.eigvalsh(mat)[0])
        m2 = MetricSchedule.constant(SelfAdjointPSD.from_dense(mat, floor))
        q = z_update_metric(m2, 2.0, 0.0)
        dense = mat + 2.0 * np.eye(2)
        x = np.array([0.7, -0.4])
        np.testing.assert_allclose(q.apply(x), dense @ x, atol=1e-12)
        assert q.alpha_floor == pytest.approx(floor + 2.0)
        assert q.norm() == pytest.approx(
            float(np.linalg.eigvalsh(dense)[-1]), rel=1e-8)

    def test_dense_norm_from_one_eigensolve(self, operator_norm_calls):
        mat = np.array([[1.0, 0.4], [0.4, 0.6]])
        m2 = MetricSchedule.constant(SelfAdjointPSD.from_dense(mat, 0.3))
        q = z_update_metric(m2, 2.0, 0.0)
        assert q.norm() == np.linalg.eigvalsh(q.base.mat)[-1]
        assert q.alpha_floor == 2.3
        assert operator_norm_calls == []


class TestCertify:
    def test_valid_step_all_flags_true(self):
        m1 = MetricSchedule.tau_family(TauSchedule.constant(0.49), 1.0, _A2)
        rep = certify(m1, MetricSchedule.zero(2), 1.0, 1.0, _A2)
        assert rep.cstrong.holds
        assert rep.cstrong.alpha == pytest.approx(1.0 / 0.49)
        assert rep.cweak
        assert rep.thm4_psd and rep.thm7_psd
        assert rep.rate_condition and rep.step_size_ok

    def test_oversized_step_fails_rate_but_not_cstrong(self):
        """At tau = 0.6 the product c tau ||A||^2 = 1.2 > 1, so the rate and
        step flags drop while c A*A + M1 = I/tau stays positive definite."""
        m1 = MetricSchedule.tau_family(TauSchedule.constant(0.6), 1.0, _A2)
        rep = certify(m1, MetricSchedule.zero(2), 1.0, 1.0, _A2)
        assert rep.cstrong.holds
        assert rep.cstrong.alpha == pytest.approx(1.0 / 0.6)
        assert not rep.step_size_ok
        assert not rep.rate_condition
        assert not rep.thm4_psd

    def test_smooth_term_tightens_the_bound(self):
        """With a Lipschitz smooth part the L/4 test can pass while the L/2
        test fails; pick L between the two thresholds to split the flags."""
        tau, c, gamma = 0.4, 1.0, 1.0
        # thresholds: L/4 <= 1/tau - c(3+gamma)/2  (= 0.5 here)
        rep = certify(MetricSchedule.tau_family(TauSchedule.constant(tau), c, _A2),
                      MetricSchedule.zero(2), c, gamma, _A2, lipschitz_h=1.5)
        assert rep.thm4_psd
        assert not rep.thm7_psd

    def test_scalar_and_operator_tests_agree(self):
        """The scalar step inequality and the PSD certificate are the same
        condition when A*A is a multiple of the identity."""
        rng = np.random.default_rng(71)
        seen = set()
        for _ in range(40):
            tau = float(rng.uniform(0.05, 1.0))
            c = float(rng.uniform(0.2, 3.0))
            gamma = float(rng.uniform(0.0, 1.0))
            lip = float(rng.uniform(0.0, 8.0))
            scalar_ok = tau * (lip / 4.0 + c * (3.0 + gamma) / 4.0 * 2.0) <= 1.0
            m1 = MetricSchedule.tau_family(TauSchedule.constant(tau), c, _A2)
            op = SelfAdjointPSD(
                m1.at(0.0).base + (c * (1.0 - gamma) / 4.0) * _A2.gram()
                - LinearMap.identity(2, lip / 4.0), 0.0)
            psd_ok = psd_floor(op, strict=False) >= -1e-10
            assert scalar_ok == psd_ok
            rep = certify(m1, MetricSchedule.zero(2), c, gamma, _A2,
                          lipschitz_h=lip)
            assert rep.thm4_psd == psd_ok
            seen.add(psd_ok)
        assert seen == {True, False}, "draws must exercise both outcomes"

    def test_constant_metric_falls_back_to_psd_rate(self):
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(2, 3.0))
        rep = certify(m1, MetricSchedule.zero(2), 1.0, 0.5, _A2)
        assert rep.step_size_ok
        assert rep.rate_condition == rep.thm4_psd

    def test_explicit_sample_times(self):
        m1 = MetricSchedule.tau_family(TauSchedule.constant(0.4), 1.0, _A2)
        rep = certify(m1, MetricSchedule.zero(2), 1.0, 1.0, _A2,
                      sample_times=[0.0, 1.0, 10.0])
        assert rep.sample_times == (0.0, 1.0, 10.0)

    @pytest.mark.parametrize("m1,floor_calls", [
        (MetricSchedule.tau_family(TauSchedule.constant(0.4), 1.0, _A2), 3),
        (MetricSchedule.constant(
            SelfAdjointPSD.from_dense([[3.0, 1.0], [1.0, 2.0]])), 3),
        (MetricSchedule.tau_family(TauSchedule.saturating(0.2, 0.4), 1.0, _A2),
         3 * 51),
    ], ids=["constant-tau", "constant-dense", "saturating-tau"])
    def test_time_invariant_schedule_solves_floors_once(self, m1, floor_calls,
                                                        monkeypatch):
        """A time-invariant M1 is the same operator at all 51 default sample
        times, so its three eigenproblems are solved once, and the report is
        field-for-field the one computed sample by sample."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return psd_floor(*args, **kwargs)

        monkeypatch.setattr(metric, "psd_floor", counting)
        args = (m1, MetricSchedule.zero(2), 1.0, 0.5, _A2)
        rep = certify(*args, lipschitz_h=0.5)
        assert len(calls) == floor_calls
        monkeypatch.setattr(MetricSchedule, "is_time_invariant",
                            lambda self: False)
        assert certify(*args, lipschitz_h=0.5) == rep
        assert len(calls) == floor_calls + 3 * 51

    @pytest.mark.parametrize("horizon", [1e-7, 1e-6])
    def test_repeated_times_solve_floors_once(self, horizon, monkeypatch):
        """Below a horizon of 1e-4 the 50 log-spaced samples are all the
        horizon, so a moving schedule has 2 distinct times among 51: its
        three eigenproblems are solved at each distinct time once, and the
        report keeps all 51 sample times, with the flags of the two."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return psd_floor(*args, **kwargs)

        monkeypatch.setattr(metric, "psd_floor", counting)
        m1 = MetricSchedule.tau_family(
            TauSchedule.saturating(0.4999998, 1.5), 1.0, _A2)
        args = (m1, MetricSchedule.zero(2), 1.0, 1.0, _A2)
        rep = certify(*args, horizon=horizon)
        assert len(calls) == 6
        assert rep.sample_times == (0.0,) + (horizon,) * 50
        two = certify(*args, sample_times=(0.0, horizon))
        assert rep == dataclasses.replace(two, sample_times=rep.sample_times)


def _weighted_sq(blocks, d):
    """<d, W d> for W the block diagonal of `blocks`."""
    parts = np.split(d, np.cumsum([b.in_dim for b in blocks])[:-1])
    return sum(float(x @ b.apply(x)) for b, x in zip(blocks, parts))


class TestWeightW:
    _START = np.concatenate([[-10.0, 10.0], [-20.0, 0.0], [-10.0, 10.0]])

    def test_zero_metrics_give_block_values(self):
        """With M1 = M2 = 0, gamma = 1, c = 1 the x block vanishes and the
        weighted squared distance of the documented start from the origin
        saddle is c ||z||^2 + ||y||^2 / c = 400 + 200 = 600."""
        w = weight_W(MetricSchedule.zero(2), MetricSchedule.zero(2),
                     1.0, 1.0, _A2, 0.0)
        assert _weighted_sq(w, self._START) == pytest.approx(600.0)

    def test_tau_family_adds_x_block(self):
        m1 = MetricSchedule.tau_family(TauSchedule.constant(0.49), 1.0, _A2)
        w = weight_W(m1, MetricSchedule.zero(2), 1.0, 1.0, _A2, 0.0)
        expected = (1.0 / 0.49 - 2.0) * 200.0 + 400.0 + 200.0
        assert _weighted_sq(w, self._START) == pytest.approx(expected)

    def test_gamma_blends_gram_into_x_block(self):
        m1 = MetricSchedule.tau_family(TauSchedule.constant(0.49), 1.0, _A2)
        w = weight_W(m1, MetricSchedule.zero(2), 1.0, 0.5, _A2, 0.0)
        expected = (1.0 / 0.49 - 2.0 + 1.0) * 200.0 + 400.0 + 200.0
        assert _weighted_sq(w, self._START) == pytest.approx(expected)

    def test_homogeneity(self):
        w = weight_W(MetricSchedule.zero(2), MetricSchedule.zero(2),
                     1.0, 1.0, _A2, 0.0)
        base = _weighted_sq(w, self._START)
        assert _weighted_sq(w, 2.0 * self._START) == pytest.approx(4.0 * base)

    def test_blocks_are_the_three_diagonal_blocks(self):
        """x: M1(t) + c(1-gamma) A*A, z: M2(t) + c I, y: I / c, at c = 1.5
        and a saturating tau family read at t = 0.7."""
        m1 = MetricSchedule.tau_family(TauSchedule.saturating(0.1, 0.3), 1.5,
                                       _A2)
        m2 = MetricSchedule.constant(SelfAdjointPSD.identity(2, 0.5))
        x, z, y = weight_W(m1, m2, 1.5, 0.5, _A2, 0.7)
        inv_tau = 1.0 / m1.tau.value(0.7)
        np.testing.assert_allclose(
            x.to_dense(), (inv_tau - 1.5 * 2.0 + 1.5 * 0.5 * 2.0) * np.eye(2),
            rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(z.to_dense(), 2.0 * np.eye(2))
        assert y.scale == 1.0 / 1.5


class TestSampleTimes:
    def test_shape_and_range(self):
        ts = default_sample_times(100.0)
        assert len(ts) == 51
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(100.0)
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_degenerate_horizon(self):
        assert default_sample_times(0.0) == [0.0]

    @pytest.mark.parametrize("horizon", [1e-9, 1e-7, 1e-6, 3e-6, 1e-3, 1.0,
                                         100.0])
    def test_no_sample_past_the_horizon(self, horizon):
        """The first log-spaced sample is clipped to the horizon, so a
        horizon below 1e-6 is not certified at times the run never
        reaches."""
        ts = default_sample_times(horizon)
        assert len(ts) == 51
        assert ts[-1] == horizon
        assert all(0.0 <= t <= horizon for t in ts)
