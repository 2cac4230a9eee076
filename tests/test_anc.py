"""Adaptive noise cancellation tests: LMS identities, convergence, divergence."""

import numpy as np
import pytest

from melsplit.anc import (
    _BLOCK,
    _CHUNK_BLOCKS,
    _DIVERGED,
    LmsConfig,
    mse_trace,
    run_anc,
    run_anc_batch,
)
from melsplit.errors import DimensionError, DivergenceError, ParameterError
from melsplit.signal_io import AudioBuffer, NoiseSpec, measure_snr_db, mix_at_snr
from reference import LmsState, lms_step

SR = 16000


def buf(x, rate=SR):
    return AudioBuffer(np.asarray(x, dtype=np.float64), rate)


def lms_step_run(primary, reference, config):
    """Errors and final weights of lms_step iterated over a whole recording
    from zero weights."""
    state = LmsState(np.zeros(config.order_l + 1), np.zeros(config.order_l + 1))
    errors = np.empty(len(primary))
    for k in range(len(primary)):
        state, errors[k], _ = lms_step(state, primary[k], reference[k], config.step_mu)
    return errors, state.weights


def lms_step_first_past_bound(primary, reference, config):
    """The first step at which an lms_step loop's error is non-finite or
    beyond _DIVERGED times the primary's peak, else None."""
    limit = _DIVERGED * np.max(np.abs(primary))
    state = LmsState(np.zeros(config.order_l + 1), np.zeros(config.order_l + 1))
    for k in range(len(primary)):
        state, e_k, _ = lms_step(state, primary[k], reference[k], config.step_mu)
        if not abs(e_k) <= limit:
            return k
    return None


def sine_noise_fixture(seconds=5.0, snr_db=0.0, seed=42):
    t = np.arange(int(seconds * SR)) / SR
    clean = buf(0.5 * np.sin(2 * np.pi * 500 * t))
    noisy, noise = mix_at_snr(clean, NoiseSpec("white-gaussian", snr_db, seed=seed))
    return clean, noisy, noise


class TestLmsStep:
    def test_hand_iterated_single_tap(self):
        state = LmsState(np.zeros(1), np.zeros(1))
        state, e, y = lms_step(state, d_k=1.0, x_k=1.0, mu=0.25)
        assert (y, e) == (0.0, 1.0)
        assert state.weights[0] == 0.5
        state, e, y = lms_step(state, d_k=1.0, x_k=1.0, mu=0.25)
        assert y == 0.5
        assert e == 0.5
        assert state.weights[0] == 0.75

    def test_zero_error_leaves_weights(self):
        state = LmsState(np.array([2.0]), np.zeros(1))
        new, e, y = lms_step(state, d_k=2.0, x_k=1.0, mu=0.1)
        assert e == 0.0
        assert np.array_equal(new.weights, state.weights)

    def test_zero_reference_leaves_weights(self):
        state = LmsState(np.array([0.7, -0.3]), np.zeros(2))
        new, e, y = lms_step(state, d_k=5.0, x_k=0.0, mu=0.1)
        assert np.array_equal(new.weights, state.weights)
        assert e == 5.0

    def test_weight_update_identity_random(self):
        # w' - w == 2*mu*e*x elementwise, machine precision, random sequences
        rng = np.random.default_rng(314)
        for trial in range(50):
            taps = int(rng.integers(1, 9))
            state = LmsState(rng.standard_normal(taps), rng.standard_normal(taps))
            mu = float(rng.uniform(0.001, 0.5))
            d_k = float(rng.standard_normal())
            x_k = float(rng.standard_normal())
            expected_delay = np.concatenate([[x_k], state.delay_line[:-1]])
            expected_delta = (2.0 * mu * (d_k - np.dot(state.weights, expected_delay))) * expected_delay
            new, e, y = lms_step(state, d_k, x_k, mu)
            assert np.max(np.abs((new.weights - state.weights) - expected_delta)) <= 1e-15

    def test_step_index_advances(self):
        state = LmsState(np.zeros(2), np.zeros(2), k=7)
        new, _, _ = lms_step(state, 0.1, 0.2, 0.05)
        assert new.k == 8

    def test_bad_mu(self):
        with pytest.raises(ParameterError):
            lms_step(LmsState(np.zeros(1), np.zeros(1)), 1.0, 1.0, mu=0.0)


class TestRunAnc:
    def test_zero_reference_passthrough(self):
        rng = np.random.default_rng(1)
        primary = buf(rng.standard_normal(4000))
        result = run_anc(primary, buf(np.zeros(4000)), LmsConfig(order_l=8, step_mu=0.01))
        assert np.array_equal(result.error_signal.samples, primary.samples)
        assert np.all(result.final_weights == 0.0)

    def test_snr_gain_on_sine_fixture(self):
        clean, noisy, noise = sine_noise_fixture()
        result = run_anc(noisy, noise, LmsConfig(order_l=31, step_mu=0.005))
        last = slice(-SR, None)
        pre = measure_snr_db(buf(clean.samples[last]), buf(noisy.samples[last]))
        post = measure_snr_db(buf(clean.samples[last]), buf(result.error_signal.samples[last]))
        assert post >= pre + 10.0

    def test_pathological_mu_diverges(self):
        # The error passes the bound at step 4, long before the weights
        # overflow float64.
        clean, noisy, noise = sine_noise_fixture(seconds=0.5)
        config = LmsConfig(order_l=31, step_mu=1e3)
        with pytest.raises(DivergenceError) as info:
            run_anc(noisy, noise, config)
        assert info.value.step_index == 4
        assert lms_step_first_past_bound(noisy.samples, noise.samples, config) == 4

    def test_unbounded_error_without_overflow_diverges(self):
        # At this step size the errors reach about 1e76 by the end of the
        # recording without overflowing float64; the first step whose error
        # passes a million times the primary's peak is named.
        clean, noisy, noise = sine_noise_fixture(seconds=0.5)
        with pytest.raises(DivergenceError) as info:
            run_anc(noisy, noise, LmsConfig(order_l=31, step_mu=0.3))
        assert info.value.step_index == 700
        errors, _ = lms_step_run(noisy.samples, noise.samples, LmsConfig(31, 0.3))
        peak = np.max(np.abs(noisy.samples))
        assert np.all(np.isfinite(errors))
        assert np.flatnonzero(np.abs(errors) > 1e6 * peak)[0] == 700

    @pytest.mark.parametrize("mu", [0.01, 0.03, 0.08])
    def test_mid_recording_divergence_names_first_step_past_bound(self, mu):
        # The reference jumps a hundredfold at sample 5000, which makes a
        # step size that was stable unstable. The first error past the bound
        # comes a dozen or more steps after the jump and over a hundred
        # steps before the weights overflow float64.
        rng = np.random.default_rng(3)
        reference = 0.1 * rng.standard_normal(8000)
        reference[5000:] *= 100
        primary = 0.5 * reference + 0.05 * rng.standard_normal(8000)
        config = LmsConfig(order_l=31, step_mu=mu)
        with pytest.raises(DivergenceError) as block:
            run_anc(buf(primary), buf(reference), config)
        scalar = lms_step_first_past_bound(primary, reference, config)
        assert scalar > 5000
        assert block.value.step_index == scalar

    def test_mse_trace_monotone_on_noise_dominated_fixture(self):
        # At -10 dB input SNR the initial error power dwarfs the converged
        # floor (the clean sine), so the trace must fall to a quarter.
        clean, noisy, noise = sine_noise_fixture(snr_db=-10.0)
        result = run_anc(noisy, noise, LmsConfig(order_l=31, step_mu=0.0005))
        first = result.mse_trace[:4].mean()
        last = result.mse_trace[-4:].mean()
        assert last <= 0.25 * first

    def test_mse_trace_falls_on_zero_db_fixture(self):
        # The error signal keeps the clean sine, so the floor is the sine
        # power; the trace still has to fall as the weights converge.
        clean, noisy, noise = sine_noise_fixture()
        result = run_anc(noisy, noise, LmsConfig(order_l=31, step_mu=0.005))
        assert result.mse_trace[-4:].mean() < result.mse_trace[:4].mean()

    @pytest.mark.parametrize("gain", [0.8, -1.5, 2.0])
    def test_single_tap_recovers_coupling_gain(self, gain):
        rng = np.random.default_rng(7)
        reference = rng.standard_normal(5 * SR)  # unit power white noise
        t = np.arange(5 * SR) / SR
        primary = buf(0.3 * np.sin(2 * np.pi * 300 * t) + gain * reference)
        result = run_anc(primary, buf(reference), LmsConfig(order_l=0, step_mu=0.001))
        assert result.final_weights[0] == pytest.approx(gain, rel=0.05)

    def test_deterministic(self):
        clean, noisy, noise = sine_noise_fixture(seconds=0.3)
        config = LmsConfig(order_l=7, step_mu=0.01)
        a = run_anc(noisy, noise, config)
        b = run_anc(noisy, noise, config)
        assert np.array_equal(a.error_signal.samples, b.error_signal.samples)
        assert np.array_equal(a.final_weights, b.final_weights)
        assert np.array_equal(a.mse_trace, b.mse_trace)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            run_anc(buf(np.zeros(10)), buf(np.zeros(9)), LmsConfig())

    def test_matches_lms_step_sequence(self):
        # the batch runner agrees with the public single-step operation
        rng = np.random.default_rng(5)
        primary = rng.standard_normal(300)
        reference = rng.standard_normal(300)
        config = LmsConfig(order_l=4, step_mu=0.02)
        result = run_anc(buf(primary), buf(reference), config)
        errors, weights = lms_step_run(primary, reference, config)
        assert np.allclose(result.error_signal.samples, errors, atol=1e-12)
        assert np.allclose(result.final_weights, weights, atol=1e-12)

    # The ids keep the "-False" suffix they had when a third parameter set
    # warm-start weights, so each case keeps its name.
    @pytest.mark.parametrize(
        "n, order_l",
        [
            pytest.param(20, 31, id="20-31-False"),  # shorter than the delay line
            pytest.param(_BLOCK - 1, 31, id="block-short"),  # one step short of a block
            pytest.param(_BLOCK, 31, id="block"),  # one block
            pytest.param(_BLOCK + 1, 31, id="block-plus-one"),  # one step into block two
            # two chunks of blocks and a partial block
            pytest.param(
                2 * _BLOCK * _CHUNK_BLOCKS + _BLOCK // 2, 31, id="two-chunks-partial-block"
            ),
            # fixed lengths around a 32-step block and past two 2048-step chunks
            pytest.param(31, 31, id="31-31-False"),
            pytest.param(32, 31, id="32-31-False"),
            pytest.param(33, 31, id="33-31-False"),
            pytest.param(4113, 31, id="4113-31-False"),
            pytest.param(500, 0, id="500-0-False"),  # a one-tap canceller
        ],
    )
    def test_edge_lengths_match_lms_step(self, n, order_l):
        rng = np.random.default_rng(n + order_l)
        reference = 0.5 * rng.standard_normal(n)
        primary = 0.8 * reference + 0.2 * rng.standard_normal(n)
        config = LmsConfig(order_l=order_l, step_mu=0.01)
        result = run_anc(buf(primary), buf(reference), config)
        errors, weights = lms_step_run(primary, reference, config)
        assert np.allclose(result.error_signal.samples, errors, rtol=0, atol=1e-12)
        assert np.allclose(result.final_weights, weights, rtol=0, atol=1e-12)

    def test_silent_primary_is_not_a_divergence(self):
        # A zero primary bounds its errors at zero, and a zero-start
        # canceller's errors on it are all zero, so nothing diverges.
        reference = np.random.default_rng(12).standard_normal(1000)
        result = run_anc(buf(np.zeros(1000)), buf(reference), LmsConfig(4, 0.001))
        assert np.all(result.error_signal.samples == 0.0)
        assert np.all(result.final_weights == 0.0)


def run_batch(primaries, references, order_l, mus):
    """The errors run_anc_batch writes over a copy of the primaries."""
    signals = np.array(primaries, dtype=np.float64)
    assert run_anc_batch(signals, references, order_l, mus) is None
    return signals


class TestRunAncBatch:
    MUS = np.array([0.002, 0.01, 0.03])

    def serial(self, primary, reference, order_l, mu):
        config = LmsConfig(order_l=order_l, step_mu=float(mu))
        return run_anc(buf(primary), buf(reference), config).error_signal.samples

    @pytest.mark.parametrize("order_l", [0, 4, 31])
    @pytest.mark.parametrize("n", [600, 20])
    def test_rows_match_run_anc(self, order_l, n):
        # n=20 is shorter than the 32-tap delay line
        rng = np.random.default_rng(order_l + n)
        references = rng.standard_normal((3, n))
        primaries = 0.7 * references + 0.3 * rng.standard_normal((3, n))
        errors = run_batch(primaries, references, order_l, self.MUS)
        assert errors.shape == (3, n)
        for row in range(3):
            expected = self.serial(primaries[row], references[row], order_l, self.MUS[row])
            assert np.allclose(errors[row], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order_l, n", [(31, 1100), (4, 3), (0, 700), (31, 32)])
    def test_columns_match_lms_step_in_place(self, order_l, n):
        # Each row's errors are lms_step's, written over the primaries
        # themselves; a length past _CHECK_EVERY crosses a divergence check.
        rng = np.random.default_rng(order_l * 7 + n)
        references = rng.standard_normal((3, n))
        signals = 0.7 * references + 0.3 * rng.standard_normal((3, n))
        primaries = signals.copy()
        run_anc_batch(signals, references, order_l, self.MUS)
        for row, mu in enumerate(self.MUS):
            expected, _ = lms_step_run(
                primaries[row], references[row], LmsConfig(order_l, float(mu))
            )
            assert np.allclose(signals[row], expected, rtol=0, atol=1e-10)

    def test_scaled_reference_is_unit_reference_with_scaled_step(self):
        # LMS on (d, c*u) with step mu has the errors of LMS on (d, u) with
        # step mu*c**2.
        rng = np.random.default_rng(9)
        unit = rng.standard_normal((3, 900))
        scales = np.array([[0.05], [1.0], [7.0]])
        primaries = 0.3 * rng.standard_normal((3, 900)) + scales * unit
        mus = 0.02 / (32 * np.mean((scales * unit) ** 2, axis=1))
        scaled, unscaled = primaries.copy(), primaries.copy()
        run_anc_batch(scaled, scales * unit, 31, mus)
        run_anc_batch(unscaled, unit, 31, mus * scales[:, 0] ** 2)
        assert np.allclose(unscaled, scaled, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("c", [0.0, 0.3, 40.0])
    def test_errors_are_linear_in_the_primary(self, c):
        # With the reference and steps fixed, errors(a + c*b) equals
        # errors(a) + c*errors(b).
        rng = np.random.default_rng(5)
        references = rng.standard_normal((3, 1100))
        a = 0.5 * rng.standard_normal((3, 1100))
        b = references + 0.1 * rng.standard_normal((3, 1100))
        mixed = a + c * b
        for signals in (mixed, a, b):
            run_anc_batch(signals, references, 31, self.MUS)
        assert np.allclose(mixed, a + c * b, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("order_l, n", [(31, 1100), (31, 20), (4, 600), (0, 515)])
    def test_reference_may_be_the_primaries(self, order_l, n):
        # Errors written over the reference itself, across a chunk edge
        # (n > 512) and within the zero-led head (n < order_l), are the
        # errors of a run on a copy, bit for bit.
        unit = np.random.default_rng(n).standard_normal((3, n))
        copy = unit.copy()
        run_anc_batch(copy, unit.copy(), order_l, self.MUS)
        run_anc_batch(unit, unit, order_l, self.MUS)
        assert np.array_equal(unit, copy)

    def test_reference_may_be_a_column_slice(self):
        # A sweep cancels its clean stack against unit[:, k:], a strided
        # view of a wider stack; across chunk edges its errors are those of
        # a run on a contiguous copy, bit for bit.
        rng = np.random.default_rng(6)
        unit = rng.standard_normal((3, 1200))
        primaries = rng.standard_normal((3, 1100))
        sliced, copied = primaries.copy(), primaries.copy()
        run_anc_batch(sliced, unit[:, 100:], 31, self.MUS)
        run_anc_batch(copied, unit[:, 100:].copy(), 31, self.MUS)
        assert np.array_equal(sliced, copied)

    def test_batch_of_one_matches_run_anc(self):
        clean, noisy, noise = sine_noise_fixture(seconds=0.3)
        errors = run_batch(noisy.samples[None], noise.samples[None], 15, [0.004])
        expected = self.serial(noisy.samples, noise.samples, 15, 0.004)
        assert np.allclose(errors[0], expected, rtol=0, atol=1e-12)

    def test_zero_reference_row_returns_primary(self):
        rng = np.random.default_rng(2)
        primaries = rng.standard_normal((3, 500))
        references = rng.standard_normal((3, 500))
        references[1] = 0.0
        errors = run_batch(primaries, references, 8, self.MUS)
        assert np.array_equal(errors[1], primaries[1])

    @pytest.mark.parametrize(
        "primaries, references",
        [
            (np.zeros((2, 10)), np.zeros((2, 9))),
            (np.zeros((2, 10)), np.zeros((3, 10))),
            (np.zeros(10), np.zeros(10)),
            (np.zeros((2, 0)), np.zeros((2, 0))),
        ],
    )
    def test_bad_shapes(self, primaries, references):
        with pytest.raises(DimensionError):
            run_anc_batch(primaries, references, 4, np.full(2, 0.01))

    def test_primaries_must_be_a_float64_array(self):
        with pytest.raises(ParameterError, match="written over"):
            run_anc_batch(np.zeros((2, 10), dtype=np.float32), np.zeros((2, 10)), 4, [0.01] * 2)
        with pytest.raises(ParameterError, match="written over"):
            run_anc_batch([[0.0] * 10] * 2, np.zeros((2, 10)), 4, [0.01] * 2)

    def test_step_size_per_row(self):
        with pytest.raises(DimensionError):
            run_anc_batch(np.zeros((2, 10)), np.zeros((2, 10)), 4, [0.01])
        with pytest.raises(ParameterError):
            run_anc_batch(np.zeros((2, 10)), np.zeros((2, 10)), 4, [0.01, 0.0])

    @pytest.mark.parametrize("mu", [np.inf, np.nan])
    def test_non_finite_step_size_rejected(self, mu):
        with pytest.raises(ParameterError, match="finite and positive"):
            run_anc_batch(np.zeros((2, 10)), np.zeros((2, 10)), 4, [0.01, mu])

    def test_diverging_row_named(self):
        clean, noisy, noise = sine_noise_fixture(seconds=0.5)
        primaries = np.stack([noisy.samples] * 3)
        references = np.stack([noise.samples] * 3)
        with pytest.raises(DivergenceError) as serial:
            run_anc(noisy, noise, LmsConfig(order_l=31, step_mu=1e3))
        with pytest.raises(DivergenceError) as batch:
            run_batch(primaries, references, 31, [0.005, 1e3, 0.005])
        assert batch.value.row == 1
        assert batch.value.step_index == serial.value.step_index == 4
        assert "batch row 1" in str(batch.value)

    def test_unbounded_row_named(self):
        clean, noisy, noise = sine_noise_fixture(seconds=0.5)
        primaries = np.stack([noisy.samples] * 3)
        references = np.stack([noise.samples] * 3)
        with pytest.raises(DivergenceError) as serial:
            run_anc(noisy, noise, LmsConfig(order_l=31, step_mu=0.3))
        with pytest.raises(DivergenceError) as batch:
            run_batch(primaries, references, 31, [0.005, 0.005, 0.3])
        assert batch.value.row == 2
        assert batch.value.step_index == serial.value.step_index


    def test_overflowing_final_weights_name_the_last_step(self):
        # The last error is within the bound, but the weight update after it
        # overflows float64, so both loops name the last step.
        signal = np.array([0.0, 0.0, 10.0])
        with pytest.raises(DivergenceError) as serial:
            run_anc(buf(signal), buf(signal), LmsConfig(order_l=0, step_mu=1e307))
        with pytest.raises(DivergenceError) as batch:
            run_batch(np.stack([signal] * 2), np.stack([signal] * 2), 0, [1e-3, 1e307])
        assert serial.value.step_index == batch.value.step_index == 2
        assert batch.value.row == 1

    def test_silent_primary_is_not_a_divergence(self):
        references = np.random.default_rng(12).standard_normal((3, 1000))
        errors = run_batch(np.zeros((3, 1000)), references, 4, self.MUS)
        assert np.all(errors == 0.0)


class TestMseTrace:
    def test_alternating_unit_errors(self):
        assert np.array_equal(mse_trace(np.array([1.0, -1.0, 1.0, -1.0]), 2), [1.0, 1.0])

    def test_all_zero(self):
        assert np.array_equal(mse_trace(np.zeros(10), 3), np.zeros(4))

    def test_window_one_gives_squares(self):
        assert np.array_equal(mse_trace(np.array([3.0, 1.0]), 1), [9.0, 1.0])

    def test_trailing_partial_window(self):
        trace = mse_trace(np.array([1.0, 1.0, 2.0]), 2)
        assert trace == pytest.approx([1.0, 4.0])

    def test_empty_input(self):
        assert len(mse_trace(np.array([]), 4)) == 0

    def test_bad_window(self):
        with pytest.raises(ParameterError):
            mse_trace(np.ones(4), 0)


class TestLmsConfig:
    def test_mu_positive(self):
        with pytest.raises(ParameterError):
            LmsConfig(step_mu=-0.1)

    @pytest.mark.parametrize("mu", [np.inf, np.nan])
    def test_mu_finite(self, mu):
        with pytest.raises(ParameterError, match="step_mu must be finite and positive"):
            LmsConfig(step_mu=mu)

    def test_state_shape_enforced(self):
        with pytest.raises(DimensionError):
            LmsState(np.zeros(3), np.zeros(2))
