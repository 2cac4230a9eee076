"""FIR design and zero-phase filtering tests.

The frequency-response oracle used throughout is direct summation of
H(f) = sum h[n] * exp(-2j*pi*f*n/sr), independent of the design code.
"""

import numpy as np
import pytest

from melsplit.errors import DimensionError, ParameterError
from melsplit.fir import (
    design_bandpass,
    design_highpass,
    design_lowpass,
    filter_zero_phase,
)
from melsplit.signal_io import AudioBuffer
from reference import split_channels

SR = 16000


def response_mag(taps, freq_hz, sr=SR):
    n = np.arange(len(taps))
    return abs(np.sum(taps * np.exp(-2j * np.pi * freq_hz * n / sr)))


def db(x):
    return 20.0 * np.log10(max(x, 1e-300))


def sine(freq, seconds=0.5, amp=1.0):
    t = np.arange(int(seconds * SR)) / SR
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), SR)


def interior_rms(buffer, margin=200):
    core = buffer.samples[margin:-margin]
    return float(np.sqrt(np.mean(core**2)))


class TestLowpassDesign:
    def test_matches_windowed_sinc_recipe(self):
        # independent reconstruction: ideal sinc (center tap omega0/pi),
        # hamming window, unit-sum normalization
        cutoff, taps, sr = 1000.0, 101, SR
        omega0 = 2 * np.pi * cutoff / sr
        mid = (taps - 1) // 2
        n = np.arange(taps) - mid
        ideal = np.empty(taps)
        ideal[n != 0] = np.sin(omega0 * n[n != 0]) / (np.pi * n[n != 0])
        ideal[mid] = omega0 / np.pi
        window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(taps) / (taps - 1))
        expected = (ideal * window) / np.sum(ideal * window)
        kernel = design_lowpass(cutoff, taps, sr)
        assert np.allclose(kernel.taps, expected, rtol=1e-12, atol=1e-15)

    def test_unit_dc_gain(self):
        kernel = design_lowpass(1000.0, 101, SR)
        assert response_mag(kernel.taps, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_stopband_one_octave_out(self):
        kernel = design_lowpass(1000.0, 101, SR)
        assert db(response_mag(kernel.taps, 2000.0)) <= -40.0

    def test_passband_center(self):
        kernel = design_lowpass(1000.0, 101, SR)
        assert db(response_mag(kernel.taps, 500.0)) >= -1.0

    def test_symmetry(self):
        kernel = design_lowpass(750.0, 65, SR)
        assert np.max(np.abs(kernel.taps - kernel.taps[::-1])) <= 1e-12

    def test_even_taps_rejected(self):
        with pytest.raises(ParameterError):
            design_lowpass(1000.0, 100, SR)

    def test_cutoff_out_of_range(self):
        with pytest.raises(ParameterError):
            design_lowpass(9000.0, 101, SR)


class TestHighpassDesign:
    def test_dc_blocked(self):
        kernel = design_highpass(1000.0, 101, SR)
        assert response_mag(kernel.taps, 0.0) <= 1e-6

    def test_unit_nyquist_gain(self):
        kernel = design_highpass(1000.0, 101, SR)
        assert response_mag(kernel.taps, SR / 2) == pytest.approx(1.0, abs=1e-9)

    def test_stopband_below_cutoff(self):
        kernel = design_highpass(1000.0, 101, SR)
        assert db(response_mag(kernel.taps, 500.0)) <= -40.0

    def test_symmetry(self):
        kernel = design_highpass(2000.0, 101, SR)
        assert np.max(np.abs(kernel.taps - kernel.taps[::-1])) <= 1e-12


class TestBandpassDesign:
    def test_dc_blocked(self):
        kernel = design_bandpass(1000.0, 4000.0, 101, SR)
        assert response_mag(kernel.taps, 0.0) <= 1e-6

    def test_midband_gain(self):
        kernel = design_bandpass(1000.0, 4000.0, 101, SR)
        assert response_mag(kernel.taps, 2000.0) >= 0.9

    def test_stopband_above(self):
        kernel = design_bandpass(1000.0, 4000.0, 101, SR)
        assert db(response_mag(kernel.taps, 6000.0)) <= -40.0

    def test_stopband_below(self):
        kernel = design_bandpass(1000.0, 4000.0, 101, SR)
        assert db(response_mag(kernel.taps, 500.0)) <= -40.0

    def test_geometric_mean_normalization(self):
        kernel = design_bandpass(500.0, 2000.0, 101, SR)
        assert response_mag(kernel.taps, 1000.0) == pytest.approx(1.0, abs=1e-9)

    def test_inverted_band_rejected(self):
        with pytest.raises(ParameterError):
            design_bandpass(4000.0, 1000.0, 101, SR)

    def test_design_determinism(self):
        a = design_bandpass(1000.0, 4000.0, 101, SR)
        b = design_bandpass(1000.0, 4000.0, 101, SR)
        assert np.array_equal(a.taps, b.taps)


class TestFilterZeroPhase:
    def test_unit_impulse_kernel_is_identity(self):
        from melsplit.fir import FilterKernel

        taps = np.zeros(9)
        taps[4] = 1.0
        kernel = FilterKernel(taps, SR)
        rng = np.random.default_rng(0)
        x = AudioBuffer(rng.standard_normal(500), SR)
        out = filter_zero_phase(x, kernel)
        assert len(out) == len(x)
        assert np.allclose(out.samples, x.samples, atol=1e-12)

    def test_dc_through_unit_dc_lowpass(self):
        kernel = design_lowpass(1000.0, 101, SR)
        x = AudioBuffer(np.full(2000, 0.5), SR)
        out = filter_zero_phase(x, kernel)
        interior = out.samples[101:-101]
        assert np.max(np.abs(interior - 0.5)) <= 1e-6

    def test_stopband_sine_attenuated(self):
        kernel = design_bandpass(1000.0, 4000.0, 101, SR)
        x = sine(500.0)
        out = filter_zero_phase(x, kernel)
        assert interior_rms(out) <= 0.01 * interior_rms(x)

    def test_output_length_matches_input(self):
        kernel = design_lowpass(2000.0, 31, SR)
        x = sine(800.0, seconds=0.1)
        assert len(filter_zero_phase(x, kernel)) == len(x)

    def test_zero_net_delay(self):
        # bandlimited pulse inside the passband: correlation peak at lag 0
        kernel = design_lowpass(1000.0, 101, SR)
        n = 4000
        t = (np.arange(n) - n // 2) / SR
        pulse = np.sinc(2 * 800.0 * t)  # bandlimited to 800 Hz
        x = AudioBuffer(pulse, SR)
        y = filter_zero_phase(x, kernel)
        corr = np.correlate(y.samples, x.samples, mode="full")
        assert np.argmax(corr) == n - 1  # zero lag

    def test_short_buffer_rejected(self):
        kernel = design_lowpass(1000.0, 101, SR)
        with pytest.raises(DimensionError):
            filter_zero_phase(AudioBuffer(np.zeros(50), SR), kernel)

    def test_rate_mismatch_rejected(self):
        kernel = design_lowpass(1000.0, 101, SR)
        with pytest.raises(ParameterError):
            filter_zero_phase(AudioBuffer(np.zeros(500), 8000), kernel)


class TestSplitChannels:
    def test_low_sine_goes_to_channel_one(self):
        x = sine(500.0)
        ch1, ch2 = split_channels(x, 1000.0, 4000.0, 101)
        assert interior_rms(ch1) >= 0.95 * interior_rms(x)
        assert interior_rms(ch2) <= 0.05 * interior_rms(x)

    def test_mid_sine_goes_to_channel_two(self):
        x = sine(2000.0)
        ch1, ch2 = split_channels(x, 1000.0, 4000.0, 101)
        assert interior_rms(ch2) >= 0.90 * interior_rms(x)
        assert interior_rms(ch1) <= 0.05 * interior_rms(x)

    def test_zero_input(self):
        x = AudioBuffer(np.zeros(1000), SR)
        ch1, ch2 = split_channels(x, 1000.0, 4000.0, 101)
        assert np.all(ch1.samples == 0.0)
        assert np.all(ch2.samples == 0.0)

    def test_lengths_match_input(self):
        x = sine(700.0, seconds=0.2)
        ch1, ch2 = split_channels(x)
        assert len(ch1) == len(x) == len(ch2)

    @pytest.mark.parametrize(
        "freq", [100, 300, 500, 700, 1300, 1700, 2100, 2600, 3200, 3800]
    )
    def test_crossover_complementarity(self, freq):
        # away from the 1 kHz crossover, the channels together preserve RMS
        x = sine(float(freq), seconds=0.3)
        ch1, ch2 = split_channels(x, 1000.0, 4000.0, 101)
        total = interior_rms(ch1) + interior_rms(ch2)
        assert 0.8 * interior_rms(x) <= total <= 1.1 * interior_rms(x)
