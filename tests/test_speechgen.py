import numpy as np
import pytest
from scipy import signal

from egomwf import speechgen
from egomwf.audio_io import AudioError, read_wav
from egomwf.speechgen import _butter, _filter, _sections, speech_like

LENGTHS = [1, 63, 64, 65, 3761, 16000]


def _reference_speech_like(duration_s, rate_hz, seed):
    """speech_like as built on scipy.signal's filters, the implementation the
    numpy filters replace."""

    def voiced(dur, fs, rng):
        n = int(dur * fs)
        pitch0 = rng.uniform(100.0, 150.0)
        pitch1 = pitch0 * rng.uniform(0.8, 1.2)
        phase = 2.0 * np.pi * np.cumsum(np.linspace(pitch0, pitch1, n)) / fs
        excitation = np.maximum(0.0, 1.0 - 8.0 * ((phase / (2.0 * np.pi)) % 1.0)) - 0.05
        out = np.zeros(n)
        for freq, bw in speechgen._FORMANTS:
            f = freq * rng.uniform(0.85, 1.15)
            r, theta = np.exp(-np.pi * bw / fs), 2.0 * np.pi * f / fs
            out += signal.lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], excitation)
        out += 0.25 * np.sin(phase) + 0.12 * np.sin(2.0 * phase) + 0.06 * np.sin(3.0 * phase)
        out += 0.15 * excitation
        highpass = signal.butter(2, 300.0, "highpass", fs=fs, output="sos")
        out += 0.06 * signal.sosfilt(highpass, rng.standard_normal(n)) * np.sqrt(np.mean(out**2))
        return out * np.sin(np.pi * np.arange(n) / n) ** 0.7

    def fricative(dur, fs, rng):
        n = int(dur * fs)
        band = signal.butter(4, (2000.0, 7500.0), "bandpass", fs=fs, output="sos")
        return 0.4 * signal.sosfilt(band, rng.standard_normal(n)) * np.sin(np.pi * np.arange(n) / n)

    rng = np.random.default_rng(seed)
    total = int(duration_s * rate_hz)
    out = np.zeros(total)
    pos = int(0.3 * rate_hz)
    while pos < total - rate_hz // 4:
        for _ in range(rng.integers(1, 4)):
            if rng.uniform() < 0.25:
                seg = fricative(rng.uniform(0.06, 0.15), rate_hz, rng)
            else:
                seg = voiced(rng.uniform(0.12, 0.35), rate_hz, rng)
            end = min(pos + seg.size, total)
            out[pos:end] += seg[: end - pos]
            pos = end + int(rng.uniform(0.01, 0.05) * rate_hz)
            if pos >= total:
                break
        pos += int(rng.uniform(0.15, 0.35) * rate_hz)
    return out * 0.5 / np.max(np.abs(out))


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("fs", [16000, 44100])
def test_resonators_match_lfilter(rng, n, fs):
    """Three formant resonators (1 - r) / (1 - 2 r cos(t) z^-1 + r^2 z^-2)
    as one _filter equal the sum of their lfilter outputs."""
    x = rng.standard_normal(n)
    poles, residues, expected = [], [], np.zeros(n)
    for freq, bw in ((600.0, 130.0), (1400.0, 160.0), (2990.0, 300.0)):
        r, theta = np.exp(-np.pi * bw / fs), 2.0 * np.pi * freq / fs
        poles.append(r * np.exp(1j * theta))
        residues.append(-1j * (1.0 - r) / np.sin(theta) * np.exp(1j * theta))
        expected += signal.lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], x)
    out = _filter(x, _sections(np.array(residues), np.array(poles)))
    assert np.max(np.abs(out - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("fs, tolerance", [(16000, 1e-12), (22050, 1e-12), (48000, 1e-12),
                                           (15001, 1e-10)])
@pytest.mark.parametrize("order, edges", [(2, (300.0,)), (4, (2000.0, 7500.0))])
def test_butterworth_matches_sosfilt(rng, n, fs, tolerance, order, edges):
    """At 15001 Hz the 7500 Hz band edge sits 0.5 Hz below Nyquist and the
    bandpass has a pole 8e-5 inside the unit circle, so both filters round
    more there; 4e-12 of the peak was seen."""
    x = rng.standard_normal(n)
    kind = "highpass" if len(edges) == 1 else "bandpass"
    sos = signal.butter(order, edges if len(edges) == 2 else edges[0], kind, fs=fs, output="sos")
    expected = signal.sosfilt(sos, x)
    out = _filter(x, _butter(order, edges, fs))
    assert np.max(np.abs(out - expected)) <= tolerance * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("duration, rate, seed", [(10.0, 16000, 0), (10.0, 16000, 7),
                                                  (3.0, 22050, 1), (2.0, 48000, 2)])
def test_speech_like_matches_scipy_build(duration, rate, seed):
    clip = speech_like(duration, rate, seed)
    expected = _reference_speech_like(duration, rate, seed)
    assert clip.sample_rate_hz == rate and clip.samples.shape == (1, expected.size)
    assert np.max(np.abs(clip.samples[0] - expected)) <= 1e-12


@pytest.mark.parametrize("duration, rate", [(-1.0, 16000), (0.0, 16000), (float("nan"), 16000),
                                            (float("inf"), 16000), (1e-6, 16000),
                                            (1.0, 0), (1.0, 100), (1.0, 15000)])
def test_speech_like_rejects_bad_duration_or_rate(duration, rate):
    with pytest.raises(AudioError):
        speech_like(duration, rate)


@pytest.mark.parametrize("args", [["--duration", "-1"], ["--duration", "0"], ["--duration", "nan"],
                                  ["--rate", "0"], ["--rate", "100"]])
def test_main_bad_duration_or_rate_exit_2(tmp_path, capsys, args):
    assert speechgen.main([str(tmp_path / "s.wav"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "s.wav").exists()


def test_main_writes_sample(tmp_path):
    assert speechgen.main([str(tmp_path / "s.wav"), "--duration", "1.5", "--seed", "3"]) == 0
    clip = read_wav(tmp_path / "s.wav")
    assert clip.sample_rate_hz == 16000 and clip.n_frames == 24000
    assert np.max(np.abs(clip.samples - speech_like(1.5, 16000, 3).samples)) <= 2.0**-15
