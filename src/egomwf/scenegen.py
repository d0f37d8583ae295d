"""Synthetic UAV acoustic scenes with ground-truth components.

Free-field propagation over a desk-scale replica of the measurement
geometry, fixed as module constants: a speech source 2 m out near the
floor (SOURCE), a 16-element array (12 main ARRAY_MICS + 4
PROPELLER_MICS) on a frame 1.15 m up, ROTORS just above the propeller
mics, and an EXTERNAL_MIC 0.2 m above the source. Every scene carries
exact per-channel speech/noise components; make_oracle_mask turns the
reference channel's components into an oracle activity mask.
DEFAULT_SNRS_DB, DEFAULT_ARRAY_SIZES and suite_partition define the
sweep's scenes and partitions; spread fans its work out over threads,
the one way the package starts any.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import AudioClip, read_wav, resample, write_wav
from .errors import EgomwfError
from .filters import ChannelPartition
from .spp import SppMask
from .stft import StftParams, analyze

SPEED_OF_SOUND = 343.0
N_ARRAY_MICS = 12
N_ROTORS = 4
DELAY_FILTER_TAPS = 32


class SceneError(EgomwfError):
    pass


# positions in meters, read-only; each propeller mic sits just below its rotor
SOURCE = np.array([2.0, 0.0, 0.1])
_angles = np.deg2rad(np.arange(N_ARRAY_MICS) * 30.0)
ARRAY_MICS = np.stack(
    [0.25 * np.cos(_angles), 0.25 * np.sin(_angles), np.full(N_ARRAY_MICS, 1.15)], axis=1
)
_rotor_angles = np.deg2rad([45.0, 135.0, 225.0, 315.0])
ROTORS = np.stack(
    [0.35 * np.cos(_rotor_angles), 0.35 * np.sin(_rotor_angles), np.full(N_ROTORS, 1.22)], axis=1
)
PROPELLER_MICS = ROTORS.copy()
PROPELLER_MICS[:, 2] = 1.12
EXTERNAL_MIC = np.array([2.0, 0.0, 0.3])
for _positions in (SOURCE, ARRAY_MICS, PROPELLER_MICS, ROTORS, EXTERNAL_MIC):
    _positions.setflags(write=False)
del _angles, _rotor_angles, _positions
N_EMBEDDED = N_ARRAY_MICS + N_ROTORS


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spread(fn, items, threads: int) -> list:
    """[fn(x) for x in items] on the calling thread and up to threads - 1
    others. An error leaves the items not yet started undone, then propagates.
    Indices are handed out under a lock, so no item runs twice even where
    the interpreter runs threads without a global lock."""
    todo, out, lock = iter(range(len(items))), [None] * len(items), threading.Lock()

    def take() -> int | None:
        with lock:
            return next(todo, None)

    def drain() -> None:
        try:
            while (k := take()) is not None:
                out[k] = fn(items[k])
        finally:  # after an error, leave the other threads nothing to start
            with lock:
                for _ in todo:
                    pass

    n_helpers = min(threads, len(items)) - 1
    with ThreadPoolExecutor(max(1, n_helpers)) as pool:
        helpers = [pool.submit(drain) for _ in range(n_helpers)]
        drain()
    for helper in helpers:
        helper.result()
    return out


@dataclass(frozen=True, eq=False)
class SceneConfig:
    speech_path: str
    target_snr_db: float = -10.0
    seed: int = 0
    rotor_speeds_rpm: tuple[float, float, float, float] = (4080.0, 3920.0, 4040.0, 3960.0)
    coupling_own_db: float = 0.0
    coupling_cross_db: float = -12.0
    coupling_array_db: float = -6.0
    # mechanical shielding of the close-talking propeller capsules; keeps
    # the speech component negligible there, which the blocking stage assumes
    propeller_speech_rejection_db: float = -25.0
    # per-channel incoherent part (local blade-wake turbulence plus
    # self-noise) relative to that channel's coherent ego noise; bounds
    # how far any spatial filter can cancel, as on real hardware, where
    # close-to-rotor microphones are dominated by local turbulence
    sensor_noise_db: float = -3.0
    external_snr_offset_db: float = 15.0
    duration_s: float | None = None
    sample_rate_hz: int = 16000

    def __post_init__(self):
        def finite(value) -> bool:
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            return real and math.isfinite(value)

        if len(self.rotor_speeds_rpm) != N_ROTORS:
            raise SceneError(f"need {N_ROTORS} rotor speeds, got {len(self.rotor_speeds_rpm)}")
        if not all(finite(r) and r > 0 for r in self.rotor_speeds_rpm):
            raise SceneError(f"rotor speeds must be finite and > 0, got {self.rotor_speeds_rpm}")
        for name, value in vars(self).items():
            if name.endswith("_db") and not finite(value):
                raise SceneError(f"{name} must be a finite number, got {value!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise SceneError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.duration_s is not None and not 0 < self.duration_s < math.inf:
            raise SceneError(f"duration must be finite and positive, got {self.duration_s}")
        if type(self.sample_rate_hz) is not int or self.sample_rate_hz <= 0:
            raise SceneError(f"sample rate must be an integer > 0, got {self.sample_rate_hz!r}")


@dataclass(frozen=True, eq=False)
class SceneOutput:
    mixture: AudioClip
    speech_image: AudioClip
    noise_image: AudioClip
    manifest: dict


def steering_delay_gain(
    src: np.ndarray, mic: np.ndarray, rate_hz: int, ref_distance: float = 1.0
) -> tuple[float, float]:
    """Free-field propagation delay (fractional samples) and 1/r gain.

    The gain is normalized so a microphone at ref_distance gets 1.
    """
    src = np.asarray(src, dtype=float)
    mic = np.asarray(mic, dtype=float)
    dist = float(np.linalg.norm(src - mic))
    if dist <= 0:
        raise SceneError("source and microphone positions coincide")
    delay = dist / SPEED_OF_SOUND * rate_hz
    return delay, ref_distance / dist


def fractional_delay(x: np.ndarray, delay: float) -> np.ndarray:
    """Delay a signal by a non-integer number of samples.

    Windowed-sinc interpolation; output has the input's length, with the
    head zero-filled for delays beyond the filter's lookahead.
    """
    if delay < 0:
        raise SceneError(f"negative delay {delay} not supported")
    x = np.asarray(x, dtype=float)
    n0 = int(np.floor(delay))
    mu = delay - n0
    half = DELAY_FILTER_TAPS // 2
    t = np.arange(DELAY_FILTER_TAPS) - half - mu
    window = 0.5 * (1.0 + np.cos(np.pi * t / (half + 1)))
    kernel = np.sinc(t) * window
    kernel /= kernel.sum()
    full = np.convolve(x, kernel)
    out = np.zeros_like(x)
    start = half - n0
    if start >= 0:
        seg = full[start : start + x.size]
        out[: seg.size] = seg
    else:
        out[-start :] = full[: x.size + start]
    return out


def synth_ego_noise(rpm: float, duration_s: float, rate_hz: int, seed) -> AudioClip:
    """One rotor's noise: blade-pass harmonics plus a shaped broadband bed.

    Twenty 1/k-weighted partials at multiples of the blade-pass frequency
    (two blades), each with slow +-5% frequency jitter, plus Gaussian
    noise rolled off at -6 dB/octave above 1 kHz, 10 dB below the
    harmonic power. Output is normalized to unit mean-square power.
    """
    if rpm <= 0:
        raise SceneError(f"rpm must be positive, got {rpm}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate_hz))
    f0 = 2.0 * rpm / 60.0
    # fixed-throttle rotors drift slowly: one jitter control point every 4 s
    n_ctrl = max(int(np.ceil(duration_s / 4.0)) + 2, 2)
    ctrl_pos = np.linspace(0.0, n, n_ctrl)
    sample_pos = np.arange(n)
    harm = np.zeros(n)
    for k in range(1, 21):
        if k * f0 * 1.05 >= 0.95 * rate_hz / 2:
            break
        jitter = np.interp(sample_pos, ctrl_pos, rng.uniform(-1.0, 1.0, n_ctrl))
        inst_freq = k * f0 * (1.0 + 0.05 * jitter)
        phase = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.cumsum(inst_freq) / rate_hz
        harm += np.sin(phase) / k
    harm_power = np.mean(harm**2)

    broad = rng.standard_normal(n)
    spec = np.fft.rfft(broad)
    freqs = np.fft.rfftfreq(n, 1.0 / rate_hz)
    spec *= 1.0 / np.sqrt(1.0 + (freqs / 1000.0) ** 2)
    broad = np.fft.irfft(spec, n)
    broad *= np.sqrt(0.1 * harm_power / np.mean(broad**2))

    x = harm + broad
    x /= np.sqrt(np.mean(x**2))
    return AudioClip(x[np.newaxis, :], rate_hz)


def make_oracle_mask(
    speech_ref: AudioClip, noise_ref: AudioClip, params: StftParams | None = None
) -> SppMask:
    """Activity indicator from ground-truth components at one channel.

    beta = 1 where the per-bin speech/noise power ratio is at least 0 dB
    and the speech carries any energy at all.
    """
    params = params or StftParams()
    s_pow = np.abs(analyze(speech_ref, params).data[:, :, 0]) ** 2
    n_pow = np.abs(analyze(noise_ref, params).data[:, :, 0]) ** 2
    beta = ((s_pow >= n_pow) & (s_pow > 0)).astype(np.uint8)
    spp = beta.astype(np.float64)
    return SppMask(spp=spp, beta=beta, source_channel=("oracle", -1))


def _load_speech(cfg: SceneConfig) -> np.ndarray:
    clip = read_wav(cfg.speech_path)
    if clip.n_channels > 1:
        clip = clip.channel(0)
    if clip.sample_rate_hz != cfg.sample_rate_hz:
        clip = resample(clip, cfg.sample_rate_hz)
    x = clip.samples[0]
    if cfg.duration_s is not None:
        n = int(round(cfg.duration_s * cfg.sample_rate_hz))
        if x.size >= n:
            x = x[:n]
        else:
            x = np.pad(x, (0, n - x.size))
    return x


def render_scene(cfg: SceneConfig) -> SceneOutput:
    """Render mixture/speech/noise images and the manifest.

    Channel layout: 12 main-array channels, then 4 propeller channels,
    then the external microphone (channel N_EMBEDDED). The
    noise image is scaled so the reference channel (0) meets the target
    SNR exactly; the external channel sits 15 dB above that. Mic rows
    render on usable_cores() threads; the images do not depend on that.
    """
    fs = cfg.sample_rate_hz
    speech = _load_speech(cfg)
    n = speech.size
    if n < fs:
        raise SceneError("speech material shorter than one second")
    speech_power = np.mean(speech**2)
    if speech_power <= 0:
        raise SceneError("speech material has zero energy; SNR target unreachable")

    mics = np.vstack([ARRAY_MICS, PROPELLER_MICS, EXTERNAL_MIC])
    n_mics = mics.shape[0]
    ref_distance = float(np.linalg.norm(SOURCE - ARRAY_MICS[0]))

    # speech images: relative delays, 1/r gains, propeller capsules shielded
    delays = np.empty(n_mics)
    gains = np.empty(n_mics)
    for i in range(n_mics):
        delays[i], gains[i] = steering_delay_gain(SOURCE, mics[i], fs, ref_distance)
    rejection = 10.0 ** (cfg.propeller_speech_rejection_db / 20.0)
    gains[N_ARRAY_MICS:N_EMBEDDED] *= rejection
    delays -= delays.min()

    # rotor signals, then per mic its speech and coupled noise images, on threads
    duration = n / fs
    own = 10.0 ** (cfg.coupling_own_db / 20.0)
    cross = 10.0 ** (cfg.coupling_cross_db / 20.0)
    to_array = 10.0 ** (cfg.coupling_array_db / 20.0)
    floor_gain = 10.0 ** (cfg.sensor_noise_db / 20.0)
    speech_image = np.empty((n_mics, n))
    noise_image = np.zeros((n_mics, n))

    def rotor(r: int) -> np.ndarray:
        return synth_ego_noise(cfg.rotor_speeds_rpm[r], duration, fs, (cfg.seed, r)).samples[0][:n]

    def mic_rows(i: int) -> None:
        speech_image[i] = gains[i] * fractional_delay(speech, delays[i])
        row = noise_image[i]
        for r in range(N_ROTORS):
            if N_ARRAY_MICS <= i < N_EMBEDDED:
                gain = own if (i - N_ARRAY_MICS) == r else cross
            else:
                gain = to_array
            path_delay, _ = steering_delay_gain(ROTORS[r], mics[i], fs)
            row += gain * fractional_delay(rotors[r], path_delay)
        # incoherent per-channel part: a random-phase surrogate of the
        # channel's own coherent noise (local turbulence / structure-borne
        # vibration). Same power spectrum, no cross-channel coherence, so no
        # spatial filter can cancel below sensor_noise_db at any frequency.
        # Mic i's phases are the draws after mics 0..i-1's in one stream.
        spec = np.fft.rfft(row)
        stream = np.random.PCG64((cfg.seed, N_ROTORS)).advance(i * spec.size)
        phases = np.exp(2j * np.pi * np.random.Generator(stream).uniform(size=spec.size))
        row += floor_gain * np.fft.irfft(np.abs(spec) * phases, n)

    rotors = spread(rotor, range(N_ROTORS), usable_cores())
    spread(mic_rows, range(n_mics), usable_cores())

    # calibrate the embedded noise to the target SNR at the reference channel
    ref_speech_power = np.mean(speech_image[0] ** 2)
    ref_noise_power = np.mean(noise_image[0] ** 2)
    if ref_noise_power <= 0:
        raise SceneError("reference-channel noise image is silent")
    alpha = np.sqrt(ref_speech_power / ref_noise_power / 10.0 ** (cfg.target_snr_db / 10.0))
    noise_image[:N_EMBEDDED] *= alpha
    ext_speech_power = np.mean(speech_image[N_EMBEDDED] ** 2)
    ext_noise_power = np.mean(noise_image[N_EMBEDDED] ** 2)
    target_ext = cfg.target_snr_db + cfg.external_snr_offset_db
    alpha_ext = np.sqrt(ext_speech_power / ext_noise_power / 10.0 ** (target_ext / 10.0))
    noise_image[N_EMBEDDED] *= alpha_ext

    mixture = speech_image + noise_image
    speech_clip = AudioClip(speech_image, fs)
    noise_clip = AudioClip(noise_image, fs)
    mixture_clip = AudioClip(mixture, fs)

    achieved = 10.0 * np.log10(np.mean(speech_image[0] ** 2) / np.mean(noise_image[0] ** 2))
    manifest = {
        "seed": cfg.seed,
        "sample_rate_hz": fs,
        "duration_s": duration,
        "target_snr_db": cfg.target_snr_db,
        "achieved_snr_db": float(achieved),
        "rotor_speeds_rpm": list(cfg.rotor_speeds_rpm),
        "channels": {
            "array": list(range(N_ARRAY_MICS)),
            "propeller": list(range(N_ARRAY_MICS, N_EMBEDDED)),
            "external": N_EMBEDDED,
        },
        "reference_channel": 0,
        "coupling_db": {
            "own": cfg.coupling_own_db,
            "cross": cfg.coupling_cross_db,
            "array": cfg.coupling_array_db,
        },
        "propeller_speech_rejection_db": cfg.propeller_speech_rejection_db,
        "sensor_noise_db": cfg.sensor_noise_db,
        "external_snr_offset_db": cfg.external_snr_offset_db,
        "speech_path": str(cfg.speech_path),
    }
    return SceneOutput(
        mixture=mixture_clip,
        speech_image=speech_clip,
        noise_image=noise_clip,
        manifest=manifest,
    )


def write_scene(scene: SceneOutput, out_dir: str | Path) -> dict:
    """Write the embedded channels of the mixture, speech and noise images,
    the mixture's external channel and the manifest; returns the manifest."""
    import json

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fs = scene.mixture.sample_rate_hz
    images = {"mixture": scene.mixture, "speech": scene.speech_image, "noise": scene.noise_image}
    for name, clip in images.items():
        write_wav(AudioClip(clip.samples[:N_EMBEDDED], fs), out_dir / f"{name}.wav", "32f")
    write_wav(AudioClip(scene.mixture.samples[N_EMBEDDED:], fs), out_dir / "external.wav", "32f")
    manifest = dict(scene.manifest)
    manifest["files"] = {name: f"{name}.wav" for name in (*images, "external")}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


DEFAULT_SNRS_DB = (-20.0, -10.0, 0.0)
DEFAULT_ARRAY_SIZES = (4, 8, 12)


def suite_partition(m_speech_noise: int) -> ChannelPartition:
    """Fig.-3-style partition: first m main-array channels plus the four
    propeller channels as noise references."""
    if m_speech_noise > N_ARRAY_MICS:
        raise SceneError(f"at most {N_ARRAY_MICS} main-array channels available")
    return ChannelPartition(
        speech_noise_channels=tuple(range(m_speech_noise)),
        noise_only_channels=tuple(range(N_ARRAY_MICS, N_ARRAY_MICS + N_ROTORS)),
        ref_channel=0,
    )
