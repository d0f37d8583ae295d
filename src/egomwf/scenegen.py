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
the one way the package starts any, and one_blas_thread keeps BLAS from
starting more. render_scene runs the rotors on the lanes, then blocked
delay products by time block, then the surrogate rows.
"""

from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from ctypes import CDLL, c_int
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import AudioClip, read_wav, resample, write_wav
from .errors import EgomwfError
from .filters import ChannelPartition
from .spp import SppMask
from .stft import StftParams, analyze, frame_view

SPEED_OF_SOUND = 343.0
N_ARRAY_MICS = 12
N_ROTORS = 4
DELAY_FILTER_TAPS = 32
# fixed block sizes (delay products, partial phases): no sample depends on the lane count
DELAY_BLOCK = 4096
NOISE_BLOCK = 8192


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


@contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread; yields whether the count reads
    back 1, and restores the old count (one enhance is faster on more).
    dlsym on numpy's extension also searches the libraries it loaded."""
    try:
        from numpy._core import _multiarray_umath

        lib = CDLL(_multiarray_umath.__file__, mode=os.RTLD_NOLOAD)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):  # another BLAS: the count reads 0
        get, set_ = (lambda: 0), (lambda count: None)
    else:
        get.argtypes, get.restype, set_.argtypes, set_.restype = [], c_int, [c_int], None
    old = get()
    set_(1)
    try:
        yield get() == 1
    finally:
        set_(old)


def _n_partials(rpm: float, rate_hz: int) -> int:
    """Blade-pass partials (two blades, at most 20) whose +5% jitter stays
    below 0.95 x Nyquist; a SceneError unless rpm is finite, > 0 and leaves one."""
    f0 = 2.0 * rpm / 60.0
    if not 0 < f0 < math.inf or f0 * 1.05 >= 0.95 * rate_hz / 2:
        raise SceneError(f"rotor speed {rpm} rpm: not > 0, or no partial below 0.95 x Nyquist")
    return sum(k * f0 * 1.05 < 0.95 * rate_hz / 2 for k in range(1, 21))


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
        for name, value in vars(self).items():
            if name.endswith("_db") and not finite(value):
                raise SceneError(f"{name} must be a finite number, got {value!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise SceneError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.duration_s is not None and not 0 < self.duration_s < math.inf:
            raise SceneError(f"duration must be finite and positive, got {self.duration_s}")
        if type(self.sample_rate_hz) is not int or self.sample_rate_hz <= 0:
            raise SceneError(f"sample rate must be an integer > 0, got {self.sample_rate_hz!r}")
        if not all(finite(r) for r in self.rotor_speeds_rpm):
            raise SceneError(f"rotor speeds must be finite and > 0, got {self.rotor_speeds_rpm}")
        for r in self.rotor_speeds_rpm:
            _n_partials(r, self.sample_rate_hz)


@dataclass(frozen=True, eq=False)
class SceneOutput:
    mixture: AudioClip
    speech_image: AudioClip
    noise_image: AudioClip
    manifest: dict


def steering_delay_gain(src, mic, rate_hz: int, ref_distance: float = 1.0):
    """Free-field propagation delay (fractional samples) and 1/r gain from
    src to mic, or to each row of an (m, 3) array of mics.

    The gain is normalized so a microphone at ref_distance gets 1.
    """
    dist = np.linalg.norm(np.asarray(mic, dtype=float) - np.asarray(src, dtype=float), axis=-1)
    if np.any(dist <= 0):
        raise SceneError("source and microphone positions coincide")
    return dist / SPEED_OF_SOUND * rate_hz, ref_distance / dist


def fractional_delay(x, delay, gain=1.0, out: np.ndarray | None = None, lanes: int = 1):
    """Delay a signal by one or many non-integer numbers of samples.

    Windowed-sinc interpolation (Laakso et al. 1996): row j is x delayed
    by delay[j] times gain[j], at the input's length, the head zero-filled
    beyond the filter's lookahead; added into out when given, one row for a
    scalar delay. Per DELAY_BLOCK samples, one (delays, taps) x (taps,
    block) product on one of `lanes` threads, scattered by integer offset.
    """
    delays = np.atleast_1d(np.asarray(delay, dtype=float))
    if not np.all(delays >= 0):
        raise SceneError(f"negative delay {delay} not supported")
    n, half = np.size(x), DELAY_FILTER_TAPS // 2
    shifts = np.floor(delays).astype(np.int64)
    # each kernel reversed: tap 0 meets the oldest of its 32 input samples
    t = half - 1 - np.arange(DELAY_FILTER_TAPS) - (delays - shifts)[:, np.newaxis]
    window = 0.5 * (1.0 + np.cos(np.pi * t / (half + 1)))
    taps = np.sinc(t) * window
    taps *= np.broadcast_to(gain, delays.shape)[:, np.newaxis] / taps.sum(axis=1, keepdims=True)
    # row i of `windows` holds the inputs of output i - half before the shift
    padded = np.concatenate([np.zeros(DELAY_FILTER_TAPS - 1), x, np.zeros(half)])
    windows = frame_view(padded, DELAY_FILTER_TAPS, 1)
    out = np.zeros((delays.size, n)) if out is None else out

    def block(first: int) -> None:
        rows = taps @ np.ascontiguousarray(windows[first : first + DELAY_BLOCK].T)
        for j, start in enumerate((first - half + shifts).tolist()):
            lo, hi = max(0, -start), min(rows.shape[1], n - start)
            if lo < hi:
                out[j, start + lo : start + hi] += rows[j, lo:hi]

    spread(block, range(0, n + half, DELAY_BLOCK), lanes)
    return out if np.ndim(delay) else out[0]


def synth_ego_noise(rpm: float, duration_s: float, rate_hz: int, seed) -> AudioClip:
    """One rotor's noise: blade-pass harmonics plus a shaped broadband bed.

    Twenty 1/k-weighted partials at multiples of the blade-pass frequency
    (two blades), each with slow +-5% frequency jitter, plus Gaussian
    noise rolled off at -6 dB/octave above 1 kHz, 10 dB below the
    harmonic power. Output is normalized to unit mean-square power.

    Partials that would reach 0.95 x Nyquist are left out. A jitter's running
    sum is its control values times the hat basis's running sum, so all
    phases have a closed form, built NOISE_BLOCK samples at a time.
    """
    n_partials = _n_partials(rpm, rate_hz)
    if not 0.5 < duration_s * rate_hz < math.inf:
        raise SceneError(f"duration {duration_s} s is under one sample at {rate_hz} Hz")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate_hz))
    # fixed-throttle rotors drift slowly: one jitter control point every 4 s
    n_ctrl = max(int(np.ceil(duration_s / 4.0)) + 2, 2)
    ctrl_pos = np.linspace(0.0, n, n_ctrl)
    # per partial, uniform(-1, 1, n_ctrl) then uniform(0, 2 pi): a + (b - a) * random()
    draws = rng.random((n_partials, n_ctrl + 1))
    ctrl, start = 2.0 * draws[:, :-1] - 1.0, 2.0 * np.pi * draws[:, -1:]
    orders = np.arange(1.0, n_partials + 1.0)
    step = (2.0 * np.pi * orders * (2.0 * rpm / 60.0) / rate_hz)[:, np.newaxis]
    harm, carry = np.empty(n), np.zeros(n_ctrl)
    for first in range(0, n, NOISE_BLOCK):
        pos = np.arange(first, min(first + NOISE_BLOCK, n), dtype=float)
        hat_sums = np.array([np.interp(pos, ctrl_pos, hat) for hat in np.eye(n_ctrl)])
        hat_sums[:, 0] += carry
        np.cumsum(hat_sums, axis=1, out=hat_sums)
        carry = hat_sums[:, -1]
        phase = (pos + 1.0) + 0.05 * (ctrl @ hat_sums)
        phase *= step
        phase += start
        harm[first : first + pos.size] = (1.0 / orders) @ np.sin(phase, out=phase)
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
    return SppMask(spp=beta.astype(np.float64), beta=beta)


def _load_speech(cfg: SceneConfig) -> np.ndarray:
    x = resample(read_wav(cfg.speech_path).channel(0), cfg.sample_rate_hz).samples[0]
    if cfg.duration_s is not None:
        n = int(round(cfg.duration_s * cfg.sample_rate_hz))
        x = np.pad(x[:n], (0, max(0, n - x.size)))
    return x


def render_scene(cfg: SceneConfig) -> SceneOutput:
    """Render mixture/speech/noise images and the manifest.

    Channel layout: 12 main-array channels, then 4 propeller channels,
    then the external microphone (channel N_EMBEDDED). The
    noise image is scaled so the reference channel (0) meets the target
    SNR exactly; the external channel sits 15 dB above that. On
    usable_cores() lanes with BLAS held at one thread: the four rotors,
    then the speech image and each rotor's coupled noise (rotors 0..3 in
    turn) as blocked delay products by time block, then the surrogate
    rows. The images do not depend on the lane count.
    """
    fs = cfg.sample_rate_hz
    speech = _load_speech(cfg)
    n = speech.size
    if n < fs:
        raise SceneError("speech material shorter than one second")
    if np.mean(speech**2) <= 0:
        raise SceneError("speech material has zero energy; SNR target unreachable")

    mics = np.vstack([ARRAY_MICS, PROPELLER_MICS, EXTERNAL_MIC])
    n_mics = mics.shape[0]

    # speech images: relative delays, 1/r gains, propeller capsules shielded
    delays, gains = steering_delay_gain(SOURCE, mics, fs, np.linalg.norm(SOURCE - ARRAY_MICS[0]))
    gains[N_ARRAY_MICS:N_EMBEDDED] *= 10.0 ** (cfg.propeller_speech_rejection_db / 20.0)
    delays -= delays.min()

    # coupling[i, r]: rotor r's gain at mic i, own or cross at the propeller mics
    own, cross, to_array, floor_gain = 10.0 ** (np.array([
        cfg.coupling_own_db, cfg.coupling_cross_db, cfg.coupling_array_db, cfg.sensor_noise_db
    ]) / 20.0)
    coupling = np.full((n_mics, N_ROTORS), to_array)
    coupling[N_ARRAY_MICS:N_EMBEDDED] = np.where(np.eye(N_ROTORS, dtype=bool), own, cross)
    duration = n / fs
    speech_image = np.zeros((n_mics, n))
    noise_image = np.zeros((n_mics, n))

    def rotor(r: int) -> np.ndarray:
        return synth_ego_noise(cfg.rotor_speeds_rpm[r], duration, fs, (cfg.seed, r)).samples[0][:n]

    def surrogate(i: int) -> None:
        # incoherent per-channel part: a random-phase surrogate of the
        # channel's own coherent noise (local turbulence / structure-borne
        # vibration). Same power spectrum, no cross-channel coherence, so no
        # spatial filter can cancel below sensor_noise_db at any frequency.
        # Mic i's phases are the draws after mics 0..i-1's in one stream.
        row = noise_image[i]
        spec = np.fft.rfft(row)
        stream = np.random.PCG64((cfg.seed, N_ROTORS)).advance(i * spec.size)
        theta = 2.0 * np.pi * np.random.Generator(stream).uniform(size=spec.size)
        magnitude = np.abs(spec)
        np.multiply(magnitude, np.cos(theta), out=spec.real)
        np.multiply(magnitude, np.sin(theta), out=spec.imag)
        row += floor_gain * np.fft.irfft(spec, n)

    with one_blas_thread() as pinned:
        lanes = usable_cores() if pinned else 1
        rotors = spread(rotor, range(N_ROTORS), lanes)
        fractional_delay(speech, delays, gains, speech_image, lanes)
        for r in range(N_ROTORS):
            path_delays, _ = steering_delay_gain(ROTORS[r], mics, fs)
            fractional_delay(rotors[r], path_delays, coupling[:, r], noise_image, lanes)
        spread(surrogate, range(n_mics), lanes)

    # calibrate the embedded noise to the target SNR at the reference
    # channel (0), the external channel's to external_snr_offset_db above it
    if np.mean(noise_image[0] ** 2) <= 0:
        raise SceneError("reference-channel noise image is silent")
    target_ext = cfg.target_snr_db + cfg.external_snr_offset_db
    for ref, end, snr_db in ((0, N_EMBEDDED, cfg.target_snr_db), (N_EMBEDDED, n_mics, target_ext)):
        ratio = np.mean(speech_image[ref] ** 2) / np.mean(noise_image[ref] ** 2)
        noise_image[ref:end] *= np.sqrt(ratio / 10.0 ** (snr_db / 10.0))

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
        mixture=AudioClip(speech_image + noise_image, fs),
        speech_image=AudioClip(speech_image, fs),
        noise_image=AudioClip(noise_image, fs),
        manifest=manifest,
    )


def write_scene(scene: SceneOutput, out_dir: str | Path) -> dict:
    """Write the embedded channels of the mixture, speech and noise images,
    the mixture's external channel and the manifest; returns the manifest."""
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
