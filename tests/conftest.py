import numpy as np
import pytest

from egomwf.audio_io import write_wav
from egomwf.scenegen import SceneConfig, render_scene
from egomwf.speechgen import speech_like


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def speech_clip():
    return speech_like(10.0, 16000, seed=7)


@pytest.fixture(scope="session")
def speech_wav(tmp_path_factory, speech_clip):
    path = tmp_path_factory.mktemp("speech") / "speech.wav"
    write_wav(speech_clip, path, "16")
    return str(path)


@pytest.fixture
def blas_threads():
    """Reads numpy's bundled OpenBLAS thread count; skips under another BLAS."""
    import ctypes
    import os

    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__, mode=os.RTLD_NOLOAD)
    try:
        return lib.scipy_openblas_get_num_threads64_
    except AttributeError:
        pytest.skip("numpy does not link its bundled OpenBLAS")


@pytest.fixture(scope="session")
def default_scene(speech_wav):
    """One rendered -10 dB scene shared by read-only tests."""
    return render_scene(SceneConfig(speech_path=speech_wav, target_snr_db=-10.0, seed=0))


def rand_hermitian(rng, m, pd_shift=0.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = a @ a.conj().T / m
    return h + pd_shift * np.eye(m)


def rand_speech_pencil(rng, m, speech_power=1.0):
    """(r_yy, r_nn) with r_yy = rank-1 speech + PD noise."""
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    r_ss = speech_power * np.outer(v, v.conj()) / m
    r_nn = rand_hermitian(rng, m, pd_shift=0.1)
    return r_ss + r_nn, r_nn
