import struct

import numpy as np
import pytest
from scipy import signal
from scipy.io import wavfile

from egomwf.audio_io import _CHUNK, AudioClip, AudioError, read_wav, resample, write_wav


def test_roundtrip_shape_and_rate(tmp_path, rng):
    x = rng.uniform(-0.5, 0.5, (2, 160))
    write_wav(AudioClip(x, 16000), tmp_path / "t.wav", "16")
    clip = read_wav(tmp_path / "t.wav")
    assert clip.samples.shape == (2, 160)
    assert clip.sample_rate_hz == 16000


def test_int16_full_scale_normalization(tmp_path):
    wavfile.write(tmp_path / "fs.wav", 16000, np.array([32767, -32768, 0], dtype=np.int16))
    clip = read_wav(tmp_path / "fs.wav")
    assert clip.samples[0, 0] == pytest.approx(32767 / 32768, abs=1e-12)
    assert clip.samples[0, 1] == -1.0


def test_24bit_read_normalization(tmp_path):
    vals = [8388607, -8388608, 4194304, 0]
    data = b"".join(struct.pack("<i", v)[:3] for v in vals)
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000 * 3, 3, 24)
    hdr += b"data" + struct.pack("<I", len(data))
    (tmp_path / "t24.wav").write_bytes(hdr + data)
    clip = read_wav(tmp_path / "t24.wav")
    assert clip.samples[0, 0] == pytest.approx(8388607 / 8388608, abs=1e-6)
    assert clip.samples[0, 1] == -1.0
    assert clip.samples[0, 2] == pytest.approx(0.5, abs=1e-6)


def test_16bit_roundtrip_quantization_error(tmp_path, rng):
    x = rng.uniform(-1.0, 1.0, (3, 4000))
    clip = AudioClip(x, 16000)
    write_wav(clip, tmp_path / "q.wav", "16")
    back = read_wav(tmp_path / "q.wav")
    assert np.max(np.abs(back.samples - x)) <= 2.0**-15


def test_32f_roundtrip_bit_exact(tmp_path, rng):
    x = rng.uniform(-1.0, 1.0, (2, 500)).astype(np.float32).astype(np.float64)
    write_wav(AudioClip(x, 44100), tmp_path / "f.wav", "32f")
    back = read_wav(tmp_path / "f.wav")
    assert np.array_equal(back.samples, x)
    assert back.sample_rate_hz == 44100


@pytest.mark.parametrize("dtype, full_scale", [(np.int16, 2.0**15), (np.float32, 1.0)])
def test_chunked_read_matches_whole_file_conversion(tmp_path, rng, dtype, full_scale):
    """read_wav converts a file chunk by chunk; a length that is no multiple
    of the chunk, with an external row, reads back bit for bit as the
    whole-file data.T / full_scale."""
    n = 3 * _CHUNK + 123
    data = rng.uniform(-0.9, 0.9, (n, 5)) * (32767 if dtype is np.int16 else 1)
    data = data.astype(dtype)
    wavfile.write(tmp_path / "c.wav", 16000, data)
    assert np.array_equal(read_wav(tmp_path / "c.wav").samples, data.T / full_scale)
    both = read_wav(tmp_path / "c.wav", tmp_path / "c.wav").samples
    assert np.array_equal(both, np.vstack([data.T, data.T[:1]]) / full_scale)


@pytest.mark.parametrize("formats", [("32f", "32f"), ("16", "32f"), ("32f", "16")])
def test_external_row_reads_into_one_c_ordered_clip(tmp_path, rng, formats):
    """read_wav with an external microphone: the input's rows and the
    external file's first channel, as separate reads would give them bit
    for bit, in one C-ordered array; a rate mismatch is an AudioError."""
    x = rng.uniform(-0.9, 0.9, (3, 500))
    write_wav(AudioClip(x, 16000), tmp_path / "in.wav", formats[0])
    write_wav(AudioClip(x[::-1], 16000), tmp_path / "ext.wav", formats[1])
    clip = read_wav(tmp_path / "in.wav", tmp_path / "ext.wav")
    apart = read_wav(tmp_path / "in.wav"), read_wav(tmp_path / "ext.wav")
    rows = np.vstack([apart[0].samples, apart[1].samples[:1]])
    assert clip.samples.flags.c_contiguous and clip.samples.shape == (4, 500)
    assert np.array_equal(clip.samples, rows)
    assert read_wav(tmp_path / "in.wav").samples.flags.c_contiguous
    write_wav(AudioClip(x, 8000), tmp_path / "slow.wav", "16")
    with pytest.raises(AudioError, match="rate differs"):
        read_wav(tmp_path / "in.wav", tmp_path / "slow.wav")


def test_silence_file_length(tmp_path):
    write_wav(AudioClip(np.zeros((1, 100)), 16000), tmp_path / "s.wav", "16")
    assert (tmp_path / "s.wav").stat().st_size == 44 + 100 * 2


def test_write_clamps_out_of_range(tmp_path):
    write_wav(AudioClip(np.array([[1.5, -2.0]]), 16000), tmp_path / "c.wav", "16")
    rate, data = wavfile.read(tmp_path / "c.wav")
    assert data[0] == 32767
    assert data[1] == -32768


def _chunk(name: bytes, body: bytes) -> bytes:
    return name + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) % 2)


def _riff(*chunks: bytes, magic: bytes = b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return magic + struct.pack("<I", len(body)) + body


def _fmt(tag=1, channels=1, rate=16000, bits=16) -> bytes:
    align = channels * bits // 8
    return _chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits))


_PCM16 = _chunk(b"data", struct.pack("<4h", 1, -2, 3, -4))
MALFORMED_WAVS = {
    "junk": b"not a wav at all",
    "no RIFF/WAVE magic": b"RIFF\x10\x00\x00\x00AVI " + _fmt() + _PCM16,
    "data before fmt": _riff(_PCM16, _fmt()),
    "no data chunk": _riff(_fmt(), _chunk(b"LIST", b"INFO")),
    "no fmt chunk": _riff(_PCM16),
    "truncated fmt": _riff(_fmt())[:-8],
    "8-bit PCM": _riff(_fmt(bits=8), _chunk(b"data", bytes(4))),
    "A-law": _riff(_fmt(tag=6, bits=8), _chunk(b"data", bytes(4))),
    "64-bit PCM": _riff(_fmt(bits=64), _chunk(b"data", bytes(16))),
    "RIFX": _riff(_fmt(), _PCM16, magic=b"RIFX"),
    "truncated data": _riff(_fmt(), _PCM16)[:-2],
    "zero channels": _riff(_fmt(channels=0), _PCM16),
    "zero-length data": _riff(_fmt(), _chunk(b"data", b"")),
}


def test_read_errors(tmp_path):
    with pytest.raises(AudioError):
        read_wav(tmp_path / "missing.wav")
    with pytest.raises(AudioError):
        read_wav(tmp_path)  # a directory
    for name, data in MALFORMED_WAVS.items():
        (tmp_path / "bad.wav").write_bytes(data)
        try:
            read_wav(tmp_path / "bad.wav")
        except AudioError:
            continue
        pytest.fail(f"read_wav accepted a file with {name}")


def test_read_wav_malformed_through_cli_exit_3(tmp_path, capsys):
    from egomwf.cli import main

    config = tmp_path / "config.json"
    config.write_text('{"partition": {"speech_noise_channels": [0, 1], "noise_only_channels": []}}')
    for name, data in MALFORMED_WAVS.items():
        (tmp_path / "bad.wav").write_bytes(data)
        code = main(["enhance", "--input", str(tmp_path / "bad.wav"),
                     "--output", str(tmp_path / "o.wav"), "--config", str(config), "--method", "mwf"])
        err = capsys.readouterr().err
        assert code == 3, name
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        assert not (tmp_path / "o.wav").exists()


def _scipy_file(path, data, extensible=False, list_chunk=b""):
    """A WAV written by scipy, optionally relabelled WAVE_FORMAT_EXTENSIBLE
    (scipy never writes that) or with a chunk inserted before its data."""
    wavfile.write(path, 16000, data)
    rest, chunks = path.read_bytes()[12:], []
    while rest:
        name, size = rest[:4], struct.unpack("<I", rest[4:8])[0]
        chunks.append([name, rest[8 : 8 + size]])
        rest = rest[8 + size + size % 2 :]
    for chunk in chunks:
        if chunk[0] == b"fmt " and extensible:
            fmt = chunk[1][:16]
            guid = fmt[:2] + b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
            # cbSize 22, valid bits as stored, no channel mask, then the GUID
            chunk[1] = b"\xfe\xff" + fmt[2:] + struct.pack("<H", 22) + fmt[14:] + bytes(4) + guid
    *front, data_chunk = (_chunk(name, body) for name, body in chunks)
    path.write_bytes(_riff(*front, list_chunk, data_chunk))


@pytest.mark.parametrize("dtype, scale", [(np.int16, 2.0**15), (np.int32, 2.0**31),
                                          (np.float32, 1.0), (np.float64, 1.0)])
@pytest.mark.parametrize("layout", ["plain", "extensible", "odd LIST chunk"])
def test_reads_scipy_files_bit_for_bit(tmp_path, rng, dtype, scale, layout):
    data = rng.uniform(-0.99, 0.99, (3 * _CHUNK + 5, 3))
    data = (data * scale).astype(dtype) if scale != 1.0 else data.astype(dtype)
    path = tmp_path / "s.wav"
    _scipy_file(path, data, extensible=layout == "extensible",
                list_chunk=_chunk(b"LIST", b"INFOISFT\x03\x00\x00\x00ab\x00") if layout == "odd LIST chunk" else b"")
    rate, ref = wavfile.read(path)
    assert np.array_equal(ref, data)
    clip = read_wav(path)
    assert clip.sample_rate_hz == rate == 16000
    assert np.array_equal(clip.samples, ref.T.astype(np.float64) / scale)


@pytest.mark.parametrize("bit_depth, dtype", [("16", np.int16), ("32f", np.float32)])
def test_scipy_reads_written_files_bit_for_bit(tmp_path, rng, bit_depth, dtype):
    x = rng.uniform(-1.2, 1.2, (3, 2 * _CHUNK + 7))
    write_wav(AudioClip(x, 22050), tmp_path / "w.wav", bit_depth)
    rate, data = wavfile.read(tmp_path / "w.wav")
    assert rate == 22050 and data.dtype == dtype
    assert (tmp_path / "w.wav").stat().st_size == 44 + data.nbytes
    if bit_depth == "16":
        expected = np.clip(np.round(np.clip(x, -1.0, 1.0) * 32768.0), -32768, 32767)
    else:
        expected = x.astype(np.float32)
    assert np.array_equal(data, expected.T.astype(dtype))
    assert np.array_equal(read_wav(tmp_path / "w.wav").samples, data.T / (32768.0 if bit_depth == "16" else 1.0))


def test_write_empty_rejected(tmp_path):
    with pytest.raises(AudioError):
        write_wav(AudioClip(np.zeros((1, 0)), 16000), tmp_path / "e.wav", "16")


def test_clip_invariants():
    with pytest.raises(AudioError):
        AudioClip(np.array([[np.nan, 0.0]]), 16000)
    with pytest.raises(AudioError):
        AudioClip(np.zeros((1, 10)), 0)


def test_resample_identity(rng):
    clip = AudioClip(rng.standard_normal((2, 1000)), 16000)
    assert resample(clip, 16000) is clip


def test_resample_sine_amplitude():
    t = np.arange(int(44100 * 1.5)) / 44100
    clip = AudioClip(np.sin(2 * np.pi * 1000 * t)[None, :], 44100)
    out = resample(clip, 16000)
    assert out.n_frames == -(-clip.n_frames * 160 // 441)
    seg = out.samples[0, 3000:-3000]
    amp = np.sqrt(2 * np.mean(seg**2))
    assert abs(amp - 1.0) <= 0.01


def test_resample_stopband_attenuation():
    t = np.arange(int(44100 * 1.5)) / 44100
    clip = AudioClip(np.sin(2 * np.pi * 10000 * t)[None, :], 44100)
    out = resample(clip, 16000)
    seg = out.samples[0, 3000:-3000]
    atten_db = 10 * np.log10(np.mean(seg**2) / 0.5 + 1e-300)
    assert atten_db <= -40.0


def test_resample_linearity(rng):
    x = AudioClip(rng.standard_normal((1, 5000)), 44100)
    y = AudioClip(rng.standard_normal((1, 5000)), 44100)
    mix = AudioClip(2.0 * x.samples + 3.0 * y.samples, 44100)
    lhs = resample(mix, 16000).samples
    rhs = 2.0 * resample(x, 16000).samples + 3.0 * resample(y, 16000).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_resample_preserves_channels(rng):
    clip = AudioClip(rng.standard_normal((5, 4410)), 44100)
    out = resample(clip, 16000)
    assert out.n_channels == 5
    for c in range(5):
        single = resample(AudioClip(clip.samples[c : c + 1], 44100), 16000)
        assert np.array_equal(out.samples[c], single.samples[0])


def test_resample_rejects_bad_ratios(rng):
    clip = AudioClip(rng.standard_normal((1, 1000)), 44100)
    with pytest.raises(AudioError):
        resample(clip, 0)
    with pytest.raises(AudioError):
        resample(AudioClip(clip.samples, 44101), 16000)  # reduces to 16000/44101


@pytest.mark.parametrize("src, dst", [(16000, 10000), (44100, 16000), (48000, 16000),
                                      (16000, 22050), (8000, 16000)])
@pytest.mark.parametrize("n", [1, 7, 4097, 160000])
def test_resample_matches_scipy_resample_poly(rng, src, dst, n):
    """The numpy filter design and polyphase match scipy's firwin and
    resample_poly, the implementation they replace, to rounding."""
    x = rng.standard_normal((2, n))
    g = np.gcd(src, dst)
    up, down = dst // g, src // g
    h = signal.firwin(64 * up + 1, 0.9 * min(src, dst) / 2.0, window=("kaiser", 8.6), fs=src * up)
    expected = signal.resample_poly(x, up, down, axis=1, window=h)
    out = resample(AudioClip(x, src), dst)
    assert out.samples.shape == expected.shape and out.sample_rate_hz == dst
    assert np.max(np.abs(out.samples - expected)) <= 1e-12
