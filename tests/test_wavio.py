import wave

import numpy as np
import pytest

from afsr import wavio


def write_pcm16(path, frames, channels):
    """A well-formed PCM-16 WAV holding int16 `frames` of shape (n, channels)."""
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(np.asarray(frames, dtype="<i2").tobytes())


class TestReadWav:
    def test_stereo_is_averaged_to_mono(self, tmp_path):
        path = tmp_path / "st.wav"
        write_pcm16(path, [[0, 16384], [-8192, 8192], [32767, 32767]], 2)
        samples, rate = wavio.read_wav(path)
        assert rate == 8000
        np.testing.assert_array_equal(samples, [0.25, 0.0, 32767 / 32768])

    @pytest.mark.parametrize("channels, cut", [(1, 1), (2, 2), (2, 1)],
                             ids=["mono-cut-1", "stereo-cut-2", "stereo-cut-1"])
    def test_data_ending_inside_a_frame_names_the_file(self, tmp_path, channels, cut):
        path = tmp_path / "cut.wav"
        write_pcm16(path, np.arange(10 * channels).reshape(10, channels), channels)
        data = path.read_bytes()
        path.write_bytes(data[:-cut])
        with pytest.raises(ValueError, match="data ends inside a frame") as info:
            wavio.read_wav(path)
        assert str(path) in str(info.value)

    def test_data_cut_at_a_frame_boundary_reads_the_whole_frames(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_pcm16(path, np.arange(20).reshape(10, 2), 2)
        path.write_bytes(path.read_bytes()[:-4])
        samples, _ = wavio.read_wav(path)
        np.testing.assert_array_equal(samples, (np.arange(9) * 2 + 0.5) / 32768)


class TestWriteWav:
    def test_round_trip_and_clip_count(self, tmp_path):
        path = tmp_path / "o.wav"
        clipped = wavio.write_wav(path, [0.5, -1.0, 1.0, -2.0], 16000)
        assert clipped == 2
        samples, rate = wavio.read_wav(path)
        assert rate == 16000
        np.testing.assert_array_equal(samples, [0.5, -1.0, 32767 / 32768, -1.0])

    @pytest.mark.parametrize("bad, count", [([np.nan], 1), ([np.inf, -np.inf], 2),
                                            ([np.nan, np.inf, -np.inf], 3)],
                             ids=["nan", "infs", "nan-and-infs"])
    def test_non_finite_samples_raise_before_the_file_is_opened(self, tmp_path, bad, count):
        path = tmp_path / "o.wav"
        with pytest.raises(ValueError, match=f"{count} non-finite samples"):
            wavio.write_wav(path, [0.1] + bad, 16000)
        assert not path.exists()
