"""Tests for synthetic test scenes."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.images import SCENE_KINDS, frame_sequence, rgb_scene
from repro.kernels.images import test_scene as make_scene


class TestScenes:
    @pytest.mark.parametrize("kind", SCENE_KINDS)
    def test_shape_and_range(self, kind):
        image = make_scene(32, kind, seed=3)
        assert image.shape == (32, 32)
        assert image.dtype == np.int64
        assert image.min() >= 0 and image.max() <= 255

    def test_deterministic(self):
        a = make_scene(32, "mixed", seed=9)
        b = make_scene(32, "mixed", seed=9)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_content(self):
        a = make_scene(32, "shapes", seed=1)
        b = make_scene(32, "shapes", seed=2)
        assert not np.array_equal(a, b)

    def test_gradient_is_smooth(self):
        image = make_scene(32, "gradient")
        dx = np.abs(np.diff(image, axis=1))
        assert dx.max() <= 10

    def test_shapes_have_hard_edges(self):
        image = make_scene(32, "shapes", seed=3)
        dx = np.abs(np.diff(image.astype(int), axis=1))
        assert dx.max() > 50

    def test_mixed_has_nontrivial_dynamic_range(self):
        image = make_scene(64, "mixed")
        assert image.max() - image.min() > 100

    def test_unknown_kind_rejected(self):
        with pytest.raises(KernelError):
            make_scene(32, "fractal")

    def test_size_bounds(self):
        with pytest.raises(KernelError):
            make_scene(4)


class TestFrameSequence:
    def test_count_and_shape(self):
        frames = frame_sequence(5, 32)
        assert len(frames) == 5
        assert all(f.shape == (32, 32) for f in frames)

    def test_object_moves_between_frames(self):
        frames = frame_sequence(3, 32, step=4)
        assert not np.array_equal(frames[0], frames[1])
        # Motion: the frames differ substantially where the object is.
        diff = np.abs(frames[1] - frames[0])
        assert (diff > 30).sum() > 10

    def test_background_mostly_static(self):
        frames = frame_sequence(2, 32, step=2)
        diff = np.abs(frames[1] - frames[0])
        assert np.median(diff) <= 3

    def test_zero_step_keeps_object_still(self):
        frames = frame_sequence(2, 32, step=0)
        diff = np.abs(frames[1] - frames[0])
        assert (diff > 30).sum() == 0

    def test_deterministic(self):
        a = frame_sequence(2, 16, seed=5)
        b = frame_sequence(2, 16, seed=5)
        np.testing.assert_array_equal(a[1], b[1])


class TestRgbScene:
    def test_shape(self):
        image = rgb_scene(32)
        assert image.shape == (32, 32, 3)

    def test_channels_differ(self):
        image = rgb_scene(32)
        assert not np.array_equal(image[..., 0], image[..., 1])

    def test_range(self):
        image = rgb_scene(32)
        assert image.min() >= 0 and image.max() <= 255


class TestPgmIO:
    def test_round_trip(self, tmp_path):
        from repro.kernels.images import load_pgm, save_pgm

        image = make_scene(16, "mixed", seed=3)
        path = tmp_path / "scene.pgm"
        save_pgm(image, path)
        np.testing.assert_array_equal(load_pgm(path), image)

    def test_rejects_rgb(self, tmp_path):
        from repro.kernels.images import save_pgm

        with pytest.raises(KernelError):
            save_pgm(rgb_scene(16), tmp_path / "bad.pgm")

    def test_rejects_non_pgm(self, tmp_path):
        from repro.kernels.images import load_pgm

        path = tmp_path / "not.pgm"
        path.write_bytes(b"JFIF....")
        with pytest.raises(KernelError):
            load_pgm(path)

    def test_values_clipped(self, tmp_path):
        from repro.kernels.images import load_pgm, save_pgm

        image = np.array([[300, -5], [0, 255]])
        path = tmp_path / "clip.pgm"
        save_pgm(image, path)
        out = load_pgm(path)
        assert out.max() == 255 and out.min() == 0

    def test_rejects_truncated(self, tmp_path):
        from repro.kernels.images import load_pgm, save_pgm

        path = tmp_path / "short.pgm"
        save_pgm(make_scene(16, "mixed", seed=3), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(KernelError, match="255 of 256"):
            load_pgm(path)


def test_committed_images_equal_a_fresh_dump(tmp_path):
    """``scripts/make_report.py`` rewrites every committed PGM unchanged."""
    import importlib.util
    import pathlib

    from repro.kernels.images import load_pgm

    root = pathlib.Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location(
        "make_report", root / "scripts" / "make_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.dump_images(tmp_path)
    committed = sorted((root / "benchmarks" / "results" / "images").glob("*.pgm"))
    assert [p.name for p in committed] == sorted(p.name for p in tmp_path.iterdir())
    assert len(committed) == 15
    for path in committed:
        assert load_pgm(path).shape == (64, 64), path.name
        assert path.read_bytes() == (tmp_path / path.name).read_bytes(), path.name
