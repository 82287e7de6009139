"""Deterministic synthetic test scenes.

The paper's camera frames are not available, so quality experiments run
on synthetic scenes with realistic spatial structure: smooth gradients
(flat regions), geometric shapes (edges and corners for sobel/SUSAN),
band-limited texture, and frame sequences with a moving object (for
JPEG motion estimation and the incidental frame buffer). All scenes are
seeded and therefore exactly reproducible.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .._validation import check_choice, check_int_in_range
from ..errors import KernelError

__all__ = [
    "SCENE_KINDS",
    "test_scene",
    "frame_sequence",
    "rgb_scene",
    "save_pgm",
    "load_pgm",
]

#: Available scene kinds.
SCENE_KINDS: Tuple[str, ...] = ("gradient", "shapes", "texture", "mixed")


def _smooth_noise(shape: Tuple[int, int], rng: np.random.Generator, scale: int) -> np.ndarray:
    """Band-limited noise: white noise box-blurred ``scale`` times."""
    noise = rng.normal(0.0, 1.0, size=shape)
    for _ in range(scale):
        noise = (
            noise
            + np.roll(noise, 1, axis=0)
            + np.roll(noise, -1, axis=0)
            + np.roll(noise, 1, axis=1)
            + np.roll(noise, -1, axis=1)
        ) / 5.0
    span = noise.max() - noise.min()
    if span <= 0.0:
        return np.zeros(shape)
    return (noise - noise.min()) / span


def _gradient(shape: Tuple[int, int]) -> np.ndarray:
    """A diagonal illumination gradient in [0, 1]."""
    rows = np.linspace(0.0, 1.0, shape[0])[:, None]
    cols = np.linspace(0.0, 1.0, shape[1])[None, :]
    return 0.6 * rows + 0.4 * cols


def _shapes(shape: Tuple[int, int], rng: np.random.Generator, n_shapes: int = 6) -> np.ndarray:
    """Random bright rectangles and disks on a dark field, in [0, 1]."""
    canvas = np.zeros(shape)
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(n_shapes):
        level = rng.uniform(0.35, 1.0)
        if rng.random() < 0.5:
            r0, c0 = rng.integers(0, h - 2), rng.integers(0, w - 2)
            r1 = rng.integers(r0 + 1, min(h, r0 + max(2, h // 3)))
            c1 = rng.integers(c0 + 1, min(w, c0 + max(2, w // 3)))
            canvas[r0:r1, c0:c1] = level
        else:
            cy, cx = rng.integers(0, h), rng.integers(0, w)
            radius = rng.integers(2, max(3, min(h, w) // 5))
            disk = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2
            canvas[disk] = level
    return canvas


def test_scene(size: int = 64, kind: str = "mixed", seed: int = 7) -> np.ndarray:
    """Generate a ``size`` x ``size`` grayscale scene in [0, 255].

    Parameters
    ----------
    kind:
        ``"gradient"`` — smooth only; ``"shapes"`` — hard edges;
        ``"texture"`` — band-limited noise; ``"mixed"`` — all three
        (the default used across the quality experiments).
    """
    size = check_int_in_range(size, "size", 8, 4096, exc=KernelError)
    kind = check_choice(kind, "kind", SCENE_KINDS, exc=KernelError)
    rng = np.random.default_rng(seed)
    shape = (size, size)
    if kind == "gradient":
        field = _gradient(shape)
    elif kind == "shapes":
        field = 0.15 + 0.85 * _shapes(shape, rng)
    elif kind == "texture":
        field = _smooth_noise(shape, rng, scale=3)
    else:  # mixed
        field = (
            0.45 * _gradient(shape)
            + 0.40 * _shapes(shape, rng)
            + 0.15 * _smooth_noise(shape, rng, scale=2)
        )
    return np.clip(np.round(field * 255.0), 0, 255).astype(np.int64)


def frame_sequence(
    n_frames: int, size: int = 64, seed: int = 7, step: int = 2
) -> List[np.ndarray]:
    """A buffered frame sequence with a moving object.

    Produces what the paper's frame buffer holds: consecutive sensor
    frames with no data dependence between them — a static background
    plus a bright square translating ``step`` pixels per frame and mild
    per-frame sensor noise. Used by JPEG motion estimation and by the
    incidental executive's roll-forward experiments.
    """
    n_frames = check_int_in_range(n_frames, "n_frames", 1, 10_000, exc=KernelError)
    size = check_int_in_range(size, "size", 8, 4096, exc=KernelError)
    step = check_int_in_range(step, "step", 0, size, exc=KernelError)
    rng = np.random.default_rng(seed)
    background = (
        0.55 * _gradient((size, size)) + 0.45 * _smooth_noise((size, size), rng, scale=3)
    )
    side = max(4, size // 6)
    frames = []
    for k in range(n_frames):
        frame = background.copy()
        top = (5 + k * step) % (size - side)
        left = (9 + k * step) % (size - side)
        frame[top : top + side, left : left + side] = 0.95
        sensor_noise = rng.normal(0.0, 0.008, size=frame.shape)
        frame = np.clip(frame + sensor_noise, 0.0, 1.0)
        frames.append(np.round(frame * 255.0).astype(np.int64))
    return frames


def rgb_scene(size: int = 64, seed: int = 7) -> np.ndarray:
    """A ``size`` x ``size`` x 3 RGB scene in [0, 255] (for tiff2bw)."""
    size = check_int_in_range(size, "size", 8, 4096, exc=KernelError)
    rng = np.random.default_rng(seed)
    shape = (size, size)
    channels = [
        0.5 * _gradient(shape) + 0.5 * _shapes(shape, rng),
        0.6 * _smooth_noise(shape, rng, scale=2) + 0.4 * _gradient(shape)[::-1],
        0.5 * _shapes(shape, rng) + 0.5 * _smooth_noise(shape, rng, scale=3),
    ]
    stacked = np.stack(channels, axis=-1)
    return np.clip(np.round(stacked * 255.0), 0, 255).astype(np.int64)


def save_pgm(image: np.ndarray, path) -> None:
    """Write a grayscale image as a binary PGM (P5) file.

    The paper's Figures 11/13/17/26 are visual outputs; this lets
    ``scripts/make_report.py`` archive inspectable equivalents without
    any plotting dependency.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise KernelError(f"PGM needs a 2-D grayscale image, got {image.shape}")
    clipped = np.clip(image, 0, 255).astype(np.uint8)
    header = f"P5\n{clipped.shape[1]} {clipped.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(clipped.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read back a binary PGM (P5) written by :func:`save_pgm`."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(b"P5"):
        raise KernelError(f"{path!r} is not a binary PGM file")
    parts = data.split(b"\n", 3)
    if len(parts) < 4:
        raise KernelError(f"{path!r} has a malformed PGM header")
    width, height = (int(v) for v in parts[1].split())
    if len(parts[3]) < width * height:
        raise KernelError(
            f"{path!r} is truncated: {len(parts[3])} of {width * height} pixel bytes"
        )
    pixels = np.frombuffer(parts[3][: width * height], dtype=np.uint8)
    return pixels.reshape(height, width).astype(np.int64)
