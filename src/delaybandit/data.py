"""Dataset ingestion and the classification-to-bandit context transforms."""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateContextError, FormatError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
MUSHROOM_ATTRIBUTES = 22  # categorical columns after the class in agaricus-lepiota


@dataclass(frozen=True)
class LabeledSample:
    features: np.ndarray
    label: int


def _read_idx_header(buf: bytes, path, expected_magic: int, ndims: int):
    if len(buf) < 4 + 4 * ndims:
        raise FormatError(f"{path}: truncated header at byte {len(buf)}")
    magic = struct.unpack(">i", buf[:4])[0]
    if magic != expected_magic:
        raise FormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{expected_magic:08x}")
    dims = struct.unpack(f">{ndims}i", buf[4:4 + 4 * ndims])
    return dims, 4 + 4 * ndims


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into an (n, rows*cols) float array in [0, 1]."""
    buf = open(path, "rb").read()
    (n, rows, cols), offset = _read_idx_header(buf, path, IDX_MAGIC_IMAGES, 3)
    expected = n * rows * cols
    if len(buf) - offset != expected:
        raise FormatError(
            f"{path}: payload is {len(buf) - offset} bytes at byte {offset}, expected {expected}")
    pixels = np.frombuffer(buf, dtype=np.uint8, offset=offset)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    buf = open(path, "rb").read()
    (n,), offset = _read_idx_header(buf, path, IDX_MAGIC_LABELS, 1)
    if len(buf) - offset != n:
        raise FormatError(
            f"{path}: payload is {len(buf) - offset} bytes at byte {offset}, expected {n}")
    return np.frombuffer(buf, dtype=np.uint8, offset=offset).astype(np.int64)


def load_idx(images_path, labels_path) -> list[LabeledSample]:
    """Load an MNIST-style (images, labels) IDX pair."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels")
    return [LabeledSample(images[i], int(labels[i])) for i in range(images.shape[0])]


def load_mushroom_csv(path) -> list[LabeledSample]:
    """Parse the UCI agaricus-lepiota CSV (23 single-letter fields, no header).

    Field 1 is the class: 'e' -> 0, 'p' -> 1. Each of the 22 categorical
    attributes maps to its alphabetical index within the column's observed
    category set, scaled to [0, 1]; '?' participates like any other letter.
    """
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != MUSHROOM_ATTRIBUTES + 1:
                raise FormatError(f"{path}:{lineno}: {len(fields)} fields, "
                                  f"expected {MUSHROOM_ATTRIBUTES + 1}")
            if fields[0] not in ("e", "p"):
                raise FormatError(f"{path}:{lineno}: unknown class {fields[0]!r}")
            rows.append(fields)
    categories = [sorted({row[col + 1] for row in rows}) for col in range(MUSHROOM_ATTRIBUTES)]
    samples = []
    for row in rows:
        feats = np.empty(MUSHROOM_ATTRIBUTES)
        for col in range(MUSHROOM_ATTRIBUTES):
            cats = categories[col]
            idx = cats.index(row[col + 1])
            feats[col] = idx / (len(cats) - 1) if len(cats) > 1 else 0.0
        samples.append(LabeledSample(feats, 0 if row[0] == "e" else 1))
    return samples


def disjoint_transform(features: np.ndarray, K: int) -> np.ndarray:
    """Embed a d0-vector into K block vectors of dimension d0*K (one per arm)."""
    if K < 2:
        raise ValueError(f"need K >= 2 arms, got {K}")
    d0 = features.shape[0]
    contexts = np.zeros((K, d0 * K))
    for a in range(K):
        contexts[a, a * d0:(a + 1) * d0] = features
    return contexts


def assumption3_embed(context: np.ndarray) -> np.ndarray:
    """Duplicate and normalize so the output has unit norm and equal halves."""
    norm = np.linalg.norm(context)
    if norm == 0.0:
        raise DegenerateContextError("cannot embed a zero context")
    return np.concatenate([context, context]) / (np.sqrt(2.0) * norm)


def synthetic_h(h_id: str, direction: np.ndarray):
    """Mean-reward function handle for synthetic environments, range [0, 1]."""
    a = np.asarray(direction, dtype=np.float64)

    def clip(v):
        return float(np.clip(v, 0.0, 1.0))

    if h_id == "linear":
        return lambda x: clip(x @ a)
    if h_id == "quadratic-clipped":
        return lambda x: clip((x @ a) ** 2)
    if h_id == "cosine-clipped":
        return lambda x: clip((1.0 + np.cos(3.0 * (x @ a))) / 2.0)
    raise ConfigurationError(f"unknown synthetic reward id {h_id!r}")
