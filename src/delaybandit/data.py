"""Dataset ingestion and the classification-to-bandit context transforms.

A loaded dataset is one ``Dataset``: the file's one-byte codes (a pixel or a
categorical letter) as an (n, d) uint8 matrix, a (d, 256) float64 table of the
value each code stands for in each column, and an (n,) int64 label vector.
Feature j of sample i is ``levels[j, codes[i, j]]``, so a sample costs d bytes
and 8 for its label, and no n x d float matrix is built: ``Dataset.features``
decodes the rows asked for. Both loaders raise ``FormatError`` for a file with
no data rows (a mushroom CSV of blank lines, an IDX pair of 0 images);
``environment.DatasetSource`` raises ``ConfigurationError`` for a label that
is not an arm.

The mushroom CSV holds 23 single-character ASCII fields per line, separated
by commas, with no header. Blank lines are skipped; a line of any other shape
raises ``FormatError`` naming ``path:lineno``.
"""

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import ConfigurationError, DegenerateContextError, FormatError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
MUSHROOM_ATTRIBUTES = 22  # categorical columns after the class in agaricus-lepiota
_MUSHROOM_LINE_BYTES = 2 * MUSHROOM_ATTRIBUTES + 1  # 23 one-byte fields and 22 commas
_MUSHROOM_COMMAS = b"," * MUSHROOM_ATTRIBUTES

# where a run's contexts come from: generated, or one of the datasets loaded here
Source = Literal["synthetic", "mushroom", "mnist"]
SyntheticH = Literal["linear", "quadratic-clipped", "cosine-clipped"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """n labeled samples as byte codes: ``codes`` (n, d) uint8, ``levels``
    (d, 256) float64, where feature j of a sample with code c is levels[j, c],
    and ``labels`` (n,) int64. A Dataset compares and hashes by identity: an
    array comparison has no single truth value."""

    codes: np.ndarray
    levels: np.ndarray
    labels: np.ndarray

    @cached_property
    def _offsets(self) -> np.ndarray:
        """256 j for each column j: where column j starts in the flattened table.
        Built at the first decode, so a Dataset pickled before it, as ``run
        --jobs`` sends one, does not carry it."""
        return np.arange(0, 256 * self.codes.shape[1], 256)

    def features(self, rows) -> np.ndarray:
        """The float64 features of ``rows`` (an index, a slice or an index array),
        one gather from the flattened table: feature j of code c is entry 256 j + c."""
        return self.levels.ravel().take(self._offsets + self.codes[rows])


def _read_idx(path, expected_magic: int, ndims: int):
    """The ndims header dims of an IDX file and its uint8 payload, which must
    hold exactly the product of the dims in bytes."""
    buf = Path(path).read_bytes()
    offset = 4 + 4 * ndims
    if len(buf) < offset:
        raise FormatError(f"{path}: truncated header at byte {len(buf)}")
    magic = struct.unpack(">i", buf[:4])[0]
    if magic != expected_magic:
        raise FormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{expected_magic:08x}")
    dims = struct.unpack(f">{ndims}I", buf[4:offset])  # unsigned: a size is never negative
    expected = math.prod(dims)
    if len(buf) - offset != expected:
        raise FormatError(
            f"{path}: payload is {len(buf) - offset} bytes at byte {offset}, expected {expected}")
    return dims, np.frombuffer(buf, dtype=np.uint8, offset=offset)


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into its (n, rows*cols) uint8 pixels, a view of
    the file's bytes."""
    (n, rows, cols), pixels = _read_idx(path, IDX_MAGIC_IMAGES, 3)
    return pixels.reshape(n, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    _, labels = _read_idx(path, IDX_MAGIC_LABELS, 1)
    return labels.astype(np.int64)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-style (images, labels) IDX pair; pixel byte k reads k / 255."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels")
    if images.shape[0] == 0:
        raise FormatError(f"{images_path}: no data rows")
    levels = np.tile(np.arange(256) / 255.0, (images.shape[1], 1))
    return Dataset(images, levels, labels)


def _mushroom_line_error(line: bytes) -> str:
    """Why a stripped, nonblank CSV line that failed the row check is not a row."""
    if not line.isascii():
        col = next(i for i, byte in enumerate(line) if byte > 0x7F)
        return f"non-ASCII byte 0x{line[col]:02x} at column {col + 1}"
    fields = line.split(b",")
    if len(fields) != MUSHROOM_ATTRIBUTES + 1:
        return f"{len(fields)} fields, expected {MUSHROOM_ATTRIBUTES + 1}"
    for k, field in enumerate(fields, start=1):
        if len(field) != 1:
            return f"field {k} is {field.decode()!r}, expected a single character"
    return f"unknown class {fields[0].decode()!r}"


def load_mushroom_csv(path) -> Dataset:
    """Parse the UCI agaricus-lepiota CSV (23 single-character fields, no header).

    Field 1 is the class: 'e' -> 0, 'p' -> 1. Each of the 22 categorical
    attributes maps to its alphabetical index within the column's observed
    category set, scaled to [0, 1]; '?' participates like any other character.
    The codes are the attribute letters' bytes, and levels row j maps each byte
    to its scaled index in column j.
    """
    rows = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not (len(line) == _MUSHROOM_LINE_BYTES and line[1::2] == _MUSHROOM_COMMAS
                    and line.count(b",") == MUSHROOM_ATTRIBUTES and line.isascii()
                    and line[0] in b"ep"):
                raise FormatError(f"{path}:{lineno}: {_mushroom_line_error(line)}")
            rows.append(line)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    # every row is 45 bytes, so the rows read as one grid; field c is byte column 2c
    grid = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1)
    attrs = grid[:, 2::2]
    columns = np.arange(MUSHROOM_ATTRIBUTES)
    seen = np.zeros((MUSHROOM_ATTRIBUTES, 256), dtype=bool)
    seen[columns, attrs] = True
    # a byte's rank among the bytes its column holds is its alphabetical index,
    # scaled by (categories - 1); a column of one category reads 0 / 1 = 0.0
    scaled = (np.cumsum(seen, axis=1) - 1) / np.maximum(seen.sum(axis=1, keepdims=True) - 1, 1)
    labels = (grid[:, 0] == ord("p")).astype(np.int64)
    return Dataset(np.ascontiguousarray(attrs), scaled, labels)


def disjoint_transform(features: np.ndarray, K: int) -> np.ndarray:
    """Embed a d0-vector into K block vectors of dimension d0*K (one per arm):
    row a holds the features in block a.

    ``features`` may also be the (h, d0) halves of a vector: row a of the
    (K, h*K*d0) result holds half j in block j*K + a. On the halves of
    ``assumption3_embed(x)``, row a is the embedding of row a of
    ``disjoint_transform(x, K)``, normalised by the norm of x.
    """
    if K < 2:
        raise ValueError(f"need K >= 2 arms, got {K}")
    halves = features.reshape(-1, features.shape[-1])  # a d0-vector is one half
    h, d0 = halves.shape
    blocks = np.zeros((K, h, K, d0))
    for a in range(K):
        blocks[a, :, a] = halves
    return blocks.reshape(K, h * K * d0)


def assumption3_embed(context: np.ndarray) -> np.ndarray:
    """Duplicate and normalize so the output has unit norm and equal halves."""
    norm = math.sqrt(context.dot(context))  # np.linalg.norm's sum, without its checks
    if norm == 0.0:
        raise DegenerateContextError("cannot embed a zero context")
    return np.concatenate([context, context]) / (math.sqrt(2.0) * norm)


def synthetic_h(h_id: SyntheticH, direction: np.ndarray):
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
