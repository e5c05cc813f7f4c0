import gc
import re
import struct
import warnings

import numpy as np
import pytest

from delaybandit import (Dataset, assumption3_embed, disjoint_transform, load_idx,
                         load_mushroom_csv, synthetic_h)
from delaybandit.data import load_idx_images, load_idx_labels
from delaybandit.environment import DatasetSource
from delaybandit.errors import (ConfigurationError, DegenerateContextError,
                                FormatError)


def reference_embedded_disjoint(features, arms):
    """The 4-D block build that DatasetSource._embedded_disjoint replaced."""
    norm = np.linalg.norm(features)
    if norm == 0.0:
        raise DegenerateContextError("cannot embed a zero context")
    d0 = features.shape[0]
    scaled = features / (np.sqrt(2.0) * norm)
    blocks = np.zeros((arms, 2, arms, d0))
    for a in range(arms):
        blocks[a, :, a] = scaled
    return blocks.reshape(arms, 2 * arms * d0)


def reference_mushroom(path):
    """The row-by-row parse that the columnar loader replaced: (features, labels)."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(line.split(","))
    categories = [sorted({row[col + 1] for row in rows}) for col in range(22)]
    features = np.empty((len(rows), 22))
    for i, row in enumerate(rows):
        for col in range(22):
            cats = categories[col]
            idx = cats.index(row[col + 1])
            features[i, col] = idx / (len(cats) - 1) if len(cats) > 1 else 0.0
    labels = np.array([0 if row[0] == "e" else 1 for row in rows], dtype=np.int64)
    return features, labels


def write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, len(labels)))
        fh.write(bytes(labels))


class TestIdx:
    def test_all_zero_image(self, tmp_path):
        img = tmp_path / "imgs"
        lab = tmp_path / "labs"
        write_idx_images(img, np.zeros((1, 28, 28)))
        write_idx_labels(lab, [3])
        ds = load_idx(img, lab)
        assert len(ds.labels) == 1
        assert ds.features[0].shape == (784,)
        assert np.all(ds.features[0] == 0.0)
        assert ds.labels[0] == 3

    def test_pixel_scaling(self, tmp_path):
        img = tmp_path / "imgs"
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        images[0] = 255
        write_idx_images(img, images)
        loaded = load_idx_images(img)
        assert set(np.unique(loaded)) == {0.0, 1.0}

    def test_wrong_magic(self, tmp_path):
        lab = tmp_path / "labs"
        with open(lab, "wb") as fh:
            fh.write(struct.pack(">ii", 0x00000803, 1))
            fh.write(b"\x00")
        with pytest.raises(FormatError, match="magic"):
            load_idx_labels(lab)

    def test_truncated_payload(self, tmp_path):
        img = tmp_path / "imgs"
        with open(img, "wb") as fh:
            fh.write(struct.pack(">iiii", 0x00000803, 2, 2, 2))
            fh.write(b"\x00" * 5)  # needs 8
        with pytest.raises(FormatError, match="byte"):
            load_idx_images(img)

    def test_truncated_header(self, tmp_path):
        img = tmp_path / "imgs"
        img.write_bytes(struct.pack(">iii", 0x00000803, 2, 2))  # rows but no cols
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(img))}: truncated header at byte 12$"):
            load_idx_images(img)

    def test_size_with_the_sign_bit_set(self, tmp_path):
        # read as signed, rows = cols = -1 would make 4 payload bytes 4 images of one pixel
        img = tmp_path / "imgs"
        img.write_bytes(struct.pack(">iiii", 0x00000803, 4, -1, -1) + bytes(4))
        message = f"{img}: payload is 4 bytes at byte 16, expected {4 * (2**32 - 1) ** 2}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_idx_images(img)

    def test_short_label_payload(self, tmp_path):
        lab = tmp_path / "labs"
        lab.write_bytes(struct.pack(">ii", 0x00000801, 3) + bytes([0, 1]))
        message = f"{lab}: payload is 2 bytes at byte 8, expected 3"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_idx_labels(lab)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "imgs"
        lab = tmp_path / "labs"
        write_idx_images(img, np.zeros((2, 2, 2)))
        write_idx_labels(lab, [0, 1, 2])
        with pytest.raises(FormatError, match="labels"):
            load_idx(img, lab)

    def test_round_trip_determinism(self, tmp_path):
        img = tmp_path / "imgs"
        lab = tmp_path / "labs"
        rng = np.random.default_rng(0)
        write_idx_images(img, rng.integers(0, 256, size=(5, 4, 4)))
        write_idx_labels(lab, list(rng.integers(0, 10, size=5)))
        a = load_idx(img, lab)
        b = load_idx(img, lab)
        assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)

    def test_no_images(self, tmp_path):
        img = tmp_path / "imgs"
        lab = tmp_path / "labs"
        write_idx_images(img, np.zeros((0, 28, 28)))
        write_idx_labels(lab, [])
        with pytest.raises(FormatError, match=f"^{re.escape(str(img))}: no data rows$"):
            load_idx(img, lab)

    def test_files_are_closed(self, tmp_path):
        img = tmp_path / "imgs"
        lab = tmp_path / "labs"
        write_idx_images(img, np.zeros((2, 2, 2)))
        write_idx_labels(lab, [0, 1])
        # recorded, not raised: a warning raised in a file's finalizer never reaches the test
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_idx(img, lab)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestMushroom:
    def test_ordinal_scaling(self, tmp_path):
        path = tmp_path / "shrooms.csv"
        lines = ["e," + "a," * 21 + x for x in "abc"]
        path.write_text("\n".join(lines) + "\n")
        ds = load_mushroom_csv(path)
        last = list(ds.features[:, 21])
        assert last == pytest.approx([0.0, 0.5, 1.0])

    def test_class_labels(self, tmp_path):
        path = tmp_path / "shrooms.csv"
        path.write_text("e," + ",".join(["a"] * 22) + "\n"
                        "p," + ",".join(["a"] * 22) + "\n")
        ds = load_mushroom_csv(path)
        assert list(ds.labels) == [0, 1]
        assert ds.features[0].shape == (22,)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("e," + ",".join(["a"] * 21) + "\n")
        with pytest.raises(FormatError, match=":1"):
            load_mushroom_csv(path)

    def test_surrogate_fixture_loads(self, mushroom_csv):
        ds = load_mushroom_csv(mushroom_csv)
        assert len(ds.labels) > 100
        labels = set(ds.labels)
        assert labels == {0, 1}
        feats = ds.features
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_surrogate_matches_reference(self, mushroom_csv):
        ds = load_mushroom_csv(mushroom_csv)
        features, labels = reference_mushroom(mushroom_csv)
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)

    def test_odd_but_valid_file_matches_reference(self, tmp_path):
        # '?' categories, CRLF endings, blank lines, and a column with one category
        rng = np.random.default_rng(5)
        lines = []
        for i in range(40):
            attrs = ["?" if rng.random() < 0.2 else "abcdz"[rng.integers(5)]
                     for _ in range(22)]
            attrs[7] = "k"
            lines.append(",".join(["ep"[i % 2]] + attrs))
            if i % 9 == 0:
                lines.append("")
        path = tmp_path / "odd.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode("ascii"))
        ds = load_mushroom_csv(path)
        features, labels = reference_mushroom(path)
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)
        assert np.all(ds.features[:, 7] == 0.0)

    ROW = "e," + ",".join(["a"] * 22)

    @pytest.mark.parametrize("bad,message", [
        ("e," + ",".join(["a"] * 23), "24 fields, expected 23"),
        ("x," + ",".join(["a"] * 22), "unknown class 'x'"),
        ("e,a,bb," + ",".join(["a"] * 20), "field 3 is 'bb', expected a single character"),
        ("e,a,," + ",".join(["a"] * 20), "field 3 is '', expected a single character"),
        ("e,a,,," + ",".join(["a"] * 20), "24 fields, expected 23"),
        ("e,a,\u00e9," + ",".join(["a"] * 20), "non-ASCII byte 0xc3 at column 5"),
    ], ids=["field-count", "unknown-class", "multi-character", "empty-field",
          "comma-as-field", "non-ascii"])
    def test_malformed_line_names_its_number(self, tmp_path, bad, message):
        # the line number counts the blank line
        path = tmp_path / "bad.csv"
        path.write_bytes(f"{self.ROW}\n\n{bad}\n{self.ROW}\n".encode("utf-8"))
        with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            load_mushroom_csv(path)

    @pytest.mark.parametrize("text", ["", "\n", "\r\n  \n"], ids=["empty", "newline", "blank"])
    def test_no_data_rows(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: no data rows$"):
            load_mushroom_csv(path)


class TestTransforms:
    def test_disjoint_needs_two_arms(self):
        with pytest.raises(ValueError, match="^need K >= 2 arms, got 1$"):
            disjoint_transform(np.array([0.5, 0.5]), 1)

    def test_disjoint_block_placement(self):
        x = np.array([0.5, 0.5])
        ctx = disjoint_transform(x, 3)
        assert ctx.shape == (3, 6)
        assert ctx[1] == pytest.approx([0, 0, 0.5, 0.5, 0, 0])

    def test_block_norms(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(7)
        ctx = disjoint_transform(x, 4)
        for a in range(4):
            nonzero = np.nonzero(ctx[a])[0]
            assert np.all((nonzero >= a * 7) & (nonzero < (a + 1) * 7))
        assert np.sum(ctx ** 2) == pytest.approx(4 * float(x @ x))

    def test_mnist_scale_dims(self):
        ctx = disjoint_transform(np.ones(784), 10)
        assert ctx.shape == (10, 7840)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(5)
        assert np.allclose(disjoint_transform(2.5 * x, 3),
                           2.5 * disjoint_transform(x, 3))

    def test_assumption3_embed_values(self):
        out = assumption3_embed(np.array([3.0, 4.0]))
        expected = np.array([3, 4, 3, 4]) / (np.sqrt(2) * 5)
        assert out == pytest.approx(expected)

    def test_assumption3_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(6)
            out = assumption3_embed(x)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(out[:6] - out[6:])) <= 1e-12

    def test_zero_context_rejected(self):
        with pytest.raises(DegenerateContextError):
            assumption3_embed(np.zeros(4))


class TestSyntheticH:
    def test_linear(self):
        h = synthetic_h("linear", np.array([1.0, 0.0]))
        assert h(np.array([1.0, 0.0])) == 1.0

    def test_quadratic_orthogonal(self):
        h = synthetic_h("quadratic-clipped", np.array([1.0, 0.0]))
        assert h(np.array([0.0, 1.0])) == 0.0

    def test_cosine_at_zero(self):
        h = synthetic_h("cosine-clipped", np.array([1.0, 0.0]))
        assert h(np.array([0.0, 1.0])) == 1.0

    def test_range_clipped(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(4)
        for name in ("linear", "quadratic-clipped", "cosine-clipped"):
            h = synthetic_h(name, a)
            vals = [h(3 * rng.standard_normal(4)) for _ in range(50)]
            assert min(vals) >= 0.0 and max(vals) <= 1.0

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            synthetic_h("cubic", np.ones(2))


class TestDatasetSourceContexts:
    @pytest.mark.parametrize("arms", [2, 3])
    def test_embedded_rows_match_per_arm_transforms(self, mushroom_csv, arms):
        ds = load_mushroom_csv(mushroom_csv)
        source = DatasetSource(ds, arms, np.random.default_rng(0), embed=True)
        for t in range(1, len(ds.labels) + 1):
            contexts, _ = source.round_data(t)
            features = ds.features[source.order[t - 1]]
            assert np.array_equal(contexts, reference_embedded_disjoint(features, arms))
            expected = np.stack([assumption3_embed(x)
                                 for x in disjoint_transform(features, arms)])
            assert contexts.shape == expected.shape
            assert np.array_equal(contexts == 0.0, expected == 0.0)
            # the per-arm norms sum the same squares in different orders, so
            # they differ from the shared norm, and from each other, by a few ulp
            np.testing.assert_array_max_ulp(contexts, expected, maxulp=4)

    def test_zero_features_rejected(self):
        ds = Dataset(np.zeros((1, 3)), np.array([0]))
        source = DatasetSource(ds, 2, np.random.default_rng(0), embed=True)
        with pytest.raises(DegenerateContextError):
            source.round_data(1)
        with pytest.raises(DegenerateContextError):
            reference_embedded_disjoint(ds.features[0], 2)

    def test_label_without_an_arm_rejected(self):
        ds = Dataset(np.ones((3, 2)), np.array([0, 2, 1]))
        with pytest.raises(ConfigurationError, match="dataset label 2 has no arm"):
            DatasetSource(ds, 2, np.random.default_rng(0))
