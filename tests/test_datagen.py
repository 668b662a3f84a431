import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierdro import datagen
from hierdro.datagen import (
    GroupedDataset,
    ShiftSpec,
    apply_shift,
    load_csv,
    make_spurious,
    save_csv,
)
from hierdro.errors import CsvParseError, CsvSchemaError, InvalidDatasetError, ParameterError


CMNIST_LIKE = (4800, 1200, 1200, 4800)


def test_cmnist_like_proportions():
    ds = make_spurious(CMNIST_LIKE, 0.8, 0.5, 0.25, seed=0)
    assert ds.n == 12000
    np.testing.assert_array_equal(ds.n_g, CMNIST_LIKE)
    np.testing.assert_allclose(ds.alpha, np.array(CMNIST_LIKE) / 12000)
    # 8:2 within class 0 and 2:8 within class 1
    assert ds.n_g[0] / (ds.n_g[0] + ds.n_g[1]) == 0.8
    assert ds.n_g[2] / (ds.n_g[2] + ds.n_g[3]) == 0.2


def test_group_index_is_canonical():
    ds = make_spurious((10, 10, 10, 10), 0.5, 0.5, 0.25, seed=3)
    np.testing.assert_array_equal(ds.group_of, ds.labels * 2 + ds.attributes)


def test_noiseless_limit_linearly_separable():
    ds = make_spurious((50, 50, 50, 50), 0.0, 1e-9, 0.0, seed=1)
    signs = np.sign(ds.features[:, 0])
    np.testing.assert_array_equal(signs, 2 * ds.labels - 1)


def test_determinism_byte_identical():
    a = make_spurious((30, 10, 10, 30), 0.6, 0.4, 0.25, seed=42)
    b = make_spurious((30, 10, 10, 30), 0.6, 0.4, 0.25, seed=42)
    assert a == b
    c = make_spurious((30, 10, 10, 30), 0.6, 0.4, 0.25, seed=43)
    assert a != c


def test_generator_rejects_bad_parameters():
    with pytest.raises(InvalidDatasetError):
        make_spurious((10, 0, 10, 10), 0.5, 0.5, 0.1, seed=0)
    with pytest.raises(ParameterError):
        make_spurious((10, 10, 10, 10), 0.5, 0.0, 0.1, seed=0)
    for noise_sd in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="noise_sd"):
            make_spurious((10, 10, 10, 10), 0.5, noise_sd, 0.1, seed=0)
    with pytest.raises(ParameterError):
        make_spurious((10, 10, 10, 10), 1.5, 0.5, 0.1, seed=0)
    with pytest.raises(ParameterError):
        make_spurious((10, 10, 10, 10), 0.5, 0.5, 1.0, seed=0)


def test_group_rows_are_found_once_and_read_only():
    ds = make_spurious((30, 5, 4, 12), 0.5, 0.5, 0.1, seed=4)
    ds = ds.subset(np.flatnonzero(ds.group_of != 2))
    for g in range(ds.num_groups):
        rows = ds.group_rows(g)
        assert rows is ds.group_rows(g)
        np.testing.assert_array_equal(rows, np.flatnonzero(ds.group_of == g))
        assert rows.dtype == np.intp and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[:1] = 0
    assert ds.group_rows(2).size == 0


def test_group_means_are_nan_for_an_absent_group_and_bitwise_the_per_group_mean():
    ds = make_spurious((300, 50, 40, 120), 0.5, 0.5, 0.1, seed=4)
    ds = ds.subset(np.flatnonzero(ds.group_of != 2))
    rng = np.random.default_rng(5)
    correct = rng.random(ds.n) < 0.7
    losses = rng.exponential(size=ds.n)
    acc, mean_loss, means = (ds.group_means(v) for v in (correct, losses, ds.features[:, :2]))
    assert acc.shape == mean_loss.shape == (4,) and means.shape == (4, 2)
    assert np.isnan(acc[2]) and np.isnan(mean_loss[2]) and np.isnan(means[2]).all()
    for g in (0, 1, 3):
        rows = ds.group_rows(g)
        assert acc[g].tobytes() == np.float64(correct[rows].mean()).tobytes()
        assert mean_loss[g].tobytes() == (np.add.reduce(losses[rows]) / rows.size).tobytes()
        assert means[g].tobytes() == ds.features[rows][:, :2].mean(axis=0).tobytes()


def test_flip_probability_changes_core_feature_law():
    ds = make_spurious((20000, 100, 100, 100), 0.0, 0.1, 0.25, seed=9)
    rows = ds.group_rows(0)
    # Group (y=0, a=0): unflipped rows sit near -1 on the core axis, flipped
    # rows near +1; about a quarter should be flipped.
    flipped_fraction = float((ds.features[rows, 0] > 0).mean())
    assert abs(flipped_fraction - 0.25) < 0.02


def test_shift_identity_rotation():
    ds = make_spurious((10, 10, 10, 10), 0.5, 0.5, 0.1, seed=5)
    assert apply_shift(ds, ShiftSpec(target_group=1, kind="rotation", magnitude=0.0)) == ds


def test_shift_quarter_turn():
    ds = GroupedDataset(
        features=np.array([[1.0, 0.0, 3.0], [2.0, 2.0, 2.0]]),
        labels=np.array([0, 1]),
        attributes=np.array([0, 1]),
        num_labels=2,
        num_attributes=2,
    )
    out = apply_shift(ds, ShiftSpec(target_group=0, kind="rotation", magnitude=math.pi / 2))
    np.testing.assert_allclose(out.features[0], [0.0, 1.0, 3.0], atol=1e-15)
    np.testing.assert_array_equal(out.features[1], ds.features[1])


def test_offset_moves_group_mean_by_magnitude():
    ds = make_spurious((40, 40, 40, 40), 0.5, 0.5, 0.1, seed=6)
    magnitude = 1.7
    out = apply_shift(ds, ShiftSpec(target_group=2, kind="offset", magnitude=magnitude))
    rows = ds.group_rows(2)
    before = ds.features[rows].mean(axis=0)
    after = out.features[rows].mean(axis=0)
    assert abs(np.linalg.norm(after - before) - magnitude) < 1e-12
    other = np.setdiff1d(np.arange(ds.n), rows)
    np.testing.assert_array_equal(out.features[other], ds.features[other])


def test_shift_of_an_absent_group_is_an_error():
    ds = GroupedDataset(
        features=np.zeros((3, 4)),
        labels=np.array([0, 0, 1]),
        attributes=np.array([0, 0, 0]),
        num_labels=2,
        num_attributes=2,
    )
    with pytest.raises(ParameterError, match="no rows"):
        apply_shift(ds, ShiftSpec(target_group=1, kind="offset", magnitude=1.0))


def test_shift_spec_validation():
    with pytest.raises(ParameterError):
        ShiftSpec(target_group=0, kind="rotation", magnitude=4.0)
    with pytest.raises(ParameterError):
        ShiftSpec(target_group=0, kind="offset", magnitude=-1.0)
    with pytest.raises(ParameterError):
        ShiftSpec(target_group=0, kind="scale", magnitude=1.0)
    for kind in ("rotation", "offset"):
        for magnitude in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="magnitude"):
                ShiftSpec(target_group=0, kind=kind, magnitude=magnitude)
    ds = make_spurious((5, 5, 5, 5), 0.5, 0.5, 0.1, seed=0)
    with pytest.raises(ParameterError):
        apply_shift(ds, ShiftSpec(target_group=7, kind="offset", magnitude=1.0))


@settings(deadline=None, max_examples=25)
@given(
    kind=st.sampled_from(["rotation", "offset"]),
    magnitude=st.floats(min_value=0.0, max_value=3.0),
    target=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_shift_preserves_group_structure(kind, magnitude, target, seed):
    ds = make_spurious((12, 8, 6, 14), 0.7, 0.3, 0.2, seed=seed)
    shifted = apply_shift(ds, ShiftSpec(target_group=target, kind=kind, magnitude=magnitude))
    assert shifted.n == ds.n
    np.testing.assert_array_equal(shifted.n_g, ds.n_g)
    np.testing.assert_array_equal(shifted.alpha, ds.alpha)
    np.testing.assert_array_equal(shifted.labels, ds.labels)
    np.testing.assert_array_equal(shifted.attributes, ds.attributes)
    np.testing.assert_array_equal(shifted.group_of, ds.group_of)


def test_alpha_always_matches_counts():
    for seed in range(5):
        counts = tuple(int(v) for v in np.random.default_rng(seed).integers(1, 40, size=4))
        ds = make_spurious(counts, 0.5, 0.6, 0.15, seed=seed)
        np.testing.assert_array_equal(ds.n_g, counts)
        np.testing.assert_allclose(ds.alpha, np.array(counts) / sum(counts))


def test_csv_roundtrip_small(tmp_path):
    ds = make_spurious((3, 2, 2, 3), 0.5, 0.5, 0.2, seed=8)
    path = tmp_path / "small.csv"
    save_csv(ds, path)
    assert load_csv(path) == ds


def test_csv_roundtrip_single_row(tmp_path):
    ds = GroupedDataset(
        features=np.array([[0.1234567890123456789, -1e-300, 3e300, 0.0]]),
        labels=np.array([1]),
        attributes=np.array([0]),
        num_labels=2,
        num_attributes=2,
    )
    path = tmp_path / "one.csv"
    save_csv(ds, path)
    loaded = load_csv(path, num_labels=2, num_attributes=2)
    np.testing.assert_array_equal(loaded.features, ds.features)


def test_csv_roundtrip_large_exact(tmp_path):
    ds = make_spurious((4000, 1000, 1000, 4000), 0.8, 0.5, 0.25, seed=11)
    path = tmp_path / "big.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    assert np.max(np.abs(loaded.features - ds.features)) == 0.0
    assert loaded == ds


def test_csv_empty_roundtrip(tmp_path):
    ds = GroupedDataset(
        features=np.zeros((0, 10)),
        labels=np.zeros(0, dtype=np.int64),
        attributes=np.zeros(0, dtype=np.int64),
        num_labels=2,
        num_attributes=2,
    )
    path = tmp_path / "empty.csv"
    save_csv(ds, path)
    assert path.read_text().splitlines() == ["y,a,g," + ",".join(f"x{i}" for i in range(10))]
    loaded = load_csv(path)
    assert loaded.n == 0 and loaded.d == 10


def _save_csv_per_row(ds, path):
    """The per-row writer that ``save_csv`` replaced, kept as its reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["y", "a", "g"] + [f"x{i}" for i in range(ds.d)]) + "\n")
        for i in range(ds.n):
            cells = [str(ds.labels[i]), str(ds.attributes[i]), str(ds.group_of[i])]
            cells.extend("%.17g" % v for v in ds.features[i])
            fh.write(",".join(cells) + "\n")


def _generated_rows(n, seed):
    """A generated split of exactly ``n`` rows over the four groups."""
    q = n // 4
    return make_spurious((q + n % 4, q, q, q), 0.6, 0.5, 0.2, seed=seed)


BLOCK = datagen._CSV_BLOCK_ROWS


@pytest.mark.parametrize("ds", [
    GroupedDataset(np.array([[-0.0, 1e-300, 5e-324, 1e300], [0.0, -1e-300, -5e-324, -1e300],
                             [0.1, 1.0 / 3.0, 2.0 ** 52, -7.0]]),
                   np.array([1, 0, 2]), np.array([0, 2, 1]), 3, 3),
    GroupedDataset(np.zeros((0, 10)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 2, 2),
    make_spurious((40, 10, 9, 40), 0.6, 0.5, 0.2, seed=3),
    _generated_rows(BLOCK - 1, seed=4),
    _generated_rows(BLOCK, seed=5),
    _generated_rows(BLOCK + 1, seed=6),
    _generated_rows(2 * BLOCK + 1, seed=7),
], ids=["extremes", "empty", "generated", "block-minus-1", "block", "block-plus-1",
        "two-blocks-plus-1"])
def test_save_csv_writes_the_per_row_writers_bytes(tmp_path, ds):
    """Byte for byte the reference writer's file, also on either side of a
    block edge, where a row dropped, repeated or reordered would show."""
    save_csv(ds, tmp_path / "new.csv")
    _save_csv_per_row(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# save_csv and split_summary hold one block or one read at a time: measured
# 0.84 and 0.13 MB on 20,000 rows, where holding the split's whole text took
# 15.26 and 4.02 MB.
SPLIT_IO_PEAK_BOUND = 2 * 2 ** 20


def test_save_csv_and_split_summary_run_in_memory_bounded_by_a_block(tmp_path):
    """The peak that ``tracemalloc`` sees in ``save_csv`` and in
    ``split_summary`` on a 20,000-row split stays under 2 MB each; numpy
    reports its buffers to ``tracemalloc``, so the figure does not depend
    on the machine."""
    ds = _generated_rows(20_000, seed=8)
    path = tmp_path / "train.csv"
    peaks = {}
    for name, call in (("save_csv", lambda: save_csv(ds, path)),
                       ("split_summary", lambda: datagen.split_summary(ds, "train.csv", path))):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < SPLIT_IO_PEAK_BOUND for peak in peaks.values()), peaks


def test_csv_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,a,g,x0,x1\n0,0,0,1.0,2.0\n1,0,2,3.0\n")
    with pytest.raises(CsvParseError, match="line 3"):
        load_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "badheader.csv"
    path.write_text("label,a,g,x0\n")
    with pytest.raises(CsvParseError, match="line 1"):
        load_csv(path)


def test_csv_schema_error_on_wrong_group(tmp_path):
    path = tmp_path / "wronggroup.csv"
    path.write_text("y,a,g,x0\n0,1,0,1.0\n1,1,3,1.0\n")
    with pytest.raises(CsvSchemaError, match="line 2"):
        load_csv(path)


@pytest.mark.parametrize("row,counts,message", [
    ("2,0,4,1.0", {"num_labels": 2}, "line 3: label 2 out of range [0, 2)"),
    ("0,2,2,1.0", {"num_attributes": 2}, "line 3: attribute 2 out of range [0, 2)"),
    ("-1,0,-2,1.0", {}, "line 3: label -1 out of range [0, 2)"),
], ids=["label-past-num-labels", "attribute-past-num-attributes", "label-negative"])
def test_csv_names_the_line_of_an_out_of_range_label_or_attribute(tmp_path, row, counts,
                                                                   message):
    """Each bad row's group index fits its label and attribute, so the range
    check, not the group check, must find it, and name its line and value."""
    path = tmp_path / "bad.csv"
    path.write_text(f"y,a,g,x0\n0,1,1,1.0\n{row}\n1,0,2,1.0\n")
    with pytest.raises(CsvParseError) as info:
        load_csv(path, **counts)
    assert str(info.value) == message and info.value.line_number == 3


def test_dataset_validation():
    with pytest.raises(InvalidDatasetError):
        GroupedDataset(np.zeros((2, 3)), np.array([0, 5]), np.array([0, 0]), 2, 2)
    with pytest.raises(InvalidDatasetError):
        GroupedDataset(np.zeros((2, 3)), np.array([0, 1]), np.array([0]), 2, 2)
    with pytest.raises(InvalidDatasetError):
        GroupedDataset(np.array([[np.nan, 0.0]]), np.array([0]), np.array([0]), 2, 2)
