"""Synthetic grouped datasets with controllable spurious correlation.

Conventions used throughout the package:

* An example is a triple ``(x, y, a)`` of features, label and spurious
  attribute.  Groups are (label, attribute) pairs with the canonical index
  ``g = y * A + a`` where ``A`` is the number of attribute values.
* The default generator works in ``d = 10`` dimensions.  Coordinate 0 carries
  the class signal (``core``), coordinate 1 carries the spurious attribute
  signal, the remaining coordinates are pure noise.  Distribution shifts
  rotate coordinates (0, 1) or translate along coordinate 1.
* CSV interchange uses the header ``y,a,g,x0,...,x{d-1}`` and ``%.17g`` float
  formatting, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, CsvSchemaError, InvalidDatasetError, ParameterError

FEATURE_DIM = 10
CORE_AXIS = 0
SPURIOUS_AXIS = 1
ROTATION_AXES = (0, 1)
# Offsets displace a group along the spurious axis: the analog of an
# attribute-expression drift within a group.
OFFSET_AXIS = 1

CSV_FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True, eq=False)
class GroupedDataset:
    """Feature matrix plus labels, attributes and derived group bookkeeping.

    ``group_of``, ``n_g`` and ``alpha`` are derived from (labels, attributes)
    at construction time and always satisfy ``alpha = n_g / n`` (``alpha`` is
    all zeros for an empty dataset).
    """

    features: np.ndarray
    labels: np.ndarray
    attributes: np.ndarray
    num_labels: int
    num_attributes: int
    group_of: np.ndarray = dataclasses.field(init=False)
    n_g: np.ndarray = dataclasses.field(init=False)
    alpha: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        attributes = np.asarray(self.attributes, dtype=np.int64)
        if features.ndim != 2:
            raise InvalidDatasetError("features must be a 2-D matrix")
        n = features.shape[0]
        if labels.shape != (n,) or attributes.shape != (n,):
            raise InvalidDatasetError("labels/attributes must have one entry per row")
        if self.num_labels < 1 or self.num_attributes < 1:
            raise InvalidDatasetError("need at least one label and one attribute value")
        if n and not np.all(np.isfinite(features)):
            raise InvalidDatasetError("features contain non-finite values")
        if n and (labels.min() < 0 or labels.max() >= self.num_labels):
            raise InvalidDatasetError("label out of range")
        if n and (attributes.min() < 0 or attributes.max() >= self.num_attributes):
            raise InvalidDatasetError("attribute out of range")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "attributes", attributes)
        group_of = labels * self.num_attributes + attributes
        n_g = np.bincount(group_of, minlength=self.num_groups).astype(np.int64)
        alpha = n_g / n if n else np.zeros(self.num_groups)
        object.__setattr__(self, "group_of", group_of)
        object.__setattr__(self, "n_g", n_g)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def num_groups(self) -> int:
        return self.num_labels * self.num_attributes

    def group_rows(self, g: int) -> np.ndarray:
        return np.flatnonzero(self.group_of == g)

    def subset(self, rows) -> "GroupedDataset":
        rows = np.asarray(rows, dtype=np.int64)
        return GroupedDataset(
            features=self.features[rows],
            labels=self.labels[rows],
            attributes=self.attributes[rows],
            num_labels=self.num_labels,
            num_attributes=self.num_attributes,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupedDataset):
            return NotImplemented
        return (
            self.num_labels == other.num_labels
            and self.num_attributes == other.num_attributes
            and self.features.shape == other.features.shape
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.attributes, other.attributes)
        )


@dataclass(frozen=True)
class ShiftSpec:
    """A conditional-distribution shift applied to one group.

    ``rotation`` rotates coordinates (0, 1) by ``magnitude`` radians;
    ``offset`` translates the group by ``magnitude`` along coordinate 1.
    ``applies_to`` records which split the shift targets when a spec is part
    of an experiment config; :func:`apply_shift` itself acts on whatever
    dataset it is given.
    """

    target_group: int
    kind: str
    magnitude: float
    applies_to: str = "test"

    def __post_init__(self):
        if self.kind not in ("rotation", "offset"):
            raise ParameterError(f"unknown shift kind {self.kind!r}")
        if self.applies_to not in ("train", "test"):
            raise ParameterError(f"applies_to must be 'train' or 'test', got {self.applies_to!r}")
        if self.target_group < 0:
            raise ParameterError("target_group must be nonnegative")
        if self.kind == "rotation" and not (-math.pi < self.magnitude <= math.pi):
            raise ParameterError("rotation magnitude must lie in (-pi, pi]")
        if self.kind == "offset" and self.magnitude < 0:
            raise ParameterError("offset magnitude must be nonnegative")


@dataclass(frozen=True)
class ShiftResult:
    dataset: GroupedDataset
    applied: bool
    rows_changed: int
    warning: str | None = None


def make_spurious(
    n_per_group,
    spurious_strength: float,
    noise_sd: float,
    label_flip_p: float,
    seed: int,
) -> GroupedDataset:
    """Generate the four-group spurious-correlation dataset.

    Every group ``g = (y, a)`` receives exactly ``n_per_group[g]`` rows, so
    the returned ``alpha`` reproduces the requested proportions.  A row's
    features are ``e0 * (2c - 1) + spurious_strength * e1 * (2a - 1)`` plus
    isotropic Gaussian noise, where the core label ``c`` equals ``y`` except
    with probability ``label_flip_p``, in which case ``c = 1 - y``: the row's
    observed label is a flipped version of the label that generated its
    features, so label noise leaves group counts exact while flipped rows
    carry the opposite class's feature law.
    """
    n_per_group = tuple(int(v) for v in n_per_group)
    if len(n_per_group) != 4:
        raise ParameterError("n_per_group must have 4 entries (two labels x two attributes)")
    if any(v <= 0 for v in n_per_group):
        raise InvalidDatasetError("every group needs at least one sample")
    if noise_sd <= 0:
        raise ParameterError("noise_sd must be positive")
    if not 0.0 <= spurious_strength <= 1.0:
        raise ParameterError("spurious_strength must lie in [0, 1]")
    if not 0.0 <= label_flip_p < 1.0:
        raise ParameterError("label_flip_p must lie in [0, 1)")

    rng = np.random.default_rng(seed)
    num_labels = num_attributes = 2
    blocks = []
    for y in range(num_labels):
        for a in range(num_attributes):
            count = n_per_group[y * num_attributes + a]
            flipped = rng.random(count) < label_flip_p
            core = np.where(flipped, 1 - y, y)
            x = rng.normal(0.0, noise_sd, size=(count, FEATURE_DIM))
            x[:, CORE_AXIS] += 2.0 * core - 1.0
            x[:, SPURIOUS_AXIS] += spurious_strength * (2.0 * a - 1.0)
            blocks.append((x, np.full(count, y), np.full(count, a)))
    features = np.concatenate([b[0] for b in blocks])
    labels = np.concatenate([b[1] for b in blocks])
    attributes = np.concatenate([b[2] for b in blocks])
    return GroupedDataset(features, labels, attributes, num_labels, num_attributes)


def apply_shift(ds: GroupedDataset, spec: ShiftSpec) -> ShiftResult:
    """Transform rows of ``spec.target_group``; all other rows are untouched.

    A target group absent from the dataset is a no-op flagged through
    ``ShiftResult.warning``.
    """
    if spec.target_group >= ds.num_groups:
        raise ParameterError(
            f"target_group {spec.target_group} out of range for {ds.num_groups} groups"
        )
    rows = ds.group_rows(spec.target_group)
    if rows.size == 0:
        return ShiftResult(ds, applied=False, rows_changed=0,
                           warning=f"group {spec.target_group} absent; shift skipped")
    features = ds.features.copy()
    if spec.kind == "rotation":
        i, j = ROTATION_AXES
        c, s = math.cos(spec.magnitude), math.sin(spec.magnitude)
        xi = features[rows, i]
        xj = features[rows, j]
        features[rows, i] = c * xi - s * xj
        features[rows, j] = s * xi + c * xj
    else:
        features[rows, OFFSET_AXIS] += spec.magnitude
    shifted = GroupedDataset(features, ds.labels.copy(), ds.attributes.copy(),
                             ds.num_labels, ds.num_attributes)
    return ShiftResult(shifted, applied=True, rows_changed=int(rows.size))


def _expected_header(d: int) -> list[str]:
    return ["y", "a", "g"] + [f"x{i}" for i in range(d)]


def save_csv(ds: GroupedDataset, path) -> None:
    """Write the dataset with header ``y,a,g,x0..x{d-1}``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_expected_header(ds.d)) + "\n")
        for i in range(ds.n):
            cells = [str(ds.labels[i]), str(ds.attributes[i]), str(ds.group_of[i])]
            cells.extend(CSV_FLOAT_FORMAT % v for v in ds.features[i])
            fh.write(",".join(cells) + "\n")


def load_csv(path, num_labels: int | None = None, num_attributes: int | None = None) -> GroupedDataset:
    """Load a dataset written by :func:`save_csv`.

    ``num_labels`` / ``num_attributes`` default to the maxima observed in the
    file plus one (and to 2 for an empty file); pass them explicitly when a
    label or attribute value may be entirely absent.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvParseError("empty file, expected a header row", 1)
    header = lines[0].split(",")
    if header[:3] != ["y", "a", "g"] or any(
        col != f"x{i}" for i, col in enumerate(header[3:])
    ) or len(header) < 4:
        raise CsvParseError(f"bad header {lines[0]!r}", 1)
    d = len(header) - 3

    ys, a_s, gs, xs = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise CsvParseError("blank line", lineno)
        cells = line.split(",")
        if len(cells) != len(header):
            raise CsvParseError(
                f"expected {len(header)} columns, found {len(cells)}", lineno
            )
        try:
            ys.append(int(cells[0]))
            a_s.append(int(cells[1]))
            gs.append(int(cells[2]))
            xs.append([float(v) for v in cells[3:]])
        except ValueError as exc:
            raise CsvParseError(str(exc), lineno) from exc

    n = len(ys)
    if n == 0:
        return GroupedDataset(
            np.zeros((0, d)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            num_labels or 2, num_attributes or 2,
        )
    labels = np.asarray(ys, dtype=np.int64)
    attributes = np.asarray(a_s, dtype=np.int64)
    groups = np.asarray(gs, dtype=np.int64)
    k = num_labels if num_labels is not None else int(labels.max()) + 1
    a_count = num_attributes if num_attributes is not None else int(attributes.max()) + 1
    expected = labels * a_count + attributes
    bad = np.flatnonzero(groups != expected)
    if bad.size:
        row = int(bad[0])
        raise CsvSchemaError(
            f"line {row + 2}: group index {groups[row]} does not match "
            f"(y={labels[row]}, a={attributes[row]}) under {a_count} attribute values"
        )
    if groups.max() >= k * a_count:
        raise CsvSchemaError("group index out of range")
    return GroupedDataset(np.asarray(xs), labels, attributes, k, a_count)


def generator_manifest(params: dict, splits: dict, shifts: list) -> dict:
    """Manifest recorded beside generated CSVs.

    ``splits`` maps split name to a dict with the file name, sha256 of the
    file body, per-group sizes, and per-group means of the (core, spurious)
    coordinates, which is enough to verify shifts without reloading data.
    """
    return {
        "generator": dict(params),
        "splits": splits,
        "shifts": [dataclasses.asdict(s) for s in shifts],
        "format": {
            "float_format": CSV_FLOAT_FORMAT,
            "rotation_axes": list(ROTATION_AXES),
            "offset_axis": OFFSET_AXIS,
            "group_index": "y * num_attributes + a",
            "note": "rotation/offset shifts are feature-space stand-ins for "
                    "image-level group shifts; see README",
        },
    }


def split_summary(ds: GroupedDataset, filename: str, path) -> dict:
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    means = {}
    for g in range(ds.num_groups):
        rows = ds.group_rows(g)
        if rows.size:
            means[str(g)] = [float(v) for v in ds.features[rows][:, :2].mean(axis=0)]
    return {
        "file": filename,
        "sha256": digest,
        "n_g": [int(v) for v in ds.n_g],
        "group_means_01": means,
    }


def config_hash(config: dict) -> str:
    """Stable short hash of a JSON-serializable configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
