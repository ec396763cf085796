"""Heterogeneous spatial label sets, the region-wise sparsity protocol, and a
synthetic scene generator for desk-scale experiments.

A label map is an H x W x C_k value grid plus an H x W presence mask.  A
pixel whose mask bit is 0 carries no information: its values are treated as
the zero vector everywhere downstream.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .tensor_core import Rng, load_tensor, read_json, save_tensor, write_json

DISCRETE = "discrete"
CONTINUOUS = "continuous"

# A label name becomes a file stem (``<name>.values.tlt``, ``proj.<name>.A.tlt``):
# the whole name must match, so it is non-empty and holds no '/' or '\'.
FILE_STEM = re.compile(r"[^/\\]+")


@dataclass
class LabelMap:
    """One spatial label: values H x W x C (float32), mask H x W (uint8)."""

    name: str
    kind: str
    values: np.ndarray
    mask: np.ndarray

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass
class LabelSet:
    """An ordered collection of label maps sharing spatial dimensions."""

    labels: list[LabelMap]

    @property
    def height(self) -> int:
        return self.labels[0].height

    @property
    def width(self) -> int:
        return self.labels[0].width

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def by_name(self, name: str) -> LabelMap:
        for lab in self.labels:
            if lab.name == name:
                return lab
        raise KeyError(f"no label named {name!r}")


@dataclass
class InstanceMap:
    """Per-pixel region identifiers driving the sparsity protocol."""

    ids: np.ndarray  # H x W integer


@dataclass
class SparsityMaskSet:
    """One H x W uint8 mask per label, constant within every region."""

    masks: dict[str, np.ndarray]


def make_label(name: str, kind: str, values: np.ndarray, mask: np.ndarray | None = None) -> LabelMap:
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 3:
        raise ValueError(f"label {name!r}: values must be H x W x C, got shape {values.shape}")
    if mask is None:
        mask = np.ones(values.shape[:2], dtype=np.uint8)
    mask = np.asarray(mask, dtype=np.uint8)
    return LabelMap(name=name, kind=kind, values=values, mask=mask)


def validate_label_set(s: LabelSet) -> None:
    """Raise ValueError unless all LabelSet invariants hold, names that are
    not a ``FILE_STEM`` included (as in ``fusion.load_merger_params``), and
    values that are not finite at a present pixel (absent ones are ignored)."""
    if len(s.labels) == 0:
        raise ValueError("label set is empty (need N >= 1 labels)")
    dims = s.labels[0].values.shape[:2]  # a tuple: rank is checked per label below
    seen: set[str] = set()
    for lab in s.labels:
        if not FILE_STEM.fullmatch(lab.name):
            raise ValueError(f"label name {lab.name!r} must be a non-empty file stem without '/' or '\\'")
        if lab.kind not in (DISCRETE, CONTINUOUS):
            raise ValueError(f"label {lab.name!r}: unknown kind {lab.kind!r}")
        if lab.values.ndim != 3:
            raise ValueError(f"label {lab.name!r}: values must be rank 3")
        if lab.values.shape[:2] != dims:
            raise ValueError(
                f"label {lab.name!r}: dims {lab.values.shape[:2]} differ from {dims}"
            )
        if lab.mask.shape != dims:
            raise ValueError(f"label {lab.name!r}: mask dims {lab.mask.shape} differ from {dims}")
        if lab.name in seen:
            raise ValueError(f"duplicate label name {lab.name!r}")
        seen.add(lab.name)
        if not np.isfinite(lab.values).all():
            bad = np.argwhere(~np.isfinite(lab.values) & (lab.mask[..., None] != 0))
            if len(bad):
                y, x, c = bad[0].tolist()
                raise ValueError(f"label {lab.name!r}: value {lab.values[y, x, c]} at present pixel ({y}, {x}) "
                                 "is not finite")


def generate_sparse_masks(
    inst: InstanceMap, labels: LabelSet, sparsity: float, seed: int
) -> SparsityMaskSet:
    """Drop whole (label, region) areas independently with probability ``sparsity``.

    Pairs get one uniform draw each, in ascending (label index, region id)
    order: one (labels, regions) array of draws in row-major order, so the
    mask set is reproducible bit-exactly from the seed.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    h, w = labels.height, labels.width
    if inst.ids.shape != (h, w):
        raise ValueError(f"instance map dims {inst.ids.shape} differ from ({h}, {w})")
    region_ids, inverse = np.unique(inst.ids, return_inverse=True)
    keep = (Rng(seed).uniforms(len(labels), len(region_ids)) >= sparsity).astype(np.uint8)
    return SparsityMaskSet(masks={lab.name: keep[i][inverse].reshape(h, w) for i, lab in enumerate(labels)})


def apply_masks(s: LabelSet, m: SparsityMaskSet) -> LabelSet:
    """AND each label's mask with its sparsity mask into a 0/1 mask (a nonzero
    byte is present, as in every merge) and zero newly-absent values."""
    out: list[LabelMap] = []
    for lab in s:
        sp = m.masks.get(lab.name)
        if sp is None:
            raise ValueError(f"sparsity mask set has no entry for label {lab.name!r}")
        if sp.shape != lab.mask.shape:
            raise ValueError(f"label {lab.name!r}: sparsity mask dims {sp.shape} mismatch")
        values = np.where(sp[..., None] == 0, np.float32(0.0), lab.values)
        mask = ((lab.mask != 0) & (sp != 0)).astype(np.uint8)
        out.append(LabelMap(name=lab.name, kind=lab.kind, values=values, mask=mask))
    return LabelSet(labels=out)


def mask_out_label(s: LabelSet, name: str) -> LabelSet:
    """A copy of ``s`` with one label made fully absent (all-zero mask): the
    ``apply_masks`` of a mask set that drops only that label."""
    masks = {lab.name: np.full(lab.mask.shape, lab.name != name, dtype=np.uint8) for lab in s}
    return apply_masks(s, SparsityMaskSet(masks=masks))


def _split_rects(h: int, w: int, regions: int, rng: Rng) -> list[tuple[int, int, int, int]]:
    # Recursive random axis-aligned splits; rect = (i0, i1, j0, j1).  Some rect
    # is splittable while rects < h * w cells, and synth_scene keeps regions <= h * w.
    rects = [(0, h, 0, w)]
    while len(rects) < regions:
        splittable = [
            idx
            for idx, (i0, i1, j0, j1) in enumerate(rects)
            if (i1 - i0) >= 2 or (j1 - j0) >= 2
        ]
        idx = splittable[rng.next_u64() % len(splittable)]
        i0, i1, j0, j1 = rects[idx]
        can_h = (i1 - i0) >= 2
        can_w = (j1 - j0) >= 2
        if can_h and can_w:
            split_rows = bool(rng.next_u64() & 1)
        else:
            split_rows = can_h
        if split_rows:
            cut = i0 + 1 + rng.next_u64() % (i1 - i0 - 1)
            rects[idx] = (i0, cut, j0, j1)
            rects.append((cut, i1, j0, j1))
        else:
            cut = j0 + 1 + rng.next_u64() % (j1 - j0 - 1)
            rects[idx] = (i0, i1, j0, cut)
            rects.append((i0, i1, cut, j1))
    return rects


def synth_scene(h: int, w: int, regions: int, seed: int):
    """Build a synthetic scene: five labels, a region map and an RGB target.

    The grid is split into ``regions`` axis-aligned rectangles.  Labels are
    semantics (one-hot over regions), depth (per-region plane a*i + b*j + c),
    normals (the plane's constant unit normal), edges (region-boundary
    indicator) and curvature (per-region constant).  The target is a
    deterministic function of all five labels, so each one carries signal
    needed for perfect reconstruction:
      R = class / regions,  G = depth min-max normalized,
      B = 0.5 * edge + 0.5 * curvature.
    """
    if h < 4 or w < 4:
        raise ValueError(f"grid must be at least 4x4, got {h}x{w}")
    if not 1 <= regions <= 16:
        raise ValueError(f"regions must be in [1, 16], got {regions}")
    rng = Rng(seed)
    rects = _split_rects(h, w, regions, rng)

    ids = np.zeros((h, w), dtype=np.uint8)
    for rid, (i0, i1, j0, j1) in enumerate(rects):
        ids[i0:i1, j0:j1] = rid

    ii, jj = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    depth = np.zeros((h, w), dtype=np.float64)
    normals = np.zeros((h, w, 3), dtype=np.float64)
    curvature = np.zeros((h, w), dtype=np.float64)
    for rid in range(regions):
        a, b, c = rng.uniform(), rng.uniform(), rng.uniform()
        curv = rng.uniform()
        where = ids == rid
        depth[where] = (a * ii + b * jj + c)[where]
        n = np.array([-a, -b, 1.0])
        n /= np.linalg.norm(n)
        normals[where] = n
        curvature[where] = curv

    edges = np.zeros((h, w), dtype=np.float64)
    edges[:-1, :] = np.maximum(edges[:-1, :], (ids[:-1, :] != ids[1:, :]).astype(np.float64))
    edges[1:, :] = np.maximum(edges[1:, :], (ids[1:, :] != ids[:-1, :]).astype(np.float64))
    edges[:, :-1] = np.maximum(edges[:, :-1], (ids[:, :-1] != ids[:, 1:]).astype(np.float64))
    edges[:, 1:] = np.maximum(edges[:, 1:], (ids[:, 1:] != ids[:, :-1]).astype(np.float64))

    semantics = np.zeros((h, w, regions), dtype=np.float32)
    for rid in range(regions):
        semantics[ids == rid, rid] = 1.0

    labels = LabelSet(
        labels=[
            make_label("semantics", DISCRETE, semantics),
            make_label("depth", CONTINUOUS, depth[..., None]),
            make_label("normals", CONTINUOUS, normals),
            make_label("edges", DISCRETE, edges[..., None]),
            make_label("curvature", CONTINUOUS, curvature[..., None]),
        ]
    )
    target = scene_target(labels, regions)
    return labels, InstanceMap(ids=ids), target


def scene_target(labels: LabelSet, regions: int) -> np.ndarray:
    """Closed-form map from a full synth scene label set to its RGB target."""
    sem = labels.by_name("semantics").values
    depth = labels.by_name("depth").values[..., 0].astype(np.float64)
    edge = labels.by_name("edges").values[..., 0].astype(np.float64)
    curv = labels.by_name("curvature").values[..., 0].astype(np.float64)
    cls = np.argmax(sem, axis=-1).astype(np.float64)
    lo, hi = depth.min(), depth.max()
    g = (depth - lo) / (hi - lo) if hi > lo else np.full_like(depth, 0.5)
    target = np.stack([cls / regions, g, 0.5 * edge + 0.5 * curv], axis=-1)
    return target.astype(np.float32)


def save_label_set(s: LabelSet, manifest_path) -> None:
    """Write a manifest JSON plus one values/mask tensor pair per label.

    Tensor paths inside the manifest are relative to the manifest file.
    """
    validate_label_set(s)
    base = os.path.dirname(os.path.abspath(manifest_path))
    os.makedirs(base, exist_ok=True)
    entries = []
    for lab in s:
        vpath = f"{lab.name}.values.tlt"
        mpath = f"{lab.name}.mask.tlt"
        save_tensor(os.path.join(base, vpath), lab.values.astype(np.float32, copy=False))
        save_tensor(os.path.join(base, mpath), lab.mask.astype(np.uint8, copy=False))
        entries.append(
            {
                "name": lab.name,
                "kind": lab.kind,
                "channels": lab.channels,
                "values": vpath,
                "mask": mpath,
            }
        )
    write_json(manifest_path, {"height": s.height, "width": s.width, "labels": entries})


def _manifest_entries(doc) -> list[dict]:
    """The label entries of a parsed manifest object, after checking its
    structure: integer ``height`` and ``width`` and a ``labels`` list of
    objects whose ``name``, ``kind``, ``values`` and ``mask`` are strings and
    whose ``channels`` is an integer."""
    for key in ("height", "width"):
        if type(doc.get(key)) is not int:
            raise ValueError(f"manifest {key!r} must be an integer")
    entries = doc.get("labels")
    if not isinstance(entries, list):
        raise ValueError("manifest 'labels' must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"manifest label {i} must be an object")
        for key in ("name", "kind", "values", "mask"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"manifest label {i}: {key!r} must be a string")
        if type(entry.get("channels")) is not int:
            raise ValueError(f"manifest label {i}: 'channels' must be an integer")
    return entries


def load_label_set(manifest_path) -> LabelSet:
    """Read a manifest written by ``save_label_set``; any malformed manifest
    or tensor raises ValueError (or OSError for a missing file).  Values are
    cast to float32, where one beyond its range becomes inf (rejected at a
    present pixel), and a mask that is not uint8 must hold only 0 and 1."""
    doc = read_json(manifest_path, "manifest")
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = _manifest_entries(doc)
    labels = []
    for entry in entries:
        values = load_tensor(os.path.join(base, entry["values"]))
        mask = load_tensor(os.path.join(base, entry["mask"]))
        bad = np.argwhere((mask != 0) & (mask != 1)) if mask.dtype != np.uint8 else ()
        if len(bad):
            at = tuple(bad[0].tolist())
            raise ValueError(f"label {entry['name']!r}: {mask.dtype} mask holds {mask[at]} at pixel {at}, not 0 or 1")
        with np.errstate(over="ignore"):
            values = values.astype(np.float32, copy=False)
        labels.append(
            LabelMap(
                name=entry["name"],
                kind=entry["kind"],
                values=values,
                mask=mask.astype(np.uint8, copy=False),
            )
        )
    s = LabelSet(labels=labels)
    validate_label_set(s)
    if (s.height, s.width) != (doc["height"], doc["width"]):
        raise ValueError("manifest height/width disagree with tensor dims")
    for i, (entry, lab) in enumerate(zip(entries, s)):
        if entry["channels"] != lab.channels:
            raise ValueError(
                f"manifest label {i}: 'channels' is {entry['channels']}, values have {lab.channels}"
            )
    return s


def save_instance_map(inst: InstanceMap, path) -> None:
    ids = inst.ids
    if ids.max(initial=0) > 255:
        raise ValueError("instance ids above 255 do not fit the u8 tensor format")
    save_tensor(path, ids.astype(np.uint8))


def load_instance_map(path) -> InstanceMap:
    return InstanceMap(ids=load_tensor(path))
