"""The version-2 artifact file: sparse storage, exact round trips, typed errors."""

import json
import os
import zipfile

import numpy as np
import pytest

from repro.pipeline import ARTIFACT_VERSION, DeployableArtifact, Pipeline, RunSpec

TINY_SPEC = {
    "name": "tiny_format",
    "seed": 0,
    "model": {"name": "tiny",
              "kwargs": {"num_classes": 3, "image_size": 64, "base_channels": 8}},
    "framework": {"name": "rtoss-3ep", "trace_size": 64},
    "quantization": {"enabled": True, "bits": 8},
    "engine": {"enabled": True, "measure": False, "image_size": 64},
    "evaluation": {"enabled": False},
}

#: Per-member container bytes: the 128-byte ``.npy`` header, the zip local and
#: central-directory headers with their zip64 extras, and the member name twice.
ZIP_MEMBER_ALLOWANCE = 384


def build(**engine):
    spec = RunSpec.from_dict(dict(TINY_SPEC, engine=dict(TINY_SPEC["engine"], **engine)))
    return Pipeline.from_spec(spec).run()


@pytest.fixture(scope="module")
def artifact():
    return build()


@pytest.fixture
def saved(artifact, tmp_path):
    return artifact.save(str(tmp_path / "tiny.npz"))


def members(path):
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def rewrite(path, tmp_path, changes):
    """A copy of the artifact at ``path`` with members replaced (None deletes)."""
    bundle = members(path)
    for key, value in changes.items():
        if value is None:
            del bundle[key]
        else:
            bundle[key] = value
    out = str(tmp_path / "malformed.npz")
    np.savez(out, **bundle)
    return out


def first_mask_name(artifact):
    return next(iter(artifact.masks)).full_name


def assert_load_fails(path, match):
    with pytest.raises(ValueError, match=match) as info:
        DeployableArtifact.load(path)
    assert repr(path) in str(info.value)


def test_masked_parameters_store_only_kept_weights(artifact, saved):
    stored = members(saved)
    state = artifact.model.state_dict()
    for mask in artifact.masks:
        keep = mask.mask.astype(bool)
        np.testing.assert_array_equal(stored["state::" + mask.full_name],
                                      state[mask.full_name][keep])
        np.testing.assert_array_equal(stored["mask::" + mask.full_name],
                                      np.packbits(keep))
    with zipfile.ZipFile(saved) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}


@pytest.mark.parametrize("int8", [False, True])
def test_reload_is_bit_exact(tmp_path, int8):
    artifact = build(int8=int8)
    x = np.random.default_rng(3).standard_normal((2, 3, 64, 64)).astype(np.float32)
    live = artifact.compiled.forward_raw(x)
    restored = DeployableArtifact.load(artifact.save(str(tmp_path / "exact.npz")))

    original, reloaded = artifact.model.state_dict(), restored.model.state_dict()
    assert reloaded.keys() == original.keys()
    for name, value in original.items():
        # Pruned entries reload as +0.0 where the live model may hold -0.0
        # (a negative weight times a zero mask); the two compare equal.
        assert reloaded[name].dtype == value.dtype
        np.testing.assert_array_equal(reloaded[name], value)
    assert [m.full_name for m in restored.masks] == [m.full_name for m in artifact.masks]
    for mask in artifact.masks:
        np.testing.assert_array_equal(restored.masks.get(mask.full_name).mask, mask.mask)

    np.testing.assert_array_equal(restored.compiled.forward_raw(x), live)
    assert restored.quantization_meta == artifact.quantization_meta
    expected_mode = "int8" if int8 else "fused"
    assert artifact.compiled.engine_mode == restored.compiled.engine_mode == expected_mode


def test_file_size_tracks_compression(artifact, saved):
    model = artifact.model
    param_bytes = sum(param.data.nbytes for _, param in model.named_parameters())
    buffer_bytes = sum(buffer.nbytes for _, buffer in model.named_buffers())
    masked_bits = artifact.masks.masked_parameters() + 7 * len(artifact.masks)
    with zipfile.ZipFile(saved) as archive:
        meta_bytes = archive.getinfo("__artifact__.npy").file_size
        count = len(archive.namelist())
    bound = (param_bytes / artifact.report.compression_ratio + buffer_bytes
             + masked_bits / 8 + meta_bytes + count * ZIP_MEMBER_ALLOWANCE)
    assert os.path.getsize(saved) <= bound


def test_save_refuses_a_weight_outside_its_mask(tmp_path):
    fresh = build()
    mask = next(iter(fresh.masks))
    layer = dict(fresh.model.named_modules())[mask.layer_name]
    pruned = tuple(np.argwhere(mask.mask == 0)[0])
    getattr(layer, mask.parameter_name).data[pruned] = 0.5
    with pytest.raises(ValueError, match="outside its pruning mask"):
        fresh.save(str(tmp_path / "dropped.npz"))


@pytest.mark.parametrize("damage", ["truncated", "not_zip"])
def test_unreadable_file_is_a_value_error(saved, tmp_path, damage):
    data = open(saved, "rb").read()
    bad = str(tmp_path / f"{damage}.npz")
    with open(bad, "wb") as handle:
        handle.write(data[: len(data) // 2] if damage == "truncated" else b"no zip here")
    assert_load_fails(bad, "not a readable artifact")


def test_missing_file_stays_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        DeployableArtifact.load(str(tmp_path / "absent.npz"))


def test_packed_mask_of_wrong_length_is_rejected(artifact, saved, tmp_path):
    name = first_mask_name(artifact)
    packed = members(saved)["mask::" + name]
    bad = rewrite(saved, tmp_path, {"mask::" + name: packed[:-1]})
    assert_load_fails(bad, f"mask::{name} holds uint8 \\({packed.size - 1},\\)")


def test_mask_popcount_must_match_stored_values(artifact, saved, tmp_path):
    name = first_mask_name(artifact)
    keep = artifact.masks.get(name).mask.astype(bool).reshape(-1)
    keep[np.flatnonzero(~keep)[0]] = True
    bad = rewrite(saved, tmp_path, {"mask::" + name: np.packbits(keep)})
    assert_load_fails(bad, f"state::{name} holds float32 .*, expected float32 "
                           f"\\({int(keep.sum())},\\)")


def test_sparse_state_without_its_mask_is_rejected(artifact, saved, tmp_path):
    name = first_mask_name(artifact)
    bad = rewrite(saved, tmp_path, {"mask::" + name: None})
    assert_load_fails(bad, f"state::{name} holds float32 \\(\\d+,\\)")


def test_kept_values_must_be_float32(artifact, saved, tmp_path):
    name = first_mask_name(artifact)
    values = members(saved)["state::" + name]
    bad = rewrite(saved, tmp_path, {"state::" + name: values.astype(np.float64)})
    assert_load_fails(bad, f"state::{name} holds float64")


def test_version_1_artifact_asks_for_a_rebuild(saved, tmp_path):
    meta = json.loads(str(members(saved)["__artifact__"][()]))
    assert meta["version"] == ARTIFACT_VERSION == 2
    meta["version"] = 1
    bad = rewrite(saved, tmp_path, {"__artifact__": np.asarray(json.dumps(meta))})
    assert_load_fails(bad, "unsupported artifact version 1 .*rebuild .*repro.cli run")
