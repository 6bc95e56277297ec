"""Volume file format, report files, and the command-line interface
(including its exit-code contract: 1 usage, 2 data, 3 numeric)."""

from __future__ import annotations

import importlib
import importlib.util
import json
import logging
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, strategies as st

import nestreg as nr
import nestreg.diagnostics
from nestreg import ConfigError, ModelConfig, ShapeError, Tensor, VolumeFormatError
from nestreg.cli import _load_config, main
from nestreg.errors import BadMagicError, TruncatedFileError, UnknownDtypeError
from nestreg.volio import ENGINE_VERSION, MAGIC, report_payload


# ---------------------------------------------------------------------------
# NMV1 volume files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 5, 6), (1, 3, 3, 3), (3, 4, 4, 4)])
def test_volume_file_roundtrip_is_exact(tmp_path, rng, dtype, shape):
    arr = rng.normal(size=shape).astype(dtype)
    path = tmp_path / "v.nmv"
    nr.save_volume(path, arr)
    back = nr.load_volume(path)
    assert back.dtype == dtype
    npt.assert_array_equal(back, arr)


def test_volume_file_layout_is_the_documented_header(tmp_path):
    arr = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    path = tmp_path / "v.nmv"
    nr.save_volume(path, arr)
    blob = path.read_bytes()
    assert blob[:4] == b"NMV1"
    assert blob[4] == 1          # dtype code: float32
    assert blob[5] == 3          # rank
    assert struct.unpack("<3I", blob[6:18]) == (2, 2, 2)
    assert len(blob) == 18 + 8 * 4
    npt.assert_array_equal(np.frombuffer(blob, "<f4", offset=18).reshape(2, 2, 2), arr)


def test_save_volume_accepts_wrapped_types_and_casts_ints(tmp_path):
    vol = nr.Volume(values=Tensor(np.ones((1, 3, 3, 3))))
    nr.save_volume(tmp_path / "vol.nmv", vol)
    assert nr.load_volume(tmp_path / "vol.nmv").dtype == np.float64
    field = nr.identity_field((3, 3, 3))
    nr.save_volume(tmp_path / "field.nmv", field)
    assert nr.load_volume(tmp_path / "field.nmv").shape == (3, 3, 3, 3)
    nr.save_volume(tmp_path / "ints.nmv", np.ones((2, 2, 2), dtype=np.int32))
    assert nr.load_volume(tmp_path / "ints.nmv").dtype == np.float64
    with pytest.raises(ShapeError):
        nr.save_volume(tmp_path / "bad.nmv", np.ones((2, 2)))


def test_load_volume_rejects_corrupt_files(tmp_path, rng, capsys):
    path = tmp_path / "v.nmv"
    nr.save_volume(path, rng.normal(size=(3, 3, 3)))
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.nmv"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(BadMagicError):
        nr.load_volume(bad)

    blob2 = bytearray(blob)
    blob2[4] = 9
    bad.write_bytes(bytes(blob2))
    with pytest.raises(UnknownDtypeError):
        nr.load_volume(bad)

    bad.write_bytes(bytes(blob[:-5]))  # chopped payload
    with pytest.raises(TruncatedFileError):
        nr.load_volume(bad)

    bad.write_bytes(bytes(blob) + b"\x00")  # trailing bytes
    with pytest.raises(TruncatedFileError):
        nr.load_volume(bad)

    bad.write_bytes(b"NMV")
    with pytest.raises(TruncatedFileError):
        nr.load_volume(bad)

    # A complete file of an unsupported rank is a format error, not a
    # truncated file, and a data error (exit 2) on the command line.
    for rank in (2, 5):
        bad.write_bytes(_nmv_header(2, (3,) * rank) + np.zeros(3 ** rank).tobytes())
        with pytest.raises(VolumeFormatError, match=f"unsupported rank {rank}$") as err:
            nr.load_volume(bad)
        assert not isinstance(err.value, TruncatedFileError)
        assert main(["metrics", "--a", str(bad), "--b", str(bad)]) == 2
        assert f"unsupported rank {rank}" in capsys.readouterr().err

    # every format error is a VolumeFormatError for coarse handling
    assert issubclass(BadMagicError, VolumeFormatError)
    assert issubclass(UnknownDtypeError, VolumeFormatError)
    assert issubclass(TruncatedFileError, VolumeFormatError)


def _nmv_header(code, extents):
    rank = len(extents)
    return MAGIC + struct.pack("<BB", code, rank) + struct.pack(f"<{rank}I", *extents)


def test_load_volume_counts_elements_without_wrapping(tmp_path):
    """2**21 * 2**21 * 2**22 elements wrap to 0 in int64: a header-only file
    must not pass the length check."""
    path = tmp_path / "huge.nmv"
    path.write_bytes(_nmv_header(1, (2**21, 2**21, 2**22)))
    with pytest.raises(TruncatedFileError, match="expected 73786976294838206464"):
        nr.load_volume(path)


def test_volume_files_hold_at_least_one_voxel(tmp_path):
    path = tmp_path / "empty.nmv"
    path.write_bytes(_nmv_header(1, (0, 4, 4)))
    with pytest.raises(VolumeFormatError, match="hold no voxels"):
        nr.load_volume(path)
    with pytest.raises(ShapeError):
        nr.save_volume(path, np.zeros((0, 4, 4)))


_U32 = (st.integers(0, 4) | st.integers(0, 32).map(lambda p: min(2**p, 2**32 - 1))
        | st.integers(0, 2**32 - 1))


@st.composite
def _nmv_blobs(draw):
    """A header (the magic, a dtype code and rank that are mostly valid, any
    u32 extents), then a payload of the size the header promises when that
    is small, or of any small size, and perhaps a cut anywhere."""
    magic = draw(st.just(MAGIC) | st.binary(max_size=4))
    code = draw(st.sampled_from([1, 2]) | st.integers(0, 255))
    extents = draw(st.lists(_U32, max_size=5))
    rank = draw(st.just(len(extents)) | st.sampled_from([3, 4]) | st.integers(0, 255))
    header = magic + bytes([code, rank]) + b"".join(struct.pack("<I", e) for e in extents)
    promised = math.prod(extents) * (8 if code == 2 else 4)
    sizes = st.integers(0, 64)
    size = draw(st.just(promised) | sizes if promised <= 4096 else sizes)
    blob = header + draw(st.binary(min_size=size, max_size=size))
    return blob[:draw(st.none() | st.integers(0, len(blob)))]


@given(blob=_nmv_blobs())
@example(blob=_nmv_header(1, (2**21, 2**21, 2**22)))
@example(blob=_nmv_header(2, (0, 2**32 - 1, 2**32 - 1)))
def test_load_volume_of_any_header_and_payload_loads_or_raises_a_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("nmv") / "v.nmv"
    path.write_bytes(blob)
    try:
        arr = nr.load_volume(path)
    except VolumeFormatError:
        return
    rank = blob[5]
    assert arr.shape == struct.unpack_from(f"<{rank}I", blob, 6)
    assert arr.dtype == {1: np.float32, 2: np.float64}[blob[4]]
    assert arr.nbytes == len(blob) - 6 - 4 * rank


def test_typed_readers_enforce_leading_extent(tmp_path, rng):
    vol = tmp_path / "vol.nmv"
    nr.save_volume(vol, rng.normal(size=(1, 3, 3, 3)))
    assert nr.volume_from_file(vol).values.shape == (1, 3, 3, 3)

    field = tmp_path / "field.nmv"
    nr.save_volume(field, rng.normal(size=(3, 3, 3, 3)))
    assert nr.field_from_file(field).u.shape == (3, 3, 3, 3)

    with pytest.raises(ShapeError):
        nr.volume_from_file(field)  # leading 3 is a field, not a volume
    with pytest.raises(ShapeError):
        nr.field_from_file(vol)

    rank3 = tmp_path / "r3.nmv"
    nr.save_volume(rank3, rng.normal(size=(4, 4, 4)))
    assert nr.volume_from_file(rank3).values.shape == (1, 4, 4, 4)


def test_atomic_write_leaves_no_temp_files(tmp_path, rng):
    for i in range(3):
        nr.save_volume(tmp_path / f"v{i}.nmv", rng.normal(size=(3, 3, 3)))
    nr.save_checkpoint(tmp_path / "ckpt.npz", nr.Checkpoint(ModelConfig(), {}, 0, {}))
    nr.write_curve_csv(tmp_path / "curve.csv", nr.TrainingCurve())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ckpt.npz", "curve.csv", "v0.nmv", "v1.nmv", "v2.nmv"
    ]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def make_report(rng):
    mv, fx, _ = nr.synth_pair(12, seed=2, amplitude=1.5, bits=64)
    model = nr.build_model(
        ModelConfig(channels=(2, 4), strides=(2, 2), kernels=(3, 3), heads=1,
                    dae_blocks=1, precision=64),
    )
    _, _, report = nr.register(model, mv, fx)
    return report, model.config


def test_report_file_round_trips_all_floats_exactly(tmp_path, rng):
    report, cfg = make_report(rng)
    path = tmp_path / "report.json"
    nr.write_report(path, report, cfg)
    data = json.loads(path.read_text())
    assert data["engine_version"] == ENGINE_VERSION
    assert data["config_hash"] == nr.config_hash(cfg)
    assert ModelConfig.from_dict(data["config"]) == cfg
    for key, value in report.to_dict().items():
        assert data["metrics"][key] == value  # repr-precision JSON: exact round-trip


def test_report_payload_floats_carry_full_precision(rng):
    report, cfg = make_report(rng)
    text = json.dumps(report_payload(report, cfg))
    metrics = json.loads(text)["metrics"]
    # parsing the serialized text recovers the doubles bit-for-bit
    assert metrics["ssim_initial"] == report.ssim_initial
    assert metrics["loss_total"] == report.loss_total


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_without_arguments_prints_help_and_exits_1(capsys):
    assert main([]) == 1
    out = capsys.readouterr().out
    assert "synth" in out and "register" in out


def test_cli_unknown_command_exits_1(capsys):
    assert main(["transmogrify"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_cli_synth_writes_three_volumes(tmp_path, capsys):
    rc = main([
        "synth", "--out", str(tmp_path / "d"), "--shape", "10",
        "--seed", "3", "--amplitude", "1.5", "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"] == [10, 10, 10]
    for key in ("moving", "fixed", "truth_field"):
        assert nr.load_volume(payload["files"][key]) is not None
    truth = nr.load_volume(payload["files"]["truth_field"])
    assert truth.shape == (3, 10, 10, 10)
    assert np.abs(truth).max() <= 1.5 + 1e-6


def test_cli_synth_halves_an_overflowing_amplitude_to_the_zero_field(tmp_path, capsys, caplog):
    # At 1e200 voxels the Jacobian's products overflow, so no determinant is
    # positive and finite: the field counts as folded and is halved 40 times,
    # then replaced by the zero field, with one warning that says so.
    out = tmp_path / "pair"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with caplog.at_level(logging.WARNING, logger="nestreg.synth"):
            rc = main(["synth", "--out", str(out), "--shape", "8", "--amplitude", "1e200"])
    assert rc == 0, capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    halvings = [r.getMessage() for r in caplog.records if "halving amplitude" in r.getMessage()]
    assert len(halvings) == 40
    dropped = [r for r in caplog.records if "zero field" in r.getMessage()]
    assert [r.levelno for r in dropped] == [logging.WARNING]
    npt.assert_array_equal(nr.load_volume(out / "truth_field.nmv"), 0.0)


def test_cli_synth_rejects_bad_shape_arity(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path), "--shape", "8", "8"]) == 1
    assert "1 or 3 integers" in capsys.readouterr().err


def test_cli_metrics_of_identical_volumes_reports_ssim_one(tmp_path, capsys):
    main(["synth", "--out", str(tmp_path), "--shape", "10", "--seed", "1"])
    capsys.readouterr()
    rc = main(["metrics", "--a", str(tmp_path / "fixed.nmv"), "--b", str(tmp_path / "fixed.nmv")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ssim"] == 1.0
    assert payload["hd95"] == 0.0


def test_cli_metrics_with_field_reports_jacobian_stats(tmp_path, capsys):
    main(["synth", "--out", str(tmp_path), "--shape", "10", "--seed", "1"])
    capsys.readouterr()
    rc = main([
        "metrics", "--a", str(tmp_path / "moving.nmv"), "--b", str(tmp_path / "fixed.nmv"),
        "--field", str(tmp_path / "truth_field.nmv"),
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["folding_fraction"] == 0.0
    assert payload["sdlogj"] >= 0.0


@pytest.mark.parametrize("zero", ["--a", "--b"])
def test_cli_metrics_of_an_all_zero_volume_is_a_data_error(tmp_path, capsys, zero):
    """An all-zero volume has an empty mask, on which HD95 is undefined:
    exit 2, as in ``register``, and nothing printed."""
    main(["synth", "--out", str(tmp_path), "--shape", "16", "--seed", "1"])
    files = {"--a": tmp_path / "moving.nmv", "--b": tmp_path / "fixed.nmv"}
    files[zero] = tmp_path / "zero.nmv"
    nr.save_volume(files[zero], np.zeros_like(nr.load_volume(tmp_path / "fixed.nmv")))
    capsys.readouterr()
    assert main(["metrics"] + [str(x) for kv in files.items() for x in kv]) == 2
    assert capsys.readouterr() == ("", "data error: hd95 is undefined for an empty mask\n")


@pytest.mark.parametrize("flag", ["--a", "--b", "--field"])
def test_cli_metrics_of_a_non_finite_input_is_a_data_error(tmp_path, capsys, flag):
    """A NaN voxel in either volume or an infinite displacement: exit 2 with
    the file named, and neither NaN in the output nor a warning."""
    main(["synth", "--out", str(tmp_path), "--shape", "16", "--seed", "1"])
    files = {"--a": tmp_path / "moving.nmv", "--b": tmp_path / "fixed.nmv", "--field": tmp_path / "truth_field.nmv"}
    bad = nr.load_volume(files[flag])
    bad.flat[bad.size // 2] = np.inf if flag == "--field" else np.nan
    files[flag] = tmp_path / "bad.nmv"
    nr.save_volume(files[flag], bad)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["metrics"] + [str(x) for kv in files.items() for x in kv])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error:") and str(files[flag]) in err
    assert "Traceback" not in err


def test_cli_missing_file_is_a_data_error(tmp_path, capsys):
    rc = main(["metrics", "--a", str(tmp_path / "nope.nmv"), "--b", str(tmp_path / "nope.nmv")])
    assert rc == 2


@pytest.mark.parametrize("flag", ["--config", "--resume", "--checkpoint", "--moving", "--fixed",
                                  "--a", "--b", "--field"])
def test_cli_input_path_that_is_a_directory_is_a_data_error(tmp_path, capsys, flag):
    """Each input path flag, naming a directory in an otherwise valid call,
    exits 2 with a one-line data error and no traceback."""
    main(["synth", "--out", str(tmp_path), "--shape", "8", "--seed", "1"])
    ckpt = tmp_path / "ckpt.npz"
    nr.save_checkpoint(ckpt, nr.Checkpoint(TINY_CFG, nr.build_model(TINY_CFG).state(), 1, {}))
    directory = tmp_path / "a_directory"
    directory.mkdir()

    def path(name, readable):
        return str(directory if name == flag else tmp_path / readable)

    if flag in ("--config", "--resume"):
        argv = ["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"), flag, str(directory)]
    elif flag in ("--checkpoint", "--moving", "--fixed"):
        argv = ["register", "--checkpoint", path("--checkpoint", ckpt), "--moving",
                path("--moving", "moving.nmv"), "--fixed", path("--fixed", "fixed.nmv"),
                "--out-field", str(tmp_path / "field.nmv")]
    else:
        argv = ["metrics", "--a", path("--a", "fixed.nmv"), "--b", path("--b", "moving.nmv"),
                "--field", path("--field", "truth_field.nmv")]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "field.nmv").exists()


def test_cli_corrupt_volume_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.nmv"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["metrics", "--a", str(bad), "--b", str(bad)]) == 2
    assert "bad magic" in capsys.readouterr().err


def test_cli_params_matches_library_counts(capsys):
    assert main(["params", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == nr.count_params(ModelConfig()).to_dict()
    assert main(["params"]) == 0
    text = capsys.readouterr().out
    assert "Total" in text and "Encoder" in text


def test_cli_params_with_config_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "channels": [2, 4], "strides": [2, 2], "kernels": [3, 3],
        "heads": 1, "dae_blocks": 1,
    }))
    assert main(["params", "--config", str(cfg_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 3890


def test_cli_rejects_bad_config_files(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert main(["params", "--config", str(bad)]) == 1
    bad.write_text(json.dumps({"unknown_knob": 1}))
    assert main(["params", "--config", str(bad)]) == 1
    bad.write_text(json.dumps({"channels": [8], "strides": [2], "kernels": [2]}))
    assert main(["params", "--config", str(bad)]) == 1
    assert main(["params", "--config", str(tmp_path / "missing.json")]) == 2


_CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=8,
)


@given(data=st.dictionaries(st.sampled_from([f.name for f in fields(ModelConfig)]), _CONFIG_VALUES))
def test_load_config_of_any_json_object_validates_or_raises_config_error(tmp_path_factory, data):
    """Any JSON object over ModelConfig's keys, with values of any kind,
    mostly small ints and lists of them. Only parsed and validated: a valid
    config can still ask for a model too large to build."""
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(data))
    try:
        cfg = _load_config(str(path))
    except ConfigError:
        return
    assert cfg.validate() == []
    assert cfg == ModelConfig.from_dict({**ModelConfig().to_dict(), **data})


@pytest.mark.parametrize("overrides, field", [
    ({"channels": 8}, "channels"),
    ({"epochs": "5"}, "epochs"),
    ({"lr": None}, "lr"),
    ({"heads": 2.5}, "heads"),
    ({"use_channel": 1}, "use_channel"),
    ({"strides": [4, 2, 2, 2.5]}, "strides"),
])
def test_cli_config_values_of_the_wrong_kind_exit_1(tmp_path, capsys, overrides, field):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(overrides))
    assert main(["params", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{field} must be" in err


def test_cli_volume_whose_element_count_overflows_int64_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "huge.nmv"
    path.write_bytes(_nmv_header(1, (2**21, 2**21, 2**22)))
    assert main(["metrics", "--a", str(path), "--b", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "command,message",
    [
        ("train-config", "seed must be >= 0"),
        ("train-flag", "seed must be >= 0"),
        ("synth", "seed must be >= 0"),
        ("params", "seed must be >= 0"),
        ("synth-amplitude-nan", "amplitude must be finite and >= 0"),
        ("synth-amplitude-inf", "amplitude must be finite and >= 0"),
        ("synth-sigma-nan", "field_sigma must be finite and >= 0"),
        ("synth-sigma-negative", "field_sigma must be finite and >= 0"),
    ],
)
def test_cli_out_of_range_value_is_a_config_error(tmp_path, capsys, command, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": -1}))
    synth = ["synth", "--out", str(tmp_path / "pair"), "--shape", "8"]
    argv = {
        "train-config": ["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
                         "--config", str(cfg_file)],
        "train-flag": ["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
                       "--seed", "-1"],
        "synth": synth + ["--seed", "-1"],
        "params": ["params", "--config", str(cfg_file)],
        "synth-amplitude-nan": synth + ["--amplitude", "nan"],
        "synth-amplitude-inf": synth + ["--amplitude", "inf"],
        "synth-sigma-nan": synth + ["--sigma", "nan"],
        "synth-sigma-negative": synth + ["--sigma", "-1"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "pair").exists()


def test_cli_train_then_register_end_to_end(tmp_path, capsys):
    data = tmp_path / "data"
    run = tmp_path / "run"
    main(["synth", "--out", str(data), "--shape", "12", "--seed", "5",
          "--amplitude", "1.5", "--bits", "64"])
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "channels": [2, 4], "strides": [2, 2], "kernels": [3, 3],
        "heads": 1, "dae_blocks": 1,
        "precision": 64, "batch_size": 1,
    }))
    capsys.readouterr()
    rc = main([
        "train", "--data", str(data), "--out", str(run),
        "--config", str(cfg_file), "--epochs", "2", "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["epoch"] for e in payload["epochs"]] == [1, 2]
    assert (run / "checkpoint_best.npz").exists()
    assert (run / "curve.csv").exists()
    curve = nr.read_curve_csv(run / "curve.csv")
    assert [r.epoch for r in curve.rows] == [1, 2]

    rc = main([
        "register",
        "--checkpoint", str(run / "checkpoint_last.npz"),
        "--moving", str(data / "moving.nmv"),
        "--fixed", str(data / "fixed.nmv"),
        "--out-field", str(run / "field.nmv"),
        "--out-warped", str(run / "warped.nmv"),
        "--report", str(run / "report.json"),
        "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == set(nr.RegistrationReport.__dataclass_fields__)
    field = nr.field_from_file(run / "field.nmv")
    assert field.u.shape == (3, 12, 12, 12)
    assert nr.load_volume(run / "warped.nmv").shape == (1, 12, 12, 12)
    report = json.loads((run / "report.json").read_text())
    assert report["metrics"]["ssim"] == payload["ssim"]


def _write_parameterless_checkpoint(path, config: dict):
    """A checkpoint file that records ``config`` as it is. ``save_checkpoint``
    refuses an invalid config, so this writes the layout directly, as an
    edited or foreign file would arrive."""
    meta = {"config": config, "epoch": 1, "rng_state": {}, "params": []}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             __params__=np.empty(0))


def test_cli_register_with_an_invalid_checkpoint_config_is_a_config_error(tmp_path, capsys):
    main(["synth", "--out", str(tmp_path), "--shape", "8", "--seed", "1"])
    cfg = ModelConfig(channels=(2, 4), strides=(2, 2), kernels=(3, 3), heads=3)
    ckpt = tmp_path / "bad.npz"
    _write_parameterless_checkpoint(ckpt, cfg.to_dict())
    assert nr.load_checkpoint(ckpt).config == cfg
    capsys.readouterr()
    rc = main([
        "register", "--checkpoint", str(ckpt),
        "--moving", str(tmp_path / "moving.nmv"), "--fixed", str(tmp_path / "fixed.nmv"),
        "--out-field", str(tmp_path / "field.nmv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "not divisible by heads 3" in err
    assert not (tmp_path / "field.nmv").exists()


@pytest.mark.parametrize("key", ["in_channels", "lka_blocks"])
def test_cli_refuses_a_config_naming_a_removed_key(tmp_path, capsys, key):
    """The design fixes ``in_channels`` at 2 and gives every encoder stage
    past the ``dae_blocks`` deepest a large-kernel decoder stage, so neither
    is a config key: a config, checkpoint or ``--config`` file naming one is
    a config error naming the key, and the CLI exits 1 and writes nothing."""
    main(["synth", "--out", str(tmp_path), "--shape", "8", "--seed", "1"])
    old = {**ModelConfig().to_dict(), key: 2}
    refused = f"unknown config key '{key}'"
    with pytest.raises(ConfigError, match=refused):
        ModelConfig.from_dict(old)
    ckpt = tmp_path / "old.npz"
    _write_parameterless_checkpoint(ckpt, old)
    with pytest.raises(ConfigError, match=refused):
        nr.load_checkpoint(ckpt)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: 2}))
    capsys.readouterr()
    rc = main([
        "register", "--checkpoint", str(ckpt),
        "--moving", str(tmp_path / "moving.nmv"), "--fixed", str(tmp_path / "fixed.nmv"),
        "--out-field", str(tmp_path / "field.nmv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {refused}\n"
    assert not (tmp_path / "field.nmv").exists()
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
               "--config", str(cfg_file)])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {refused}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("zero", ["moving", "fixed"])
def test_cli_register_of_an_all_zero_volume_is_a_data_error(tmp_path, capsys, zero):
    """The forward, the loss, SDlogJ and SSIM all take an all-zero 64^3
    moving or fixed volume (the fixed one's reference holds no surface); its
    empty mask makes HD95 undefined, exit 2."""
    main(["synth", "--out", str(tmp_path), "--shape", "64", "--seed", "3"])
    nr.save_volume(tmp_path / f"{zero}.nmv", np.zeros_like(nr.load_volume(tmp_path / f"{zero}.nmv")))
    cfg = ModelConfig()
    nr.save_checkpoint(tmp_path / "ckpt.npz", nr.Checkpoint(cfg, nr.build_model(cfg).state(), 1, {}))
    capsys.readouterr()
    rc = main(["register", "--checkpoint", str(tmp_path / "ckpt.npz"),
               "--moving", str(tmp_path / "moving.nmv"), "--fixed", str(tmp_path / "fixed.nmv"),
               "--out-field", str(tmp_path / "field.nmv")])
    assert rc == 2
    assert capsys.readouterr().err == "data error: hd95 is undefined for an empty mask\n"
    assert not (tmp_path / "field.nmv").exists()


TINY_CFG = ModelConfig(channels=(2, 4), strides=(2, 2), kernels=(3, 3), heads=1,
                       dae_blocks=1, precision=32)


def _register(tmp_path, ckpt, out):
    return main([
        "register", "--checkpoint", str(ckpt),
        "--moving", str(tmp_path / "moving.nmv"), "--fixed", str(tmp_path / "fixed.nmv"),
        "--out-field", str(out / "field.nmv"), "--out-warped", str(out / "warped.nmv"),
        "--json",
    ])


@pytest.mark.parametrize("layout", ["index-misses-buffer", "per-name"])
def test_cli_register_with_a_malformed_checkpoint_is_a_data_error(tmp_path, capsys, layout):
    """A checkpoint holds its parameters in one buffer, ``__params__``, that
    its index splits; an index that does not fit the buffer, or one npz
    member per parameter name in place of the buffer, is a data error naming
    the file."""
    main(["synth", "--out", str(tmp_path), "--shape", "8", "--seed", "1"])
    ckpt = tmp_path / "broken.npz"
    meta = {"config": TINY_CFG.to_dict(), "epoch": 1, "rng_state": {}}
    if layout == "per-name":
        members = nr.build_model(TINY_CFG).state()
    else:
        meta["params"] = [["w", [2, 3]]]
        members = {"__params__": np.zeros(5, dtype=np.float32)}
    np.savez(ckpt, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **members)
    capsys.readouterr()
    assert _register(tmp_path, ckpt, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(ckpt) in err
    assert not (tmp_path / "field.nmv").exists()


def _train_tiny(tmp_path, data, out, *extra, **overrides):
    cfg_file = tmp_path / f"{out}.json"
    cfg_file.write_text(json.dumps({**TINY_CFG.to_dict(), **overrides}))
    return main(["train", "--data", str(data), "--out", str(tmp_path / out),
                 "--config", str(cfg_file), *extra])


def test_cli_train_resume_with_a_different_config_is_a_data_error(tmp_path, capsys):
    main(["synth", "--out", str(tmp_path / "data"), "--shape", "8", "--seed", "1"])
    assert _train_tiny(tmp_path, tmp_path / "data", "run", "--epochs", "1", ncc_window=3) == 0
    ckpt = tmp_path / "run" / "checkpoint_last.npz"
    before = ckpt.read_bytes()
    capsys.readouterr()
    rc = _train_tiny(tmp_path, tmp_path / "data", "run", "--epochs", "3", "--resume", str(ckpt))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert "ncc_window 3 in the checkpoint, 5 in the run" in err
    assert ckpt.read_bytes() == before
    assert [r.epoch for r in nr.read_curve_csv(tmp_path / "run" / "curve.csv").rows] == [1]


def _truncated_checkpoint(path):
    nr.save_checkpoint(path, nr.Checkpoint(TINY_CFG, nr.build_model(TINY_CFG).state(), 1, {}))
    path.write_bytes(path.read_bytes()[:300])


def _checkpoint_with_meta(raw: bytes):
    return lambda path: np.savez(path, __meta__=np.frombuffer(raw, dtype=np.uint8),
                                 __params__=np.empty(0, dtype=np.float32))


@pytest.mark.parametrize("command", ["register", "train"])
@pytest.mark.parametrize("write", [
    lambda path: path.write_bytes(b"not an npz archive\n"),
    _truncated_checkpoint,
    _checkpoint_with_meta(b"{not json"),
    _checkpoint_with_meta(json.dumps({"rng_state": {}, "params": []}).encode()),
    _checkpoint_with_meta(json.dumps({"config": 5, "epoch": "1", "rng_state": {}}).encode()),
    _checkpoint_with_meta(json.dumps({"config": TINY_CFG.to_dict(), "epoch": 1, "rng_state": {},
                                      "params": [["w", [2, "a"]]]}).encode()),
    _checkpoint_with_meta(json.dumps({"config": TINY_CFG.to_dict(), "epoch": -1, "rng_state": {},
                                      "params": []}).encode()),
    _checkpoint_with_meta(json.dumps({"config": TINY_CFG.to_dict(), "epoch": True, "rng_state": {},
                                      "params": []}).encode()),
], ids=["not-npz", "truncated", "meta-not-json", "meta-lacks-config-and-epoch",
        "meta-config-and-epoch-of-the-wrong-kind", "meta-index-extent-not-an-int",
        "meta-epoch-negative", "meta-epoch-a-bool"])
def test_cli_malformed_checkpoint_is_a_data_error(tmp_path, capsys, command, write):
    main(["synth", "--out", str(tmp_path), "--shape", "8", "--seed", "1"])
    ckpt = tmp_path / "ckpt.npz"
    write(ckpt)
    capsys.readouterr()
    if command == "register":
        rc = _register(tmp_path, ckpt, tmp_path)
    else:
        rc = _train_tiny(tmp_path, tmp_path, "run", "--resume", str(ckpt))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(ckpt) in err and "Traceback" not in err
    assert not (tmp_path / "field.nmv").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("rows", ["1,0.5,abc,0.9,0.9", "1,0.5,0.5,0.9", "1.5,0.5,0.5,0.9,0.9",
                                  "1,nan,0.5,0.9,0.9", "0,0.5,0.5,0.9,0.9",
                                  "1,0.5,0.5,0.9,0.9\n1,0.5,0.5,0.9,0.9"],
                         ids=["non-numeric-field", "short-row", "non-integer-epoch", "non-finite-value",
                              "epoch-zero", "epoch-repeated"])
def test_cli_train_resume_into_a_run_with_a_malformed_curve_is_a_data_error(tmp_path, capsys, rows):
    """The last of ``rows`` is the malformed one."""
    main(["synth", "--out", str(tmp_path / "data"), "--shape", "8", "--seed", "1"])
    assert _train_tiny(tmp_path, tmp_path / "data", "run", "--epochs", "1") == 0
    curve = tmp_path / "run" / "curve.csv"
    curve.write_text(curve.read_text().splitlines()[0] + "\n" + rows + "\n")  # the header kept
    capsys.readouterr()
    ckpt = tmp_path / "run" / "checkpoint_last.npz"
    assert _train_tiny(tmp_path, tmp_path / "data", "run", "--epochs", "2", "--resume", str(ckpt)) == 2
    err = capsys.readouterr().err
    bad = f"{curve}: row {rows.count(chr(10)) + 1}"
    assert err.startswith("data error:") and bad in err and "Traceback" not in err


def test_cli_train_resumed_into_a_new_directory_resumes_there_again(tmp_path, capsys):
    """A run resumed into a directory without a curve writes the epochs after
    its checkpoint's, and a resume into that directory reads them back and
    continues the curve."""
    main(["synth", "--out", str(tmp_path / "data"), "--shape", "8", "--seed", "1"])
    assert _train_tiny(tmp_path, tmp_path / "data", "run1", "--epochs", "1") == 0
    assert _train_tiny(tmp_path, tmp_path / "data", "run2", "--epochs", "2",
                       "--resume", str(tmp_path / "run1" / "checkpoint_last.npz")) == 0
    curve = tmp_path / "run2" / "curve.csv"
    assert [r.epoch for r in nr.read_curve_csv(curve).rows] == [2]
    capsys.readouterr()
    assert _train_tiny(tmp_path, tmp_path / "data", "run2", "--epochs", "3",
                       "--resume", str(tmp_path / "run2" / "checkpoint_last.npz")) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert [r.epoch for r in nr.read_curve_csv(curve).rows] == [2, 3]


def test_cli_train_resume_from_a_checkpoint_without_a_generator_state_is_a_data_error(tmp_path, capsys):
    main(["synth", "--out", str(tmp_path), "--shape", "8", "--seed", "1"])
    ckpt = tmp_path / "ckpt.npz"
    nr.save_checkpoint(ckpt, nr.Checkpoint(TINY_CFG, nr.build_model(TINY_CFG).state(), 1, {}))
    capsys.readouterr()
    assert _train_tiny(tmp_path, tmp_path, "run", "--epochs", "2", "--resume", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "rng_state" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_train_resume_from_a_checkpoint_whose_generator_state_overflows_is_a_data_error(tmp_path, capsys):
    main(["synth", "--out", str(tmp_path), "--shape", "8", "--seed", "1"])
    state = np.random.default_rng(0).bit_generator.state
    state["state"]["state"] = 2**130
    ckpt = tmp_path / "ckpt.npz"
    nr.save_checkpoint(ckpt, nr.Checkpoint(TINY_CFG, nr.build_model(TINY_CFG).state(), 1, state))
    capsys.readouterr()
    assert _train_tiny(tmp_path, tmp_path, "run", "--epochs", "2", "--resume", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "rng_state" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_train_with_empty_data_dir_is_a_data_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["train", "--data", str(empty), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "no pairs" in capsys.readouterr().err


def test_cli_train_on_pairs_of_different_shapes_is_a_data_error(tmp_path, capsys):
    """A batch stacks its pairs, so train rejects a set whose volumes differ
    in shape before epoch 1, naming two pairs and their shapes."""
    data = tmp_path / "data"
    for name, extent in (("a", "8"), ("b", "12")):
        main(["synth", "--out", str(tmp_path / name), "--shape", extent, "--seed", "1"])
        data.mkdir(exist_ok=True)
        for kind in ("moving", "fixed"):
            (tmp_path / name / f"{kind}.nmv").rename(data / f"{name}_{kind}.nmv")
    capsys.readouterr()
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pair 0 has (1, 8, 8, 8)" in err and "pair 1 has (1, 12, 12, 12)" in err
    assert not (tmp_path / "run").exists()


def test_cli_gradcheck_exit_codes_follow_the_suite(monkeypatch, capsys):
    ok = nr.CheckResult(name="stub", max_rel_error=1e-9, tolerance=1e-4, passed=True, seconds=0.0)
    monkeypatch.setattr(
        nestreg.diagnostics, "run_gradcheck_suite", lambda seed=0, tol=1e-4: [ok]
    )
    assert main(["gradcheck"]) == 0
    assert "PASS" in capsys.readouterr().out

    bad = nr.CheckResult(name="stub", max_rel_error=0.5, tolerance=1e-4, passed=False, seconds=0.0)
    monkeypatch.setattr(
        nestreg.diagnostics, "run_gradcheck_suite", lambda seed=0, tol=1e-4: [bad]
    )
    assert main(["gradcheck"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "FAILED" in captured.err


def test_cli_gradcheck_json_lists_each_check_in_field_order_without_its_time(monkeypatch, capsys):
    ok = nr.CheckResult(name="stub", max_rel_error=1e-9, passed=True, tolerance=1e-4, seconds=0.5)
    monkeypatch.setattr(
        nestreg.diagnostics, "run_gradcheck_suite", lambda seed=0, tol=1e-4: [ok]
    )
    assert main(["gradcheck", "--json"]) == 0
    assert capsys.readouterr().out == (
        '[\n  {\n    "name": "stub",\n    "max_rel_error": 1e-09,\n'
        '    "passed": true,\n    "tolerance": 0.0001\n  }\n]\n'
    )


def test_cli_train_prints_the_line_that_train_logs_for_each_epoch(tmp_path, capsys, caplog):
    main(["synth", "--out", str(tmp_path / "data"), "--shape", "8", "--seed", "1"])
    capsys.readouterr()
    with caplog.at_level(logging.INFO, logger="nestreg.train"):
        assert _train_tiny(tmp_path, tmp_path / "data", "run", "--epochs", "2") == 0
    logged = [r.getMessage() for r in caplog.records if r.name == "nestreg.train"]
    printed = capsys.readouterr().out.splitlines()
    assert len(logged) == 2 and printed[:-1] == logged
    assert re.fullmatch(r"epoch 1: train_loss=-?\d+\.\d{6} val_loss=-?\d+\.\d{6} "
                        r"train_ssim=-?\d\.\d{4} val_ssim=-?\d\.\d{4}", logged[0])


def test_cli_metrics_and_an_untrained_register_write_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """SSIM's windowed means and NCC's box sums are BLAS products. Each run in
    its own process, under OPENBLAS_NUM_THREADS=1 and =2: ``metrics`` on a
    64^3 pair prints the same bytes, and ``register`` with an untrained
    default checkpoint (its zero-initialised head predicts an exactly zero
    field) writes the same field, warped volume and report. A trained
    network's float32 field is not thread-count independent: the patch
    embed's matrix product already differs in the last bits.

    ``register`` scores on a worker thread beside the main thread. With a
    noised head (a non-zero field) at one BLAS thread, a process pinned to
    one CPU writes the same bytes as one free to use every CPU."""
    main(["synth", "--out", str(tmp_path), "--shape", "64", "--seed", "3"])
    cfg = ModelConfig()
    untrained = nr.build_model(cfg)
    nr.save_checkpoint(tmp_path / "ckpt.npz", nr.Checkpoint(cfg, untrained.state(), 1, {}))
    noised = untrained.state()
    rng = np.random.default_rng(9)
    for name in ("head.w", "head.b"):
        noised[name] = rng.normal(0.0, 0.1, size=noised[name].shape).astype(noised[name].dtype)
    nr.save_checkpoint(tmp_path / "noised.npz", nr.Checkpoint(cfg, noised, 1, {}))
    src = Path(nr.__file__).resolve().parents[1]
    pair = ["--moving", str(tmp_path / "moving.nmv"), "--fixed", str(tmp_path / "fixed.nmv")]
    one_cpu = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
               "from nestreg.cli import main; sys.exit(main(sys.argv[1:]))")
    outputs = {}
    for run, threads, launch in [("1", "1", ["-m", "nestreg"]), ("2", "2", ["-m", "nestreg"]),
                                 ("1-pinned", "1", ["-c", one_cpu])]:
        out = tmp_path / f"threads{run}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        commands = [
            ["metrics", "--a", str(tmp_path / "moving.nmv"), "--b", str(tmp_path / "fixed.nmv"),
             "--field", str(tmp_path / "truth_field.nmv")],
            *(["register", "--checkpoint", str(tmp_path / f"{ckpt}.npz"), *pair,
               "--out-field", str(out / f"{ckpt}-field.nmv"), "--out-warped", str(out / f"{ckpt}-warped.nmv"),
               "--report", str(out / f"{ckpt}-report.json")] for ckpt in ("ckpt", "noised")),
        ]
        printed = [subprocess.run([sys.executable, *launch, *argv], env=env, check=True,
                                  capture_output=True).stdout for argv in commands]
        written = {ckpt: [(out / f"{ckpt}-{name}").read_bytes()
                          for name in ("field.nmv", "warped.nmv", "report.json")]
                   for ckpt in ("ckpt", "noised")}
        outputs[run] = (printed[0], written)
    assert outputs["1"][0] == outputs["2"][0] == outputs["1-pinned"][0]
    assert outputs["1"][1]["ckpt"] == outputs["2"][1]["ckpt"] == outputs["1-pinned"][1]["ckpt"]
    assert outputs["1"][1]["noised"] == outputs["1-pinned"][1]["noised"]
    assert 0.0 < json.loads(outputs["1"][0])["ssim"] < 1.0
    field = nr.load_volume(tmp_path / "threads1" / "noised-field.nmv")
    assert np.abs(field).max() > 0.5


def test_every_name_the_benchmark_tracer_swaps_exists():
    """``perfbench/spans.py``, loaded by path, times nestreg's layers by
    swapping the module attributes its ``SPANS`` names (such as
    ``nestreg.train.ssim`` and ``nestreg.cli.build_model``); each must exist,
    or the traced benchmark fails."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.SPANS
               if not hasattr(importlib.import_module(module), attr)]
    assert spans.SPANS and missing == []


def test_desk_demo_script_writes_its_nine_files_and_a_finite_report(tmp_path):
    """``scripts/train_desk_demo.py``, loaded by path, trains one epoch at 32^3
    and registers: it writes the pair and its truth field, both checkpoints,
    the curve, the field, the warped volume and the report."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "train_desk_demo.py"
    spec = importlib.util.spec_from_file_location("train_desk_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main(["--out", str(tmp_path), "--epochs", "1"]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted([
        "moving.nmv", "fixed.nmv", "truth_field.nmv", "checkpoint_best.npz",
        "checkpoint_last.npz", "curve.csv", "field.nmv", "warped.nmv", "report.json",
    ])
    metrics = json.loads((tmp_path / "report.json").read_text())["metrics"]
    assert set(metrics) == {f.name for f in fields(nr.RegistrationReport)}
    assert all(map(math.isfinite, metrics.values()))
