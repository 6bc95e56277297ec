"""Volume file format, report files, and the command-line interface
(including its exit-code contract: 1 usage, 2 data, 3 numeric)."""

from __future__ import annotations

import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

import nestreg as nr
import nestreg.diagnostics
from nestreg import ModelConfig, ShapeError, Tensor, VolumeFormatError
from nestreg.cli import main
from nestreg.errors import BadMagicError, TruncatedFileError, UnknownDtypeError
from nestreg.volio import ENGINE_VERSION, report_payload


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


def test_load_volume_rejects_corrupt_files(tmp_path, rng):
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

    # every format error is a VolumeFormatError for coarse handling
    assert issubclass(BadMagicError, VolumeFormatError)
    assert issubclass(UnknownDtypeError, VolumeFormatError)
    assert issubclass(TruncatedFileError, VolumeFormatError)


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
                    dae_blocks=1, lka_blocks=1, precision=64),
        seed=0,
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


def test_cli_missing_file_is_a_data_error(tmp_path, capsys):
    rc = main(["metrics", "--a", str(tmp_path / "nope.nmv"), "--b", str(tmp_path / "nope.nmv")])
    assert rc == 2


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
        "heads": 1, "dae_blocks": 1, "lka_blocks": 1,
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


def test_cli_train_then_register_end_to_end(tmp_path, capsys):
    data = tmp_path / "data"
    run = tmp_path / "run"
    main(["synth", "--out", str(data), "--shape", "12", "--seed", "5",
          "--amplitude", "1.5", "--bits", "64"])
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "channels": [2, 4], "strides": [2, 2], "kernels": [3, 3],
        "heads": 1, "dae_blocks": 1, "lka_blocks": 1,
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


def test_cli_register_with_an_invalid_checkpoint_config_is_a_config_error(tmp_path, capsys):
    main(["synth", "--out", str(tmp_path), "--shape", "8", "--seed", "1"])
    cfg = ModelConfig(channels=(2, 4), strides=(2, 2), kernels=(3, 3), heads=3)
    ckpt = tmp_path / "bad.npz"
    nr.save_checkpoint(ckpt, nr.Checkpoint(config=cfg, params={}, epoch=1, rng_state={}))
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


def test_cli_train_with_empty_data_dir_is_a_data_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["train", "--data", str(empty), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "no pairs" in capsys.readouterr().err


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
