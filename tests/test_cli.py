"""End-to-end command-line behavior: pipelines, determinism, exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from redunet import Tensor, polar_resample, read_tensor, write_tensor
from redunet import cli
from redunet.cli import main


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "redunet.cli", *map(str, argv)],
        capture_output=True,
        text=True,
    )


def _gen(tmp_path, tag=""):
    feats = tmp_path / f"feats{tag}.rtf"
    labels = tmp_path / f"labels{tag}.rtf"
    rc = main([
        "gen-gaussians", "--dims", "3", "--classes", "3", "--per-class", "40",
        "--sigma", "0.1", "--seed", "7",
        "--out-features", str(feats), "--out-labels", str(labels),
    ])
    assert rc == 0
    return feats, labels


def test_gen_gaussians_writes_expected_shapes(tmp_path):
    feats, labels = _gen(tmp_path)
    assert read_tensor(feats).shape == (3, 120)
    assert read_tensor(labels).shape == (120,)
    assert (tmp_path / "feats.rtf.manifest.json").exists()


def test_gen_gaussians_is_byte_deterministic(tmp_path):
    f1, l1 = _gen(tmp_path, "a")
    f2, l2 = _gen(tmp_path, "b")
    assert f1.read_bytes() == f2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def test_rate_prints_csv_line(tmp_path, capsys):
    feats, labels = _gen(tmp_path)
    assert main(["rate", "--features", str(feats), "--labels", str(labels),
                 "--eps-sq", "0.25"]) == 0
    line = capsys.readouterr().out.strip()
    R, Rc, dR = map(float, line.split(","))
    assert R > Rc > 0
    assert dR == pytest.approx(R - Rc)


def test_rate_single_class_has_zero_reduction(tmp_path, capsys):
    feats, _ = _gen(tmp_path)
    labels = tmp_path / "ones.rtf"
    write_tensor(labels, Tensor.from_array(np.zeros(120, dtype=np.uint32)))
    main(["rate", "--features", str(feats), "--labels", str(labels),
          "--eps", "0.5"])
    dR = float(capsys.readouterr().out.strip().split(",")[2])
    assert abs(dR) < 1e-10


def test_construct_forward_round_trip(tmp_path):
    feats, labels = _gen(tmp_path)
    model = tmp_path / "model.rnm"
    out = tmp_path / "out.rtf"
    loss = tmp_path / "loss.csv"
    assert main([
        "construct", "--features", str(feats), "--labels", str(labels),
        "--layers", "5", "--eta", "0.5", "--eps", "0.1",
        "--model-out", str(model), "--features-out", str(out),
        "--loss-out", str(loss),
    ]) == 0
    fwd = tmp_path / "fwd.rtf"
    assert main(["forward", "--model", str(model), "--features", str(feats),
                 "--out", str(fwd)]) == 0
    np.testing.assert_array_equal(
        read_tensor(fwd).to_array(), read_tensor(out).to_array()
    )
    lines = loss.read_text().splitlines()
    assert lines[0] == "layer,R,Rc,dR"
    assert len(lines) == 6


def test_construct_is_byte_deterministic(tmp_path):
    feats, labels = _gen(tmp_path)
    blobs = []
    for tag in ("a", "b"):
        model = tmp_path / f"model{tag}.rnm"
        main(["construct", "--features", str(feats), "--labels", str(labels),
              "--layers", "3", "--eta", "0.5", "--eps-sq", "0.01",
              "--model-out", str(model)])
        blobs.append(model.read_bytes())
    assert blobs[0] == blobs[1]


def test_invariant_pipeline_1d(tmp_path):
    rng = np.random.default_rng(0)
    sig = tmp_path / "sig.rtf"
    labels = tmp_path / "lab.rtf"
    write_tensor(sig, Tensor.from_array(rng.standard_normal((6, 8))))
    write_tensor(labels, Tensor.from_array(
        np.array([0, 0, 0, 1, 1, 1], dtype=np.uint32)))

    lifted = tmp_path / "lifted.rtf"
    assert main(["lift1d", "--features", str(sig), "--channels", "4",
                 "--kernel-size", "3", "--seed", "1", "--out", str(lifted)]) == 0
    assert read_tensor(lifted).shape == (6, 4, 8)

    aug_f, aug_l = tmp_path / "augf.rtf", tmp_path / "augl.rtf"
    assert main(["augment", "--features", str(lifted), "--labels", str(labels),
                 "--stride", "4", "--kind", "1d",
                 "--out-features", str(aug_f), "--out-labels", str(aug_l)]) == 0
    assert read_tensor(aug_f).shape == (12, 4, 8)

    model = tmp_path / "model.rns"
    out = tmp_path / "inv_out.rtf"
    assert main(["construct-inv1d", "--features", str(lifted),
                 "--labels", str(labels), "--layers", "3", "--eta", "0.5",
                 "--eps", "0.1", "--model-out", str(model),
                 "--features-out", str(out)]) == 0
    fwd = tmp_path / "inv_fwd.rtf"
    assert main(["forward-inv1d", "--model", str(model), "--features",
                 str(lifted), "--out", str(fwd)]) == 0
    np.testing.assert_allclose(
        read_tensor(fwd).to_array(), read_tensor(out).to_array(), atol=1e-12
    )


def test_polar_command(tmp_path):
    imgs = tmp_path / "imgs.rtf"
    write_tensor(imgs, Tensor.from_array(
        np.random.default_rng(1).standard_normal((2, 16, 16))))
    out = tmp_path / "polar.rtf"
    assert main(["polar", "--images", str(imgs), "--gamma", "12",
                 "--radii", "5", "--out", str(out)]) == 0
    assert read_tensor(out).shape == (2, 5, 12)


def test_polar_command_writes_a_single_image_as_a_stack_of_one(tmp_path):
    img = np.random.default_rng(2).random((16, 16))
    imgs, out = tmp_path / "img.rtf", tmp_path / "polar.rtf"
    write_tensor(imgs, Tensor.from_array(img))
    assert main(["polar", "--images", str(imgs), "--gamma", "12",
                 "--radii", "5", "--out", str(out)]) == 0
    np.testing.assert_array_equal(read_tensor(out).to_array(), polar_resample(img, 12, 5)[None])


def test_input_too_large_for_memory_exits_3_without_a_manifest(tmp_path, monkeypatch, capsys):
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "gen_gaussian_sphere", out_of_memory)
    feats = tmp_path / "feats.rtf"
    assert main(["gen-gaussians", "--dims", "100000000000", "--classes", "1",
                 "--per-class", "1", "--sigma", "0.1", "--seed", "0",
                 "--out-features", str(feats), "--out-labels", str(tmp_path / "l.rtf")]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_nsc_fit_predict_reports_accuracy(tmp_path, capsys):
    feats, labels = _gen(tmp_path)
    bundle = tmp_path / "bundle"
    assert main(["nsc-fit", "--features", str(feats), "--labels", str(labels),
                 "--r", "2", "--out", str(bundle)]) == 0
    assert (bundle / "means.rtf").exists()
    assert (bundle / "manifest.txt").exists()
    pred = tmp_path / "pred.rtf"
    assert main(["nsc-predict", "--bundle", str(bundle), "--features",
                 str(feats), "--out", str(pred), "--labels", str(labels)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("accuracy,")
    assert float(line.split(",")[1]) == 1.0


def test_nsc_reads_the_bank_augment_writes_as_its_flattened_columns(tmp_path):
    # a rank-3 or rank-4 features tensor holds one sample per leading index,
    # so augment's (N, C, H, W) bank needs no flattening between subcommands
    x = np.random.default_rng(0).standard_normal((12, 2, 6, 4))
    write_tensor(tmp_path / "x.rtf", Tensor.from_array(x))
    write_tensor(tmp_path / "y.rtf", Tensor.from_array((np.arange(12) % 3).astype("<u4")))
    bank, labels = tmp_path / "bank.rtf", tmp_path / "bank_y.rtf"
    assert main(["augment", "--features", str(tmp_path / "x.rtf"), "--labels",
                 str(tmp_path / "y.rtf"), "--stride", "2", "--kind", "2d",
                 "--out-features", str(bank), "--out-labels", str(labels)]) == 0
    b = read_tensor(bank).to_array()
    assert b.shape == (72, 2, 6, 4)
    flat = tmp_path / "flat.rtf"
    write_tensor(flat, Tensor.from_array(b.reshape(len(b), -1).T))
    for features, out in ((bank, tmp_path / "a"), (flat, tmp_path / "b")):
        assert main(["nsc-fit", "--features", str(features), "--labels", str(labels),
                     "--r", "3", "--out", str(out)]) == 0
        assert main(["nsc-predict", "--bundle", str(out), "--features", str(features),
                     "--out", str(out / "pred.rtf"), "--labels", str(labels)]) == 0
    names = sorted(p.name for p in (tmp_path / "a").glob("*.rtf"))
    assert names == ["basis_0.rtf", "basis_1.rtf", "basis_2.rtf", "means.rtf", "pred.rtf"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_nsc_predict_with_too_few_labels_exits_3_and_writes_nothing(tmp_path):
    rng = np.random.default_rng(3)
    feats = tmp_path / "feats.rtf"
    write_tensor(feats, Tensor.from_array(rng.standard_normal((4, 6))))
    labels = tmp_path / "labels.rtf"
    write_tensor(labels, Tensor.from_array(np.repeat([0, 1], 3).astype(np.uint32)))
    bundle = tmp_path / "bundle"
    assert main(["nsc-fit", "--features", str(feats), "--labels", str(labels),
                 "--r", "1", "--out", str(bundle)]) == 0
    write_tensor(labels, Tensor.from_array(np.array([0, 0, 0, 1, 1], dtype=np.uint32)))
    pred = tmp_path / "pred.rtf"
    assert main(["nsc-predict", "--bundle", str(bundle), "--features", str(feats),
                 "--out", str(pred), "--labels", str(labels)]) == 3
    assert not pred.exists()


def test_cossim_identity_for_orthonormal_features(tmp_path, capsys):
    feats = tmp_path / "eye.rtf"
    write_tensor(feats, Tensor.from_array(np.eye(3)))
    assert main(["cossim", "--features", str(feats)]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()]
    np.testing.assert_allclose(np.array(rows, dtype=float), np.eye(3))


def test_mnist_import_round_trip(tmp_path):
    import struct

    idx_images = tmp_path / "images.idx"
    idx_labels = tmp_path / "labels.idx"
    raw = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
    idx_images.write_bytes(struct.pack(">IIII", 0x803, 2, 4, 4) + raw.tobytes())
    idx_labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes([3, 8]))
    out_i, out_l = tmp_path / "i.rtf", tmp_path / "l.rtf"
    assert main(["mnist-import", "--images", str(idx_images),
                 "--labels", str(idx_labels),
                 "--out-images", str(out_i), "--out-labels", str(out_l)]) == 0
    np.testing.assert_allclose(read_tensor(out_i).to_array(), raw / 255.0)
    np.testing.assert_array_equal(read_tensor(out_l).to_array(), [3, 8])


def test_usage_error_exits_2():
    proc = run_cli("gen-gaussians", "--dims", "3")
    assert proc.returncode == 2


def test_invalid_per_class_exits_3(tmp_path):
    proc = run_cli(
        "gen-gaussians", "--dims", "3", "--classes", "2", "--per-class", "0",
        "--sigma", "0.1", "--seed", "1",
        "--out-features", tmp_path / "f.rtf", "--out-labels", tmp_path / "l.rtf",
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")


def test_missing_input_exits_3(tmp_path):
    proc = run_cli("rate", "--features", tmp_path / "nope.rtf",
                   "--labels", tmp_path / "nope2.rtf", "--eps", "0.5")
    assert proc.returncode == 3
    assert "error" in proc.stderr


def test_corrupt_file_exits_3(tmp_path):
    bad = tmp_path / "bad.rtf"
    bad.write_bytes(b"garbage")
    proc = run_cli("rate", "--features", bad, "--labels", bad, "--eps", "0.5")
    assert proc.returncode == 3


def test_numeric_failure_exits_4(tmp_path):
    feats = tmp_path / "nan.rtf"
    labels = tmp_path / "lab.rtf"
    Z = np.full((3, 4), np.nan)
    write_tensor(feats, Tensor.from_array(Z))
    write_tensor(labels, Tensor.from_array(np.zeros(4, dtype=np.uint32)))
    proc = run_cli("rate", "--features", feats, "--labels", labels,
                   "--eps", "0.5")
    assert proc.returncode == 4


def test_construct_with_fewer_labels_than_samples_exits_3(tmp_path):
    feats, _ = _gen(tmp_path)
    labels = tmp_path / "short.rtf"
    write_tensor(labels, Tensor.from_array(np.zeros(119, dtype=np.uint32)))
    proc = run_cli("construct", "--features", feats, "--labels", labels,
                   "--layers", "1", "--eta", "0.5", "--eps", "0.1",
                   "--model-out", tmp_path / "model.rnm")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


def test_forward_inv1d_on_a_truncated_model_exits_3(tmp_path):
    model = tmp_path / "short.rns"
    model.write_bytes(b"RNS1")
    feats = tmp_path / "sig.rtf"
    write_tensor(feats, Tensor.from_array(np.ones((2, 3, 4))))
    proc = run_cli("forward-inv1d", "--model", model, "--features", feats,
                   "--out", tmp_path / "out.rtf")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("features", [np.ones(4), np.ones((3, 0))])
def test_rate_on_features_that_are_not_an_n_by_m_matrix_exits_3(tmp_path, features):
    feats = tmp_path / "feats.rtf"
    write_tensor(feats, Tensor.from_array(features))
    labels = tmp_path / "labels.rtf"
    write_tensor(labels, Tensor.from_array(np.zeros(4, dtype=np.uint32)))
    assert main(["rate", "--features", str(feats), "--labels", str(labels),
                 "--eps", "0.5"]) == 3


def test_real_valued_labels_exit_3(tmp_path, capsys):
    feats, _ = _gen(tmp_path)
    labels = tmp_path / "real_labels.rtf"
    write_tensor(labels, Tensor.from_array(np.tile([0.7, 1.2, 0.2, 1.9], 30)))
    assert main(["rate", "--features", str(feats), "--labels", str(labels),
                 "--eps", "0.5"]) == 3
    assert "whole numbers" in capsys.readouterr().err


def test_whole_number_float_labels_are_accepted(tmp_path, capsys):
    feats, labels = _gen(tmp_path)
    as_float = tmp_path / "float_labels.rtf"
    write_tensor(as_float, Tensor.from_array(read_tensor(labels).to_array().astype(float)))
    for lab in (labels, as_float):
        assert main(["rate", "--features", str(feats), "--labels", str(lab),
                     "--eps", "0.5"]) == 0
    first, second = capsys.readouterr().out.strip().splitlines()
    assert first == second


def test_lift1d_with_negative_tau_exits_3(tmp_path):
    signals = tmp_path / "signals.rtf"
    write_tensor(signals, Tensor.from_array(np.ones((2, 8))))
    assert main(["lift1d", "--features", str(signals), "--channels", "2",
                 "--kernel-size", "3", "--seed", "0", "--tau", "-1",
                 "--out", str(tmp_path / "out.rtf")]) == 3


@pytest.mark.parametrize("flag, value", [("--channels", "0"), ("--channels", "-2"),
                                         ("--kernel-size", "0"), ("--kernel-size", "-3")])
def test_lift1d_with_empty_or_negative_sizes_exits_3_and_writes_nothing(tmp_path, flag, value):
    signals = tmp_path / "signals.rtf"
    write_tensor(signals, Tensor.from_array(np.ones((3, 8))))
    out = tmp_path / "out.rtf"
    argv = ["lift1d", "--features", str(signals), "--channels", "2", "--kernel-size", "3",
            "--seed", "0", "--out", str(out)]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 3
    assert not out.exists()


def test_output_into_a_missing_directory_exits_3(tmp_path):
    assert main([
        "gen-gaussians", "--dims", "3", "--classes", "2", "--per-class", "5",
        "--sigma", "0.1", "--seed", "1",
        "--out-features", str(tmp_path / "nope" / "f.rtf"),
        "--out-labels", str(tmp_path / "nope" / "l.rtf"),
    ]) == 3
