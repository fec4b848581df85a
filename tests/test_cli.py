"""Command-line behavior tests, run in process through cli.main()."""

import numpy as np
import pytest
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from falconnet import (BlockConfig, ChannelSlot, ModelConfig, SpatialSlot, WeightStore,
                       build_model, count_flops, count_params, forward, fuse_model,
                       init_weights, iter_param_entries, load_config, load_input_tensor,
                       load_weights, preset_config, save_config, save_weights)
from falconnet.cli import main


def tiny_cfg():
    return ModelConfig(stem_channels=8, stage_blocks=(1, 1, 1, 1),
                       stage_channels=(8, 16, 32, 64),
                       block=BlockConfig(expansion=Fraction(6),
                                         spatial=SpatialSlot("repso"),
                                         channel=ChannelSlot("refco")),
                       head_width=16, num_classes=7, input_resolution=32)


@pytest.fixture
def workdir(tmp_path):
    cfg = tiny_cfg()
    cfg_path = tmp_path / "model.json"
    save_config(cfg, cfg_path)
    graph = build_model(cfg)
    store = init_weights(graph, seed=42)
    weights_path = tmp_path / "train.falc"
    save_weights(store, weights_path)
    return tmp_path, cfg, cfg_path, weights_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenConfig:
    @pytest.mark.parametrize("preset", ["falconnet", "lightnet-repso", "lightnet-irb"])
    def test_presets_emit_buildable_configs(self, tmp_path, capsys, preset):
        out = tmp_path / f"{preset}.json"
        code, stdout, _ = run(capsys, "gen-config", preset, "--out", str(out))
        assert code == 0
        assert f"wrote {out}" in stdout
        cfg = load_config(out)
        build_model(cfg)
        assert cfg.stage_blocks == (3, 3, 9, 3)

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["gen-config", "mysterynet", "--out", str(tmp_path / "x.json")])
        assert e.value.code != 0


class TestSummarize:
    def test_totals_match_library_accounting(self, workdir, capsys):
        _, cfg, cfg_path, _ = workdir
        code, out, _ = run(capsys, "summarize", "--config", str(cfg_path))
        assert code == 0
        lines = out.splitlines()
        totals = {}
        for line in lines:
            parts = line.split("\t")
            if parts[0] == "total":
                totals[parts[1]] = (int(parts[2]), int(parts[3]))
        graph = build_model(cfg)
        params = count_params(graph, mode="inference")
        flops = count_flops(graph, cfg.input_resolution, mode="inference")
        assert totals["backbone"] == (params.backbone_params, flops.backbone_flops)
        assert totals["model"] == (params.total_params, flops.total_flops)
        assert totals["head"] == (params.params_by_category["head"],
                                  flops.flops_by_category["head"])
        shares = [float(l.split("\t")[2]) for l in lines if l.startswith("share\t")]
        assert sum(shares) == pytest.approx(100.0, abs=0.05)

    def test_output_is_byte_stable(self, workdir, capsys):
        _, _, cfg_path, _ = workdir
        _, out1, _ = run(capsys, "summarize", "--config", str(cfg_path))
        _, out2, _ = run(capsys, "summarize", "--config", str(cfg_path))
        assert out1 == out2

    @pytest.mark.parametrize("doc", [
        '{"head_width": "x"}',
        '{"head_width": null}',
        '{"stage_blocks": 3}',
        '{"block": {"spatial": {"n_parallel_3x3": "3"}}}',
        '{"block": {"residual": "no"}}',
        '{"block": {"expansion": 1e400}}',
        "[" * 200000,
    ], ids=lambda doc: doc[:40])
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        code, out, err = run(capsys, "summarize", "--config", str(bad))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_bad_config_reports_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": true}')
        code, _, err = run(capsys, "summarize", "--config", str(bad))
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("data, message", [
        (b'{"block": {"spatial": {"kind": "dw_conv", "n_parallel_3x3": 5}}}',
         "block.spatial.n_parallel_3x3 is only valid for repso spatial slots"),
        (b"\xff", "invalid JSON"),
    ], ids=["repso-option-on-dw-conv", "not-utf-8"])
    def test_rejected_config_file_is_one_error_line(self, tmp_path, capsys, data, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        code, out, err = run(capsys, "summarize", "--config", str(bad))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err


class TestFuseAndVerify:
    def test_fuse_writes_passing_weights(self, workdir, capsys):
        tmp_path, cfg, cfg_path, weights_path = workdir
        fused_path = tmp_path / "fused.falc"
        code, out, _ = run(capsys, "fuse", "--config", str(cfg_path),
                           "--weights", str(weights_path), "--out", str(fused_path),
                           "--trials", "4", "--tolerance", "1e-3")
        assert code == 0
        assert "passed\tyes" in out
        assert fused_path.exists()

        # Feeding the fused file back is reported as having nothing to fuse.
        code, _, err = run(capsys, "fuse", "--config", str(cfg_path),
                           "--weights", str(fused_path), "--out",
                           str(tmp_path / "again.falc"))
        assert code == 1
        assert "no fusible slots" in err

    def test_verify_and_fuse_reject_fused_weights_alike(self, workdir, capsys):
        tmp_path, _, cfg_path, weights_path = workdir
        fused_path = tmp_path / "fused.falc"
        assert main(["fuse", "--config", str(cfg_path), "--weights", str(weights_path),
                     "--out", str(fused_path), "--trials", "2", "--tolerance", "1e-3"]) == 0
        capsys.readouterr()
        errs = []
        for argv in (["verify"], ["fuse", "--out", str(tmp_path / "again.falc")]):
            code, out, err = run(capsys, *argv, "--config", str(cfg_path),
                                 "--weights", str(fused_path))
            assert (code, out) == (1, "")
            errs.append(err)
        assert errs[0] == errs[1]
        assert len(errs[0].splitlines()) == 1 and errs[0].startswith("error: ")
        assert "inference form" in errs[0]

    def test_fuse_rejects_corrupted_weights(self, workdir, capsys):
        tmp_path, _, cfg_path, weights_path = workdir
        corrupted = tmp_path / "corrupt.falc"
        corrupted.write_bytes(b"JUNK" + weights_path.read_bytes()[4:])
        code, _, err = run(capsys, "fuse", "--config", str(cfg_path),
                           "--weights", str(corrupted), "--out", str(tmp_path / "o.falc"))
        assert code == 1
        assert err.startswith("error: ")

    def test_nan_bn_variance_is_one_error_line(self, workdir, capsys):
        tmp_path, cfg, cfg_path, weights_path = workdir
        store = load_weights(weights_path)
        key = next(e.key for e in iter_param_entries(build_model(cfg)) if e.role == "bn_var")
        poisoned = tmp_path / "nan.falc"
        save_weights(WeightStore({k: np.full_like(v, np.nan) if k == key else v
                                  for k, v in store.items()}), poisoned)
        code, out, err = run(capsys, "verify", "--config", str(cfg_path),
                             "--weights", str(poisoned), "--trials", "1")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"{key} + eps must be positive" in err  # the key ends in .var

    @pytest.mark.parametrize("key, value", [
        ("stem.bn1.gamma", np.nan),
        ("s1.b0.expand.s2.3.mean", np.inf),
        ("s1.b0.expand.s1.0.beta", -np.inf),
        ("s1.b0.spatial.dw3x3_0.gamma", np.nan),
    ])
    def test_fuse_rejects_non_finite_bn_statistic(self, workdir, capsys, key, value):
        # A plain BN, a RefCO branch's BN of either stage and a RepSO
        # branch's BN: one error line, and no fused file is written.
        tmp_path, _, cfg_path, weights_path = workdir
        store = load_weights(weights_path)
        assert key in store
        poisoned = tmp_path / "poisoned.falc"
        save_weights(WeightStore({k: np.where(np.arange(v.size) == 1, value, v).reshape(v.shape)
                                  if k == key else v for k, v in store.items()}), poisoned)
        out_path = tmp_path / "fused.falc"
        code, out, err = run(capsys, "fuse", "--config", str(cfg_path),
                             "--weights", str(poisoned), "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"error: {key} must be finite, violated at channel 1\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("prefix", ["stem.bn1", "s1.b0.expand.s2.3",
                                        "s1.b0.spatial.dw3x3_0"])
    def test_fuse_rejects_overflowing_bn_scale(self, workdir, capsys, prefix):
        # Finite statistics, gamma 3e38 over sqrt(0 + eps), whose float32
        # scale overflows: one error line, and no fused file is written.
        tmp_path, _, cfg_path, weights_path = workdir
        store = load_weights(weights_path)
        poison = {f"{prefix}.gamma": 3e38, f"{prefix}.var": 0.0}
        poisoned = tmp_path / "poisoned.falc"
        save_weights(WeightStore({k: np.where(np.arange(v.size) == 1, poison[k], v)
                                  if k in poison else v for k, v in store.items()}), poisoned)
        out_path = tmp_path / "fused.falc"
        code, out, err = run(capsys, "fuse", "--config", str(cfg_path),
                             "--weights", str(poisoned), "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"error: {prefix}.scale must be finite, violated at channel 1\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["verify", "infer"])
    @pytest.mark.parametrize("key", ["stem.bn1.gamma", "head.fc.bias"])
    def test_wrong_shaped_weight_is_one_error_line(self, workdir, capsys, command, key):
        tmp_path, _, cfg_path, weights_path = workdir
        store = load_weights(weights_path)
        shape = store.get(key).shape
        broken = tmp_path / "broken.falc"
        save_weights(WeightStore({k: v.reshape(*shape, 1) if k == key else v
                                  for k, v in store.items()}), broken)
        ppm = tmp_path / "img.ppm"
        ppm.write_text("P3\n1 1\n255\n0 128 255\n")
        args = ["--config", str(cfg_path), "--weights", str(broken)]
        code, out, err = run(capsys, command, *([str(ppm)] if command == "infer" else []), *args)
        assert (code, out) == (1, "")
        assert err == f"error: {key} has shape {(*shape, 1)}, expected {shape}\n"

    @pytest.mark.parametrize("command, form, key, index", [
        ("infer", "fused", "s1.b0.expand.w1", 0),
        ("infer", "train", "head.fc.weight", 0),
        ("fuse", "train", "s2.b0.expand.s1.0.weight", 0),
        ("verify", "train", "stem.pw.bias", 5),
        ("infer", "fused", "s4.b0.spatial.weight", 17),
    ])
    def test_non_finite_weight_is_one_error_line(self, workdir, capsys, command, form, key,
                                                 index):
        # A NaN in a weight or bias of either form: one error line naming
        # its key and flat index, nothing on stdout, and no fused file.
        tmp_path, cfg, cfg_path, weights_path = workdir
        store = load_weights(weights_path)
        if form == "fused":
            store = fuse_model(build_model(cfg), store)[1]
        assert key in store
        poisoned = tmp_path / "poisoned.falc"
        save_weights(WeightStore({k: np.where(np.arange(v.size) == index, np.nan,
                                              v.reshape(-1)).reshape(v.shape)
                                  if k == key else v for k, v in store.items()}), poisoned)
        ppm = tmp_path / "img.ppm"
        ppm.write_text("P3\n1 1\n255\n0 128 255\n")
        out_path = tmp_path / "fused.falc"
        args = {"infer": [str(ppm)], "fuse": ["--out", str(out_path)], "verify": []}[command]
        code, out, err = run(capsys, command, *args, "--config", str(cfg_path),
                             "--weights", str(poisoned))
        assert (code, out) == (1, "")
        assert err == f"error: {key} must be finite, violated at index {index}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["verify", "fuse"])
    @pytest.mark.parametrize("key, message", [
        # Finite weights whose train-form logits overflow float32.
        ("head.fc.weight", "train-form logits are not finite, first at class 0"),
        # Finite RefCO weights whose merged SF-Conv weight overflows.
        ("s2.b0.expand.s1.0.weight", "s2.b0.expand.w1 must be finite, violated at index 32"),
    ])
    def test_overflow_is_one_error_line(self, workdir, capsys, command, key, message):
        # Every element of one finite weight set to 3e38: one error line
        # (no numpy warning, no report), nothing on stdout and no fused file.
        tmp_path, _, cfg_path, weights_path = workdir
        store = load_weights(weights_path)
        big = tmp_path / "big.falc"
        save_weights(WeightStore({k: np.full_like(v, 3e38) if k == key else v
                                  for k, v in store.items()}), big)
        out_path = tmp_path / "fused.falc"
        args = ["--out", str(out_path)] if command == "fuse" else []
        code, out, err = run(capsys, command, *args, "--config", str(cfg_path),
                             "--weights", str(big), "--trials", "1")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert not out_path.exists()

    def test_verify_reports_and_exits_zero(self, workdir, capsys):
        _, _, cfg_path, weights_path = workdir
        code, out, _ = run(capsys, "verify", "--config", str(cfg_path),
                           "--weights", str(weights_path), "--trials", "3",
                           "--tolerance", "1e-3")
        assert code == 0
        fields = out.split()
        assert fields[0] == "fusion"
        assert "passed" in fields

    @pytest.mark.parametrize("command", ["verify", "fuse"])
    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_tolerance_no_error_can_meet_is_one_error_line(self, workdir, capsys, command,
                                                           tolerance):
        tmp_path, _, cfg_path, weights_path = workdir
        out_path = tmp_path / "fused.falc"
        args = ["--out", str(out_path)] if command == "fuse" else []
        code, out, err = run(capsys, command, *args, "--config", str(cfg_path),
                             "--weights", str(weights_path), "--trials", "1",
                             "--tolerance", tolerance)
        assert (code, out) == (1, "")
        assert err == f"error: tolerance must be >= 0, got {float(tolerance)}\n"
        assert not out_path.exists()

    def test_verify_fails_on_unreachable_tolerance(self, workdir, capsys):
        _, _, cfg_path, weights_path = workdir
        code, out, _ = run(capsys, "verify", "--config", str(cfg_path),
                           "--weights", str(weights_path), "--trials", "2",
                           "--tolerance", "1e-12")
        assert code == 1
        assert "passed\tno" in out


def zero_store(graph):
    store = WeightStore()
    for e in iter_param_entries(graph):
        store.put(e.key, np.zeros(e.shape, np.float32))
    return store


def write_input_container(path, x):
    store = WeightStore()
    store.put("input", x)
    save_weights(store, path)


class TestInfer:
    def test_zero_model_ranks_by_class_index(self, workdir, capsys):
        tmp_path, cfg, cfg_path, _ = workdir
        graph = build_model(cfg)
        zeros_path = tmp_path / "zeros.falc"
        save_weights(zero_store(graph), zeros_path)
        x = np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype(np.float32)
        input_path = tmp_path / "input.falc"
        write_input_container(input_path, x)
        code, out, _ = run(capsys, "infer", str(input_path), "--config", str(cfg_path),
                           "--weights", str(zeros_path), "--top-k", "3")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["0", "1", "2"]
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_fused_weights_give_same_topk(self, workdir, capsys):
        tmp_path, cfg, cfg_path, weights_path = workdir
        fused_path = tmp_path / "fused.falc"
        run(capsys, "fuse", "--config", str(cfg_path), "--weights", str(weights_path),
            "--out", str(fused_path), "--trials", "2", "--tolerance", "1e-3")
        x = np.random.default_rng(1).standard_normal((1, 3, 32, 32)).astype(np.float32)
        input_path = tmp_path / "input.falc"
        write_input_container(input_path, x)
        _, out_train, _ = run(capsys, "infer", str(input_path), "--config", str(cfg_path),
                              "--weights", str(weights_path))
        _, out_fused, _ = run(capsys, "infer", str(input_path), "--config", str(cfg_path),
                              "--weights", str(fused_path))
        classes_train = [l.split("\t")[1] for l in out_train.splitlines()[1:]]
        classes_fused = [l.split("\t")[1] for l in out_fused.splitlines()[1:]]
        assert classes_train == classes_fused

    def test_ppm_input_and_softmax(self, workdir, capsys):
        tmp_path, cfg, cfg_path, weights_path = workdir
        img = np.random.default_rng(2).integers(0, 256, (8, 8, 3), dtype=np.uint8)
        ppm = tmp_path / "img.ppm"
        with open(ppm, "wb") as f:
            f.write(b"P6\n8 8\n255\n" + img.tobytes())
        code, out, _ = run(capsys, "infer", str(ppm), "--config", str(cfg_path),
                           "--weights", str(weights_path), "--softmax", "--top-k", "7")
        assert code == 0
        scores = [float(l.split("\t")[2]) for l in out.splitlines()[1:]]
        assert sum(scores) == pytest.approx(1.0, abs=1e-4)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_ppm_sample_above_maxval_is_one_error_line(self, workdir, capsys):
        tmp_path, _, cfg_path, weights_path = workdir
        ppm = tmp_path / "over.ppm"
        ppm.write_text("P3\n1 1\n255\n300 0 0\n")
        code, out, err = run(capsys, "infer", str(ppm), "--config", str(cfg_path),
                             "--weights", str(weights_path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_overflowing_logits_are_one_error_line(self, workdir, capsys):
        # Finite weights whose logits overflow float32: one error line.
        tmp_path, _, cfg_path, weights_path = workdir
        store = load_weights(weights_path)
        big = tmp_path / "big.falc"
        save_weights(WeightStore({k: np.full_like(v, 3e38) if k == "head.fc.weight" else v
                                  for k, v in store.items()}), big)
        ppm = tmp_path / "img.ppm"
        ppm.write_text("P3\n1 1\n255\n0 128 255\n")
        code, out, err = run(capsys, "infer", str(ppm), "--config", str(cfg_path),
                             "--weights", str(big))
        assert (code, out) == (1, "")
        assert err == "error: logits are not finite, first at class 0\n"

    def test_missing_input_file(self, workdir, capsys):
        tmp_path, _, cfg_path, weights_path = workdir
        code, _, err = run(capsys, "infer", str(tmp_path / "nope.ppm"),
                           "--config", str(cfg_path), "--weights", str(weights_path))
        assert code == 1
        assert err.startswith("error: ")


@pytest.fixture
def falcon_files(tmp_path):
    """The 32 px falconnet preset's config, train file and fused file, and a
    file of mixed form: the train entries, then the fused form's own."""
    cfg = replace(preset_config("falconnet"), input_resolution=32)
    cfg_path = tmp_path / "falconnet.json"
    save_config(cfg, cfg_path)
    train = init_weights(build_model(cfg), seed=3)
    _, fused = fuse_model(build_model(cfg), train)
    mixed = WeightStore(train.items())
    for key, arr in fused.items():
        if key not in mixed:
            mixed.put(key, arr)
    paths = {}
    for name, store in (("train", train), ("fused", fused), ("mixed", mixed)):
        paths[name] = tmp_path / f"{name}.falc"
        save_weights(store, paths[name])
    ppm = tmp_path / "img.ppm"
    ppm.write_text("P3\n2 2\n255\n0 0 0 255 255 255 10 20 30 200 100 50\n")
    return cfg, cfg_path, paths, ppm, train, mixed


class TestWeightFileForm:
    """A weight file holds exactly the entries of one form of the model."""

    @pytest.mark.parametrize("command", ["infer", "verify", "fuse"])
    def test_mixed_form_file_is_one_error_line(self, falcon_files, capsys, command):
        # All the train entries are there, so the train form is chosen; the
        # first entry it does not declare is the fused form's first own one.
        cfg, cfg_path, paths, ppm, train, mixed = falcon_files
        out_path = paths["mixed"].parent / "out.falc"
        args = {"infer": [str(ppm)], "verify": ["--trials", "1"],
                "fuse": ["--trials", "1", "--out", str(out_path)]}[command]
        code, out, err = run(capsys, command, *args, "--config", str(cfg_path),
                             "--weights", str(paths["mixed"]))
        extra = next(key for key in mixed.names() if key not in train)
        assert (code, out) == (1, "")
        assert err == (f"error: weights hold '{extra}', which the model's train form "
                       f"does not declare\n")
        assert not out_path.exists()

    def test_single_form_files_keep_their_output(self, falcon_files, capsys):
        cfg, cfg_path, paths, ppm, train, _ = falcon_files
        x = load_input_tensor(ppm, cfg.input_resolution)
        fused_graph, fused = fuse_model(build_model(cfg), train)
        for name, (graph, store) in (("train", (build_model(cfg), train)),
                                     ("fused", (fused_graph, fused))):
            scores = forward(graph, store, x)[0]
            top = np.argsort(-scores, kind="stable")[:5]
            expected = "rank\tclass\tscore\n" + "".join(
                f"{rank}\t{int(i)}\t{scores[i]:.6f}\n" for rank, i in enumerate(top, 1))
            code, out, err = run(capsys, "infer", str(ppm), "--config", str(cfg_path),
                                 "--weights", str(paths[name]))
            assert (code, out, err) == (0, expected, "")
        out_path, expected_path = paths["train"].parent / "out.falc", ppm.parent / "expected.falc"
        save_weights(fused, expected_path)
        code, fuse_out, _ = run(capsys, "fuse", "--trials", "1", "--out", str(out_path),
                                "--config", str(cfg_path), "--weights", str(paths["train"]))
        assert code == 0 and out_path.read_bytes() == expected_path.read_bytes()
        code, verify_out, _ = run(capsys, "verify", "--trials", "1", "--config", str(cfg_path),
                                  "--weights", str(paths["train"]))
        assert code == 0 and verify_out == fuse_out.splitlines(keepends=True)[0]
        assert "\tpassed\tyes\n" in verify_out


class TestAnalyzeRange:
    def test_dense(self, capsys):
        code, out, _ = run(capsys, "analyze-range", "--kind", "dense", "--c-in", "8")
        assert code == 0
        ranges = [int(l.split("\t")[2]) for l in out.splitlines() if l.startswith("range\t")]
        assert ranges == [8] * 8

    def test_group(self, capsys):
        code, out, _ = run(capsys, "analyze-range", "--kind", "group", "--c-in", "8",
                           "--groups", "4")
        assert code == 0
        assert "summary\tmin\t2\tmax\t2" in out

    def test_channelwise(self, capsys):
        code, out, _ = run(capsys, "analyze-range", "--kind", "channelwise",
                           "--c-in", "8", "--window", "3")
        assert code == 0
        assert "summary\tmin\t3\tmax\t3" in out

    def test_sf_full_range(self, capsys):
        code, out, _ = run(capsys, "analyze-range", "--kind", "sf", "--c-in", "16",
                           "--c-out", "16", "--reduction", "2")
        assert code == 0
        assert "summary\tmin\t16\tmax\t16" in out
        assert "kernel\t" in out.splitlines()[0]

    @pytest.mark.parametrize("kind", ["dense", "group --groups 4", "channelwise --window 3",
                                      "sf"], ids=lambda kind: kind.split()[0])
    def test_c_out_gives_one_range_per_output(self, capsys, kind):
        code, out, _ = run(capsys, "analyze-range", "--kind", *kind.split(), "--c-in", "8",
                           "--c-out", "12")
        assert code == 0
        assert sum(line.startswith("range\t") for line in out.splitlines()) == 12
        if kind == "sf":
            assert "summary\tmin\t8\tmax\t8\t" in out

    def test_group_requires_groups_flag(self, capsys):
        code, _, err = run(capsys, "analyze-range", "--kind", "group", "--c-in", "8")
        assert code == 1
        assert err.startswith("error: ")

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        # A huge --c-in fails to allocate; raise as numpy would, without allocating.
        def refuse(pattern):
            raise MemoryError("Unable to allocate 931. GiB for an array with shape "
                              "(1000000, 1000000) and data type bool")

        monkeypatch.setattr("falconnet.cli.receptive_range", refuse)
        code, out, err = run(capsys, "analyze-range", "--kind", "dense", "--c-in", "1000000")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: Unable to allocate")


class TestAnalyzeMagnitude:
    def test_grid_and_csv(self, workdir, capsys, tmp_path):
        wd, cfg, cfg_path, weights_path = workdir
        fused_path = wd / "fused.falc"
        run(capsys, "fuse", "--config", str(cfg_path), "--weights", str(weights_path),
            "--out", str(fused_path), "--trials", "2", "--tolerance", "1e-3")
        csv_path = wd / "grid.csv"
        code, out, _ = run(capsys, "analyze-magnitude", "*.spatial.weight",
                           "--weights", str(fused_path), "--out", str(csv_path))
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("magnitude\tkernels\t4\tsize\t3x3")
        grid_rows = out.splitlines()[1:4]
        values = [float(v) for row in grid_rows for v in row.split()]
        assert max(values) == pytest.approx(1.0)
        assert min(values) >= 0.0
        csv_lines = csv_path.read_text().splitlines()
        assert csv_lines[0] == "r,c,value"
        assert len(csv_lines) == 1 + 9

    def test_pattern_is_required(self, workdir, capsys):
        # No default: every model store mixes 3x3 and 1x1 rank-4 kernels.
        _, _, _, weights_path = workdir
        with pytest.raises(SystemExit) as e:
            main(["analyze-magnitude", "--weights", str(weights_path)])
        assert e.value.code == 2

    def test_no_match_is_error(self, workdir, capsys):
        _, _, _, weights_path = workdir
        code, _, err = run(capsys, "analyze-magnitude", "nothing.*",
                           "--weights", str(weights_path))
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_kernel_is_one_error_line(self, workdir, capsys, bad):
        wd, cfg, _, weights_path = workdir
        _, fused = fuse_model(build_model(cfg), load_weights(weights_path))
        key = next(k for k, a in fused.items() if a.ndim == 4 and k.endswith(".spatial.weight"))
        poisoned = fused.get(key).copy()
        poisoned.flat[poisoned.size // 2] = bad
        fused_path, csv_path = wd / "poisoned.falc", wd / "grid.csv"
        save_weights(WeightStore({k: poisoned if k == key else a for k, a in fused.items()}),
                     fused_path)
        code, out, err = run(capsys, "analyze-magnitude", "*.spatial.weight",
                             "--weights", str(fused_path), "--out", str(csv_path))
        assert (code, out) == (1, "")
        assert err == (f"error: {key} must be finite, violated at index "
                       f"{poisoned.size // 2}\n")
        assert not csv_path.exists()

    def test_unwritable_out_prints_no_report(self, workdir, capsys):
        wd, _, _, weights_path = workdir
        csv_path = wd / "missing" / "grid.csv"
        code, out, err = run(capsys, "analyze-magnitude", "*.dw3x3_0.kernel",
                             "--weights", str(weights_path), "--out", str(csv_path))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: [Errno 2] ")
        assert not csv_path.exists()

    @pytest.mark.parametrize("shape", [(0, 1, 3, 3), (2, 1, 0, 3)])
    def test_empty_kernel_is_one_error_line(self, tmp_path, capsys, shape):
        weights_path, csv_path = tmp_path / "empty.falc", tmp_path / "grid.csv"
        save_weights(WeightStore({"a.weight": np.ones((2, 1, 3, 3), np.float32),
                                  "b.weight": np.zeros(shape, np.float32)}), weights_path)
        code, out, err = run(capsys, "analyze-magnitude", "*.weight",
                             "--weights", str(weights_path), "--out", str(csv_path))
        assert (code, out) == (1, "")
        assert err == f"error: b.weight is an empty kernel of shape {shape}\n"
        assert not csv_path.exists()


@pytest.mark.parametrize("argv, message", [
    (("verify", "--config", "{config}", "--weights", "{incomplete}"),
     "weights incomplete for model: missing 'stem.conv.weight' and 1 more"),
    (("analyze-range", "--kind", "channelwise", "--c-in", "8"),
     "analyze-range --kind channelwise requires --window"),
], ids=["incomplete-weights", "channelwise-without-window"])
def test_invalid_request_is_one_error_line(workdir, capsys, argv, message):
    tmp_path, _, cfg_path, weights_path = workdir
    incomplete = tmp_path / "incomplete.falc"
    store = load_weights(weights_path)
    save_weights(WeightStore({k: v for k, v in store.items()
                              if k not in ("stem.conv.weight", "head.fc.bias")}), incomplete)
    code, out, err = run(capsys, *(a.format(config=cfg_path, incomplete=incomplete)
                                   for a in argv))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def _sweep_outcome(command, code, out, err, out_path):
    """"error" for one error line and no output file, "run" for a normal run
    whose printed scores and written fused arrays are all finite, else None."""
    wrote = out_path.exists()
    if err:
        one_line = err.startswith("error: ") and len(err.splitlines()) == 1
        return "error" if code == 1 and out == "" and one_line and not wrote else None
    if not (code == 0 or code == 1 and "\tpassed\tno" in out) or wrote != (command == "fuse"):
        return None
    if command == "infer":
        scores = [float(line.split("\t")[2]) for line in out.splitlines()[1:]]
    else:
        fields = out.split("\t")
        scores = [float(fields[fields.index("max_abs_error") + 1])]
    arrays = [v for _, v in load_weights(out_path).items()] if wrote else []
    return "run" if all(np.isfinite(a).all() for a in [scores, *arrays]) else None


def test_poisoned_entry_of_every_role_fails_cleanly_or_runs_finite(workdir, capsys):
    # The first key of each role, in the train store (9 roles) and the fused
    # store (5), with its middle element set to each poison in turn, run
    # through every command that reads that form: 160 cases. Each ends in
    # one error line and no output file, or in a normal run whose printed
    # scores, and whose written fused arrays, are all finite.
    tmp_path, cfg, cfg_path, weights_path = workdir
    graph = build_model(cfg)
    train = load_weights(weights_path)
    fused_graph, fused = fuse_model(graph, train)
    ppm = tmp_path / "img.ppm"
    ppm.write_text("P3\n1 1\n255\n0 128 255\n")
    poisoned, out_path = tmp_path / "poisoned.falc", tmp_path / "fused.falc"
    args = {"fuse": ["--out", str(out_path), "--trials", "1"], "verify": ["--trials", "1"],
            "infer": [str(ppm)]}
    roles, outcomes = [], Counter()
    for g, store, commands in ((graph, train, ("fuse", "verify", "infer")),
                               (fused_graph, fused, ("infer",))):
        first = {}
        for e in iter_param_entries(g):
            first.setdefault(e.role, e.key)
        roles.append(len(first))
        for key in first.values():
            for value in (np.nan, np.inf, -np.inf, 3e38, -3e38):
                arr = store.get(key).copy()
                arr.flat[arr.size // 2] = value
                save_weights(WeightStore({**dict(store.items()), key: arr}), poisoned)
                for command in commands:
                    code, out, err = run(capsys, command, *args[command], "--config",
                                         str(cfg_path), "--weights", str(poisoned))
                    outcomes[_sweep_outcome(command, code, out, err, out_path), command, key,
                             value] += 1
                    out_path.unlink(missing_ok=True)
    assert roles == [9, 5]
    assert sum(outcomes.values()) == 160
    assert [case for case in outcomes if case[0] is None] == []
