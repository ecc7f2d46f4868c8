"""Command-line driver: full pipeline runs, config handling, exit codes."""

import dataclasses
import importlib
import importlib.util
import os
import warnings

import numpy as np
import pytest

from grail.cli import CONFIG_DEFAULTS, main
from grail.evaluate import late_fusion, parse_labels_file, parse_score_file
from grail.kg import load_triples_file, to_lines
from grail.model import GnnConfig
from grail.train import TrainConfig, load_checkpoint, model_from_checkpoint, setting_text

from oracles import random_kg

FAST_TRAIN = """
epochs=2
eval_every=1
batch_size=8
hops=2
num_layers=2
hidden_dim=4
num_bases=2
edge_dropout_rate=0.1
margin=2.0
lr=0.05
eval_negatives=4
"""

SPLIT_CFG = """
train_num_roots=6
train_hops=2
train_max_new_per_hop=5
train_target_edges=70
test_num_roots=4
test_hops=2
test_max_new_per_hop=5
test_target_edges=30
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One split + one trained checkpoint shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    src = str(root / "source.txt")
    g = random_kg(np.random.default_rng(0), 130, 3, 650)
    open(src, "w").write(to_lines(g))

    split_cfg = str(root / "split.cfg")
    open(split_cfg, "w").write(SPLIT_CFG)
    bench = str(root / "bench")
    assert main(["split", "--input", src, "--out-dir", bench,
                 "--config", split_cfg]) == 0

    train_cfg = str(root / "train.cfg")
    open(train_cfg, "w").write(FAST_TRAIN)
    ck = str(root / "model.ck")
    assert main(["train", "--train", os.path.join(bench, "train.txt"),
                 "--valid", os.path.join(bench, "valid.txt"),
                 "--config", train_cfg, "--out", ck]) == 0
    return {"root": str(root), "bench": bench, "ck": ck, "cfg": train_cfg, "src": src}


def test_split_outputs(workdir):
    bench = workdir["bench"]
    for name in ("train.txt", "valid.txt", "ind_test_graph.txt", "test.txt", "stats.tsv"):
        assert os.path.getsize(os.path.join(bench, name)) > 0
    train = load_triples_file(os.path.join(bench, "train.txt"))
    ind = load_triples_file(os.path.join(bench, "ind_test_graph.txt"))
    assert not set(train.entity_names) & set(ind.entity_names)


def test_split_deterministic(workdir, tmp_path):
    cfg = str(tmp_path / "s.cfg")
    open(cfg, "w").write(SPLIT_CFG)
    d1, d2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    for d in (d1, d2):
        assert main(["split", "--input", workdir["src"], "--out-dir", d,
                     "--config", cfg]) == 0
    for name in ("train.txt", "valid.txt", "ind_test_graph.txt", "test.txt"):
        assert open(os.path.join(d1, name), "rb").read() == \
            open(os.path.join(d2, name), "rb").read()


def test_train_outputs(workdir):
    ck = workdir["ck"]
    assert os.path.getsize(ck) > 0
    assert os.path.getsize(ck + ".final") > 0
    lines = open(ck + ".loss.csv").read().splitlines()
    assert lines[0] == "epoch,loss,val_auc_pr"
    assert len(lines) == 3  # header + 2 epochs


def test_eval_outputs(workdir, tmp_path):
    out = str(tmp_path / "eval")
    code = main(["eval", "--checkpoint", workdir["ck"],
                 "--graph", os.path.join(workdir["bench"], "ind_test_graph.txt"),
                 "--test", os.path.join(workdir["bench"], "test.txt"),
                 "--config", workdir["cfg"], "--out-dir", out])
    assert code == 0
    report = open(os.path.join(out, "report.txt")).read()
    assert "auc_pr=" in report and "hits_at_10=" in report
    for name in ("ranks.csv", "scores.tsv", "labels.tsv"):
        assert os.path.getsize(os.path.join(out, name)) > 0


@pytest.fixture(scope="module")
def aux_run(workdir, tmp_path_factory):
    """A checkpoint trained with width-2 aux features on the shared split."""
    root = tmp_path_factory.mktemp("aux")
    source = load_triples_file(workdir["src"])
    aux = str(root / "aux.tsv")
    open(aux, "w").write("".join(f"{name}\t{i % 3}.5,{-i}\n"
                                 for i, name in enumerate(source.entity_names)))
    ck = str(root / "aux.ck")
    assert main(["train", "--train", os.path.join(workdir["bench"], "train.txt"),
                 "--valid", os.path.join(workdir["bench"], "valid.txt"),
                 "--config", workdir["cfg"], "--out", ck, "--aux-features", aux]) == 0
    return {"aux": aux, "ck": ck}


def test_eval_with_aux_features(workdir, aux_run, tmp_path):
    out = str(tmp_path / "eval")
    code = main(["eval", "--checkpoint", aux_run["ck"],
                 "--graph", os.path.join(workdir["bench"], "ind_test_graph.txt"),
                 "--test", os.path.join(workdir["bench"], "test.txt"),
                 "--config", workdir["cfg"], "--out-dir", out,
                 "--aux-features", aux_run["aux"]])
    assert code == 0
    assert "auc_pr=" in open(os.path.join(out, "report.txt")).read()


def test_eval_aux_width_mismatch_exit_2(workdir, aux_run, tmp_path, capsys):
    # the graph path does not exist: the width check comes before it is read
    missing_graph = str(tmp_path / "no_graph.txt")
    for ck, aux, widths in ((aux_run["ck"], [], ("aux width 2", "width 0")),
                            (workdir["ck"], ["--aux-features", aux_run["aux"]],
                             ("aux width 0", "width 2"))):
        capsys.readouterr()
        code = main(["eval", "--checkpoint", ck, "--graph", missing_graph,
                     "--test", os.path.join(workdir["bench"], "test.txt"),
                     "--config", workdir["cfg"], "--out-dir", str(tmp_path / "x"), *aux])
        assert code == 2
        err = capsys.readouterr().err
        assert all(w in err for w in widths), err
    assert not os.path.exists(tmp_path / "x")


def test_train_rejects_a_repeated_aux_entity_exit_2(workdir, tmp_path, capsys):
    source = load_triples_file(workdir["src"])
    name = source.entity_names[1]
    aux = str(tmp_path / "aux.tsv")
    open(aux, "w").write("".join(f"{n}\t{i}.0,1.0\n" for i, n in enumerate(source.entity_names))
                         + f"{name}\t9.0,9.0\n")
    capsys.readouterr()
    code = main(["train", "--train", os.path.join(workdir["bench"], "train.txt"),
                 "--valid", os.path.join(workdir["bench"], "valid.txt"),
                 "--config", workdir["cfg"], "--out", str(tmp_path / "x.ck"),
                 "--aux-features", aux])
    assert code == 2
    last = len(source.entity_names) + 1
    assert f"entity {name!r} has features on lines 2 and {last}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x.ck")


def test_train_resume_cli_bit_exact(workdir, tmp_path):
    bench = workdir["bench"]
    cfg4 = str(tmp_path / "four.cfg")
    open(cfg4, "w").write(FAST_TRAIN.replace("epochs=2", "epochs=4"))
    straight = str(tmp_path / "straight.ck")
    assert main(["train", "--train", os.path.join(bench, "train.txt"),
                 "--valid", os.path.join(bench, "valid.txt"),
                 "--config", cfg4, "--out", straight]) == 0
    resumed = str(tmp_path / "resumed.ck")
    assert main(["train", "--train", os.path.join(bench, "train.txt"),
                 "--valid", os.path.join(bench, "valid.txt"),
                 "--config", cfg4, "--out", resumed,
                 "--from-checkpoint", workdir["ck"] + ".final"]) == 0
    # the end-of-run state is bit-identical to an uninterrupted run
    assert open(straight + ".final", "rb").read() == open(resumed + ".final", "rb").read()
    # the replayed epochs follow the same trajectory
    straight_rows = open(straight + ".loss.csv").read().splitlines()
    resumed_rows = open(resumed + ".loss.csv").read().splitlines()
    assert straight_rows[3:5] == resumed_rows[1:3]  # epochs 3 and 4
    # best tracking covers the start checkpoint and the resumed epochs; a
    # straight-run best that predates the resume point is out of reach
    from grail.train import load_checkpoint

    start_val = load_checkpoint(workdir["ck"] + ".final").val_metric
    resumed_vals = [float(r.split(",")[2]) for r in resumed_rows[1:] if r.split(",")[2]]
    assert load_checkpoint(resumed).val_metric == max([start_val] + resumed_vals)


def test_verify_command(tmp_path):
    out = str(tmp_path / "verify.txt")
    assert main(["verify", "--trials", "25", "--seed", "3", "--out", out]) == 0
    text = open(out).read()
    assert "ok=true" in text and "trials=25" in text


def test_ensemble_command(workdir, tmp_path):
    out1 = str(tmp_path / "e1")
    code = main(["eval", "--checkpoint", workdir["ck"],
                 "--graph", os.path.join(workdir["bench"], "ind_test_graph.txt"),
                 "--test", os.path.join(workdir["bench"], "test.txt"),
                 "--config", workdir["cfg"], "--out-dir", out1])
    assert code == 0
    scores = os.path.join(out1, "scores.tsv")
    labels = os.path.join(out1, "labels.tsv")
    # second method: the same scores shifted, still informative
    shifted = str(tmp_path / "scores2.tsv")
    with open(shifted, "w") as f:
        for line in open(scores).read().splitlines():
            h, r, t, s = line.split("\t")
            f.write(f"{h}\t{r}\t{t}\t{float(s) * 0.5 + 1.0!r}\n")
    fused_dir = str(tmp_path / "fused")
    assert main(["ensemble", "--scores", scores, shifted,
                 "--valid-labels", labels,
                 "--test-scores", scores, shifted,
                 "--out-dir", fused_dir]) == 0
    gains = open(os.path.join(fused_dir, "gains.tsv")).read().splitlines()
    assert gains[0] == "method\tauc_pr"
    assert gains[1].startswith(scores + "\t")
    assert gains[-1].startswith("gain_over_best\t")
    for name in ("fused_valid.tsv", "fused_test.tsv", "fusion_loss.csv"):
        assert os.path.getsize(os.path.join(fused_dir, name)) > 0
    # the fused tables are score files in their own right
    valid_table = parse_score_file(open(scores).read())
    keys = sorted(valid_table)
    for name in ("fused_valid.tsv", "fused_test.tsv"):
        fused = parse_score_file(open(os.path.join(fused_dir, name)).read())
        assert list(fused) == keys
        assert all(0.0 <= s <= 1.0 for s in fused.values())

    # extreme test scores go through the same clipped formula as validation
    extreme = str(tmp_path / "extreme.tsv")
    with open(extreme, "w") as f:
        for i, key in enumerate(keys):
            f.write("\t".join(key) + f"\t{(-5000.0, 5000.0)[i % 2]!r}\n")
    extreme_dir = str(tmp_path / "fused_extreme")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ensemble", "--scores", scores, shifted,
                     "--valid-labels", labels,
                     "--test-scores", extreme, extreme,
                     "--out-dir", extreme_dir]) == 0
    shifted_table = parse_score_file(open(shifted).read())
    label_table = parse_labels_file(open(labels).read())
    x_valid = np.array([[valid_table[k], shifted_table[k]] for k in keys])
    y = np.array([label_table[k] for k in keys], dtype=np.float64)
    x_test = np.array([[(-5000.0, 5000.0)[i % 2]] * 2 for i in range(len(keys))])
    want, _, _ = late_fusion(x_valid, y, x_test)
    got = parse_score_file(open(os.path.join(extreme_dir, "fused_test.tsv")).read())
    assert list(got.values()) == list(want)

    # with three methods the gain is still over the best one
    three_dir = str(tmp_path / "fused_three")
    assert main(["ensemble", "--scores", shifted, scores, shifted,
                 "--valid-labels", labels, "--out-dir", three_dir]) == 0
    rows = dict(line.split("\t") for line in
                open(os.path.join(three_dir, "gains.tsv")).read().splitlines()[1:])
    best = max(float(rows[p]) for p in (scores, shifted))
    assert float(rows["gain_over_best"]) == pytest.approx((float(rows["fused"]) - best) / best)


def test_eval_rejects_eval_negatives_below_one_exit_2(workdir, tmp_path, capsys):
    # no rank negatives would rank every positive first: Hits@10 = 1.0
    bad = str(tmp_path / "bad.cfg")
    out = str(tmp_path / "x")
    test = os.path.join(workdir["bench"], "test.txt")
    for value in (0, -3):
        open(bad, "w").write(f"eval_negatives={value}\n")
        for graph in (os.path.join(workdir["bench"], "ind_test_graph.txt"),
                      str(tmp_path / "no_graph.txt")):  # checked before the graph is read
            capsys.readouterr()
            code = main(["eval", "--checkpoint", workdir["ck"], "--graph", graph,
                         "--test", test, "--config", bad, "--out-dir", out])
            assert code == 2
            assert f"eval_negatives must be >= 1, got {value}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_unknown_config_key_exit_2(workdir, tmp_path):
    bad = str(tmp_path / "bad.cfg")
    open(bad, "w").write("epochz=3\n")
    code = main(["split", "--input", workdir["src"], "--out-dir",
                 str(tmp_path / "x"), "--config", bad])
    assert code == 2


def test_malformed_config_line_exit_2(workdir, tmp_path, capsys):
    bad = str(tmp_path / "bad.cfg")
    open(bad, "w").write("epochs\n")
    assert main(["split", "--input", workdir["src"], "--out-dir",
                 str(tmp_path / "x"), "--config", bad]) == 2
    open(bad, "w").write("# a bad value names its line\nepochs=many\n")
    assert main(["split", "--input", workdir["src"], "--out-dir",
                 str(tmp_path / "x"), "--config", bad]) == 2
    assert f"{bad}:2: config key 'epochs' expects an integer" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path):
    assert main(["split", "--input", str(tmp_path / "nope.txt"),
                 "--out-dir", str(tmp_path / "x")]) == 2
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.ck"),
                 "--graph", str(tmp_path / "g.txt"),
                 "--test", str(tmp_path / "t.txt"),
                 "--out-dir", str(tmp_path / "x")]) == 2


def test_corrupt_checkpoint_exit_1(workdir, tmp_path):
    bad_ck = str(tmp_path / "bad.ck")
    open(bad_ck, "wb").write(b"not a checkpoint at all")
    code = main(["eval", "--checkpoint", bad_ck,
                 "--graph", os.path.join(workdir["bench"], "ind_test_graph.txt"),
                 "--test", os.path.join(workdir["bench"], "test.txt"),
                 "--out-dir", str(tmp_path / "x")])
    assert code == 1


def test_mismatched_resume_vocab_exit_2(workdir, tmp_path):
    other = str(tmp_path / "other.txt")
    open(other, "w").write("x1\tzrel\tx2\nx2\tzrel\tx3\nx3\tzrel\tx1\nx1\tzrel\tx3\n")
    valid = str(tmp_path / "valid.txt")
    open(valid, "w").write("x1\tzrel\tx2\n")
    code = main(["train", "--train", other, "--valid", valid,
                 "--config", workdir["cfg"], "--out", str(tmp_path / "o.ck"),
                 "--from-checkpoint", workdir["ck"]])
    assert code == 2


def test_valid_file_outside_vocab_exit_2(workdir, tmp_path):
    valid = str(tmp_path / "valid.txt")
    open(valid, "w").write("ghost\tr0\tghost2\n")
    code = main(["train", "--train", os.path.join(workdir["bench"], "train.txt"),
                 "--valid", valid, "--config", workdir["cfg"],
                 "--out", str(tmp_path / "o.ck")])
    assert code == 2


def test_seed_flag_overrides_config(workdir, tmp_path):
    d1, d2, d3 = (str(tmp_path / n) for n in ("s1", "s2", "s3"))
    cfg = str(tmp_path / "s.cfg")
    open(cfg, "w").write(SPLIT_CFG)
    assert main(["split", "--input", workdir["src"], "--out-dir", d1,
                 "--config", cfg, "--seed", "5"]) == 0
    assert main(["split", "--input", workdir["src"], "--out-dir", d2,
                 "--config", cfg, "--seed", "5"]) == 0
    assert main(["split", "--input", workdir["src"], "--out-dir", d3,
                 "--config", cfg, "--seed", "6"]) == 0
    t1 = open(os.path.join(d1, "train.txt")).read()
    assert t1 == open(os.path.join(d2, "train.txt")).read()
    assert t1 != open(os.path.join(d3, "train.txt")).read()


def test_help_lists_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in CONFIG_DEFAULTS:
        assert key in out


def test_config_comments_and_blanks_ok(workdir, tmp_path):
    cfg = str(tmp_path / "c.cfg")
    open(cfg, "w").write("# comment\n\nepochs=1\n  eval_every=1  \n")
    bench = workdir["bench"]
    ck = str(tmp_path / "m.ck")
    # epochs=1 with otherwise-default keys: hops=3 default; fine for a run
    code = main(["train", "--train", os.path.join(bench, "train.txt"),
                 "--valid", os.path.join(bench, "valid.txt"),
                 "--config", cfg, "--out", ck])
    assert code == 0


def test_resume_with_changed_model_config_exit_2(workdir, tmp_path):
    bench = workdir["bench"]
    for change in ("hidden_dim=8", "labeling=constant", "aggregate_in_neighbors=true"):
        cfg = str(tmp_path / "changed.cfg")
        open(cfg, "w").write(FAST_TRAIN.replace("epochs=2", "epochs=4") + change + "\n")
        code = main(["train", "--train", os.path.join(bench, "train.txt"),
                     "--valid", os.path.join(bench, "valid.txt"),
                     "--config", cfg, "--out", str(tmp_path / "o.ck"),
                     "--from-checkpoint", workdir["ck"] + ".final"])
        assert code == 2, change
    assert not os.path.exists(tmp_path / "o.ck")


def test_config_defaults_are_the_dataclass_fields(capsys):
    settings = [f for cls in (GnnConfig, TrainConfig) for f in dataclasses.fields(cls)
                if f.name != "input_dim"]
    names = [f.name for f in settings]
    assert len(set(names)) == len(names)
    for f in settings:
        assert CONFIG_DEFAULTS[f.name] == f.default
        # values are parsed by the type of the default, so it must match the annotation
        assert type(f.default).__name__ == f.type
    assert "input_dim" not in CONFIG_DEFAULTS
    # the keys and defaults of the CLI
    assert CONFIG_DEFAULTS == {
        "num_layers": 3, "hidden_dim": 32, "num_bases": 4, "attention_enabled": True,
        "jk_enabled": True, "edge_dropout_rate": 0.5, "aggregate_in_neighbors": False,
        "margin": 10.0, "lr": 0.01, "l2": 5e-4, "clip_norm": 1000.0, "epochs": 50,
        "eval_every": 3, "batch_size": 16, "neg_per_pos": 1, "hops": 3, "seed": 0,
        "labeling": "double_radius", "extraction_mode": "enclosing", "eval_negatives": 50,
        "train_num_roots": 20, "train_hops": 3, "train_max_new_per_hop": 50,
        "train_target_edges": 5000, "test_num_roots": 10, "test_hops": 3,
        "test_max_new_per_hop": 50, "test_target_edges": 1000, "valid_fraction": 0.10,
        "test_fraction": 0.10,
    }
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    out = capsys.readouterr().out
    for f in settings:
        assert f"  {f.name}={setting_text(f.default)}\n" in out
    assert "input_dim" not in out


def test_a_new_config_field_reaches_the_cli_and_the_checkpoint(workdir, tmp_path,
                                                               monkeypatch, capsys):
    # add a field to each dataclass and load a fresh copy of the CLI module
    gnn = dataclasses.make_dataclass("GnnConfig", [("probe_scale", float, 0.25)],
                                     bases=(GnnConfig,))
    trn = dataclasses.make_dataclass("TrainConfig", [("probe_tag", str, "plain")],
                                     bases=(TrainConfig,))
    # grail.train names the function; the module comes from import_module
    model_mod, train_mod = (importlib.import_module(f"grail.{m}") for m in ("model", "train"))
    monkeypatch.setattr(model_mod, "GnnConfig", gnn)
    monkeypatch.setattr(train_mod, "GnnConfig", gnn)
    monkeypatch.setattr(train_mod, "TrainConfig", trn)
    spec = importlib.util.find_spec("grail.cli")
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)

    assert cli.CONFIG_DEFAULTS["probe_scale"] == 0.25
    assert cli.CONFIG_DEFAULTS["probe_tag"] == "plain"
    with pytest.raises(SystemExit):
        cli.main(["train", "--help"])
    out = capsys.readouterr().out
    assert "  probe_scale=0.25\n" in out and "  probe_tag=plain\n" in out

    bench = workdir["bench"]
    args = ["train", "--train", os.path.join(bench, "train.txt"),
            "--valid", os.path.join(bench, "valid.txt")]
    cfg = str(tmp_path / "probe.cfg")
    open(cfg, "w").write(FAST_TRAIN + "probe_scale=0.75\nprobe_tag=tuned\n")
    ck = str(tmp_path / "probe.ck")
    assert cli.main(args + ["--config", cfg, "--out", ck]) == 0
    config = load_checkpoint(ck).config
    keys = list(config)
    assert config["probe_scale"] == "0.75" and config["probe_tag"] == "tuned"
    assert keys.index("probe_scale") == keys.index("aggregate_in_neighbors") + 1
    assert keys.index("probe_tag") == keys.index("extraction_mode") + 1
    _, gcfg, tcfg = model_from_checkpoint(load_checkpoint(ck))
    assert (gcfg.probe_scale, tcfg.probe_tag) == (0.75, "tuned")

    # a bad value is a configuration error, and the new model field binds a resume
    open(cfg, "w").write(FAST_TRAIN + "probe_scale=big\n")
    assert cli.main(args + ["--config", cfg, "--out", ck]) == 2
    open(cfg, "w").write(FAST_TRAIN.replace("epochs=2", "epochs=3") + "probe_scale=0.5\n")
    assert cli.main(args + ["--config", cfg, "--out", str(tmp_path / "r.ck"),
                            "--from-checkpoint", ck + ".final"]) == 2
    assert "probe_scale=0.75" in capsys.readouterr().err
