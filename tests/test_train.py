"""Margin training loop, Adam, clipping, and the checkpoint wire format."""

import dataclasses
import hashlib
import os
from types import SimpleNamespace

import numpy as np
import pytest

from grail.autodiff import constant, parameter
from grail.cli import main
from grail.kg import from_parts, load_triples
from grail.model import GnnConfig
from grail.subgraph import feature_dim
from grail.train import (
    MAGIC,
    AdamState,
    Checkpoint,
    TrainConfig,
    _adam_state_from_tensors,
    _checkpoint_tensors,
    adam_step,
    clip_gradients,
    config_from_text,
    config_text,
    hinge_loss,
    load_checkpoint,
    model_from_checkpoint,
    relations_from_checkpoint,
    save_checkpoint,
    scorer_from_checkpoint,
    train,
    write_loss_log,
)

from oracles import adam_reference, adam_step_reference, random_kg


def toy_setup(num_entities=12, num_edges=50, seed=0, **tkw):
    rng = np.random.default_rng(seed)
    g = random_kg(rng, num_entities, 2, num_edges)
    valid = g.triples[:3]
    tdef = dict(margin=2.0, lr=0.05, l2=1e-4, clip_norm=5.0, epochs=2,
                eval_every=1, batch_size=8, hops=2, seed=seed)
    tdef.update(tkw)
    tcfg = TrainConfig(**tdef)
    gcfg = GnnConfig(num_layers=2, hidden_dim=4, num_bases=2,
                     edge_dropout_rate=0.2, input_dim=feature_dim(tcfg.hops))
    return g, valid, tcfg, gcfg


def test_train_config_validation():
    with pytest.raises(ValueError, match="margin"):
        TrainConfig(margin=0.0)
    with pytest.raises(ValueError, match="l2"):
        TrainConfig(l2=-1.0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="hops"):
        TrainConfig(hops=0)
    with pytest.raises(ValueError, match="labeling"):
        TrainConfig(labeling="nope")
    with pytest.raises(ValueError, match="extraction"):
        TrainConfig(extraction_mode="nope")


def test_hinge_loss_values():
    def val(pos, neg, margin):
        return hinge_loss(constant([[pos], [neg]]), [0], [1], margin).item()

    assert val(5.0, 1.0, 2.0) == 0.0       # pos clears neg by more than the margin
    assert val(1.0, 5.0, 2.0) == 6.0       # neg - pos + margin
    assert val(3.0, 1.0, 2.0) == 0.0       # exactly at the margin
    assert val(3.0, 2.0, 2.0) == 1.0
    with pytest.raises(ValueError, match="out of range"):
        hinge_loss(constant([[1.0], [2.0]]), [0], [-1], 2.0)


def test_hinge_loss_gradient_direction():
    scores = parameter(np.array([[1.0], [5.0]]))
    hinge_loss(scores, [0], [1], 2.0).backward()
    assert scores.grad[0, 0] == -1.0 and scores.grad[1, 0] == 1.0


def test_adam_matches_reference_trajectory():
    rng = np.random.default_rng(0)
    grads = rng.standard_normal(12)
    theta0 = 0.7
    p = parameter(np.array([[theta0]]))
    state = AdamState()
    got = []
    for g in grads:
        p.zero_grad()
        p.grad[0, 0] = g
        adam_step({"p": p}, state, lr=0.02, l2=0.03)
        got.append(p.data[0, 0])
    want = adam_reference(grads, lr=0.02, theta0=theta0, l2=0.03)
    assert np.allclose(got, want, atol=1e-14)
    assert state.t == 12


def test_adam_rejects_nonfinite_grad():
    p = parameter(np.array([[1.0]]))
    p.grad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite gradient"):
        adam_step({"p": p}, AdamState(), lr=0.1)


def test_flat_adam_equals_the_per_parameter_update_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 3), "b": (3,), "s": (1,), "col": (2, 1)}
    init = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    flat = {name: parameter(arr.copy()) for name, arr in init.items()}
    ref = {name: parameter(arr.copy()) for name, arr in init.items()}
    state, ref_state = AdamState(), {"m": {}, "v": {}, "t": 0}
    for step in range(10):
        for name in shapes:
            g = rng.standard_normal(shapes[name])
            flat[name].zero_grad()
            flat[name].grad[...] = g
            ref[name].zero_grad()
            ref[name].grad[...] = g
        adam_step(flat, state, lr=0.05, l2=0.01)
        adam_step_reference(ref, ref_state, lr=0.05, l2=0.01)
        assert state.t == ref_state["t"]
        for name in shapes:
            assert flat[name].data.tobytes() == ref[name].data.tobytes(), (step, name)
            assert state.m[name].tobytes() == ref_state["m"][name].tobytes(), (step, name)
            assert state.v[name].tobytes() == ref_state["v"][name].tobytes(), (step, name)
        if step == 4:
            # through the checkpoint's named arrays, as a resumed run restores it
            tensors = _checkpoint_tensors(SimpleNamespace(named_tensors=lambda: flat), state)
            assert {f"adam.m.{name}" for name in shapes} <= set(tensors)
            assert all(tensors[f"adam.v.{name}"].shape == shape for name, shape in shapes.items())
            state = _adam_state_from_tensors(tensors)
            assert state.t == 5


def test_adam_names_the_first_parameter_with_a_nonfinite_grad():
    a, b, c = parameter(np.ones((2, 2))), parameter(np.ones(3)), parameter(np.ones(1))
    for p in (a, b, c):
        p.zero_grad()
    b.grad[1] = np.inf
    c.grad[0] = np.nan
    state = AdamState()
    with pytest.raises(ValueError, match="non-finite gradient for parameter 'b'"):
        adam_step({"a": a, "b": b, "c": c}, state, lr=0.1)
    # nothing moved: not the parameter before it, not the step count
    assert np.array_equal(a.data, np.ones((2, 2))) and state.t == 0


def test_adam_rejects_restored_moments_of_another_shape():
    p = parameter(np.ones((2, 2)))
    p.zero_grad()
    state = AdamState(m={"p": np.zeros(4)}, v={"p": np.zeros(4)}, t=3)
    with pytest.raises(ValueError, match=r"Adam moments of 'p' have shape \(4,\)"):
        adam_step({"p": p}, state, lr=0.1)


def test_clip_gradients():
    a = parameter(np.zeros((1, 2)))
    b = parameter(np.zeros((1, 1)))
    a.grad[:] = [[3.0, 0.0]]
    b.grad[:] = [[4.0]]
    params = {"a": a, "b": b}
    norm = clip_gradients(params, max_norm=2.5)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params.values()))
    assert total == pytest.approx(2.5)
    # direction preserved
    assert a.grad[0, 0] / b.grad[0, 0] == pytest.approx(3.0 / 4.0)
    # under the cap: untouched
    a.grad[:] = [[0.1, 0.0]]
    b.grad[:] = [[0.0]]
    norm = clip_gradients(params, max_norm=2.5)
    assert norm == pytest.approx(0.1)
    assert a.grad[0, 0] == 0.1
    with pytest.raises(ValueError, match="max_norm"):
        clip_gradients(params, max_norm=0.0)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "layers.0.w": rng.standard_normal((3, 4)),
        "bias": rng.standard_normal(4),
        "adam.t": np.array(7.0),
    }
    ck = Checkpoint(config={"hops": "2", "note": "x=y"},
                    tensors=tensors, epoch=7, val_metric=0.5)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    assert back.epoch == 7 and back.val_metric == 0.5
    assert back.config["hops"] == "2" and back.config["note"] == "x=y"
    assert set(back.tensors) == set(tensors)
    for k in tensors:
        assert back.tensors[k].shape == tensors[k].shape
        assert np.array_equal(back.tensors[k], tensors[k])
    # rank-0 stays rank-0
    assert back.tensors["adam.t"].shape == ()


def test_checkpoint_bytes_deterministic(tmp_path):
    ck = Checkpoint(config={"a": "1"}, tensors={"w": np.ones((2, 2))},
                    epoch=1, val_metric=0.25)
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(ck, p1)
    save_checkpoint(ck, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_corruption_errors(tmp_path):
    ck = Checkpoint(config={"a": "1"}, tensors={"w": np.ones((2, 2))},
                    epoch=1, val_metric=0.0)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(ck, path)
    raw = open(path, "rb").read()

    bad_magic = str(tmp_path / "m.bin")
    open(bad_magic, "wb").write(b"NOTMAGIC" + raw[8:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad_magic)

    trunc = str(tmp_path / "t.bin")
    open(trunc, "wb").write(raw[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(trunc)

    trail = str(tmp_path / "x.bin")
    open(trail, "wb").write(raw + b"junk")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(trail)


def test_checkpoint_rejects_duplicate_tensor(tmp_path):
    import struct

    name = b"w"
    arr = np.ones(1)
    rec = struct.pack("<H", len(name)) + name + bytes([1]) + struct.pack("<I", 1) + arr.tobytes()
    blob = b"a=1"
    raw = MAGIC + struct.pack("<I", 2) + rec + rec + struct.pack("<I", len(blob)) + blob
    path = str(tmp_path / "dup.bin")
    open(path, "wb").write(raw)
    with pytest.raises(ValueError, match="duplicate tensor"):
        load_checkpoint(path)


def test_training_loss_decreases():
    g, valid, tcfg, gcfg = toy_setup(epochs=6, seed=3)
    best, final, history = train(g, valid, tcfg, gcfg)
    assert len(history) == 6
    first, last = history[0]["loss"], history[-1]["loss"]
    assert last < first
    assert final.epoch == 6
    assert 0.0 <= best.val_metric <= 1.0


def test_best_checkpoint_tracks_max_val(tmp_path):
    g, valid, tcfg, gcfg = toy_setup(epochs=4, seed=4)
    best, final, history = train(g, valid, tcfg, gcfg)
    vals = [h["val_auc_pr"] for h in history if h["val_auc_pr"] is not None]
    assert best.val_metric == max(vals)
    assert best.epoch == history[int(np.argmax(vals))]["epoch"]


def test_train_deterministic():
    g, valid, tcfg, gcfg = toy_setup(epochs=2, seed=5)
    b1, f1, h1 = train(g, valid, tcfg, gcfg)
    b2, f2, h2 = train(g, valid, tcfg, gcfg)
    assert h1 == h2
    for k, arr in f1.tensors.items():
        assert np.array_equal(arr, f2.tensors[k])


# (TrainConfig overrides, GnnConfig overrides, aux feature width) of each
# golden training; the last one's clip_norm is small enough that every step clips
GOLDEN_TRAININGS = [
    ({}, {}, 0),
    ({"extraction_mode": "full_khop", "labeling": "constant"}, {}, 2),
    ({}, {"attention_enabled": False}, 0),
    ({}, {"jk_enabled": False}, 0),
    ({}, {"aggregate_in_neighbors": True}, 0),
    ({}, {"edge_dropout_rate": 0.0}, 0),
    ({"neg_per_pos": 3}, {}, 0),
    ({"clip_norm": 1e-3}, {}, 0),
]
GOLDEN_TRAINING_SHA256 = "5a5c5b7af05438cbf4ae1132b8bb6b925dd8ce10778fe06c49b2cbb08cd17754"


def _training_digest() -> str:
    """sha256 over the best and final checkpoint tensors (weights and Adam
    moments) of the seeded toy trainings in GOLDEN_TRAININGS."""
    digest = hashlib.sha256()
    for seed, (tkw, gkw, aux_dim) in enumerate(GOLDEN_TRAININGS):
        g, valid, tcfg, gcfg = toy_setup(epochs=3, seed=seed, **tkw)
        aux = None
        if aux_dim:
            rng = np.random.default_rng([seed, aux_dim])
            aux = {name: rng.standard_normal(aux_dim) for name in g.entity_names}
        gcfg = dataclasses.replace(gcfg, input_dim=feature_dim(tcfg.hops, aux_dim), **gkw)
        best, final, _ = train(g, valid, tcfg, gcfg, aux_features=aux)
        for ck in (best, final):
            for name in sorted(ck.tensors):
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(ck.tensors[name], dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_seeded_trainings_reproduce_the_golden_digest():
    """Training's floats, bit for bit: any change in the order of a sum in
    forward, backward, clipping or Adam moves the hash.

    Pinned with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH,
    x86-64 with AVX-512).  Another BLAS, or another kernel chosen for another
    CPU, may round a product differently and so move the hash without any
    change to the code.
    """
    assert _training_digest() == GOLDEN_TRAINING_SHA256


def test_resume_bit_exact(tmp_path):
    g, valid, tcfg, gcfg = toy_setup(epochs=4, seed=6)
    _, straight, hs = train(g, valid, tcfg, gcfg)

    half_cfg = TrainConfig(**{**tcfg.__dict__, "epochs": 2})
    _, half, _ = train(g, valid, half_cfg, gcfg)
    path = str(tmp_path / "half.bin")
    save_checkpoint(half, path)
    resumed_start = load_checkpoint(path)
    _, resumed, hr = train(g, valid, tcfg, gcfg, start=resumed_start)

    assert set(straight.tensors) == set(resumed.tensors)
    for k, arr in straight.tensors.items():
        assert np.array_equal(arr, resumed.tensors[k]), k
    assert [h["loss"] for h in hs[2:]] == [h["loss"] for h in hr]


def test_resume_past_end_rejected():
    g, valid, tcfg, gcfg = toy_setup(epochs=2, seed=7)
    _, final, _ = train(g, valid, tcfg, gcfg)
    with pytest.raises(ValueError, match="already at epoch"):
        train(g, valid, tcfg, gcfg, start=final)


def test_train_input_validation():
    g, valid, tcfg, gcfg = toy_setup()
    empty = from_parts(["a", "b"], ["r"], [(0, 0, 1)])
    with pytest.raises(ValueError, match="validation set is empty"):
        train(g, [], tcfg, gcfg)
    with pytest.raises(ValueError, match="input_dim"):
        train(g, valid, tcfg, GnnConfig(num_layers=2, hidden_dim=4, num_bases=2,
                                        edge_dropout_rate=0.0, input_dim=3))
    loops = from_parts(["a", "b"], ["r"], [(0, 0, 0), (1, 0, 1)])
    with pytest.raises(ValueError, match="non-self-loop"):
        train(loops, [(0, 0, 0)], tcfg, gcfg)
    with pytest.raises(ValueError, match="no triples"):
        train(from_parts(["a"], ["r"], []), valid, tcfg, gcfg)


def test_train_names_an_entity_without_aux_features_before_epoch_1():
    # e's only edge is a self-loop, so only a corrupted negative can reach it
    g = load_triples("a\tr\tb\nb\tr\tc\nc\tr\td\nd\tr\ta\na\tr\tc\ne\tr\te\n")
    aux = {name: np.ones(2) for name in "abcd"}
    tcfg = TrainConfig(margin=2.0, epochs=1, batch_size=4, hops=2, seed=0)
    gcfg = GnnConfig(num_layers=1, hidden_dim=4, num_bases=1, input_dim=feature_dim(2, 2))
    logged = []
    with pytest.raises(ValueError, match="auxiliary features missing entity 'e'"):
        train(g, g.triples[:2], tcfg, gcfg, aux_features=aux, log_fn=logged.append)
    assert logged == []


def test_train_names_an_entity_with_a_mixed_width_aux_vector_before_epoch_1():
    g = load_triples("a\tr\tb\nb\tr\tc\nc\tr\td\nd\tr\ta\na\tr\tc\n")
    aux = {name: np.ones(2) for name in "abcd"}
    aux["c"] = np.ones(3)
    tcfg = TrainConfig(margin=2.0, epochs=1, batch_size=4, hops=2, seed=0)
    gcfg = GnnConfig(num_layers=1, hidden_dim=4, num_bases=1, input_dim=feature_dim(2, 2))
    logged = []
    with pytest.raises(ValueError, match="auxiliary features of entity 'c' have width 3"):
        train(g, g.triples[:2], tcfg, gcfg, aux_features=aux, log_fn=logged.append)
    assert logged == []


def test_checkpoint_config_reconstruction():
    g, valid, tcfg, gcfg = toy_setup(epochs=1, seed=8)
    _, final, _ = train(g, valid, tcfg, gcfg)
    assert model_from_checkpoint(final)[1] == gcfg
    assert relations_from_checkpoint(final) == g.relation_names
    assert int(final.config["hops"]) == tcfg.hops


def test_scorer_from_checkpoint_strips_adam(tmp_path):
    g, valid, tcfg, gcfg = toy_setup(epochs=1, seed=9)
    _, final, _ = train(g, valid, tcfg, gcfg)
    assert any(k.startswith("adam.") for k in final.tensors)
    scorer = scorer_from_checkpoint(final)
    score = scorer(g, g.triples[:1], set())
    assert np.isfinite(score[0])
    # evaluation path ignores dropout: scoring twice is identical
    assert scorer(g, g.triples[:1], set()) == score


def test_loss_log_roundtrip(tmp_path):
    history = [
        {"epoch": 1, "loss": 0.5, "val_auc_pr": 0.75},
        {"epoch": 2, "loss": 0.25, "val_auc_pr": None},
    ]
    path = str(tmp_path / "loss.csv")
    write_loss_log(history, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "epoch,loss,val_auc_pr"
    assert lines[1] == "1,0.5,0.75"
    assert lines[2] == "2,0.25,"


def test_failed_write_leaves_the_previous_file_intact(tmp_path, monkeypatch):
    log = tmp_path / "loss.csv"
    write_loss_log([{"epoch": 1, "loss": 0.5, "val_auc_pr": None}], str(log))
    old_log = log.read_bytes()
    rows = [{"epoch": e, "loss": 0.25, "val_auc_pr": 0.75} for e in range(1, 200)]
    with pytest.raises(KeyError):
        write_loss_log(rows + [{"epoch": 200}], str(log))  # the last row has no loss
    assert log.read_bytes() == old_log

    ck_path = tmp_path / "model.ck"
    save_checkpoint(Checkpoint({"hops": "2"}, {"w": np.ones((2, 2))}, 1, 0.5), str(ck_path))
    old_ck = ck_path.read_bytes()

    def disk_error(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", disk_error)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(Checkpoint({"hops": "3"}, {"w": np.zeros((9, 9))}, 2, 0.9), str(ck_path))
    assert ck_path.read_bytes() == old_ck

    report = tmp_path / "verify.txt"
    monkeypatch.undo()
    assert main(["verify", "--trials", "3", "--seed", "1", "--out", str(report)]) == 0
    old_report = report.read_bytes()
    monkeypatch.setattr(os, "fsync", disk_error)
    assert main(["verify", "--trials", "4", "--seed", "2", "--out", str(report)]) == 1
    assert report.read_bytes() == old_report
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loss.csv", "model.ck", "verify.txt"]


def test_trained_checkpoint_config_is_pinned():
    # the checkpoint format: every key in order, with its exact spelling
    g, valid, tcfg, gcfg = toy_setup(epochs=1, seed=8)
    _, final, _ = train(g, valid, tcfg, gcfg)
    assert list(final.config.items()) == [
        ("num_layers", "2"),
        ("hidden_dim", "4"),
        ("num_bases", "2"),
        ("attention_enabled", "true"),
        ("jk_enabled", "true"),
        ("edge_dropout_rate", "0.2"),
        ("input_dim", "8"),
        ("aggregate_in_neighbors", "false"),
        ("margin", "2.0"),
        ("lr", "0.05"),
        ("l2", "0.0001"),
        ("clip_norm", "5.0"),
        ("epochs", "1"),
        ("eval_every", "1"),
        ("batch_size", "8"),
        ("neg_per_pos", "1"),
        ("hops", "2"),
        ("seed", "8"),
        ("labeling", "double_radius"),
        ("extraction_mode", "enclosing"),
        ("num_relations", "2"),
        ("relation.0", "r0"),
        ("relation.1", "r1"),
    ]


@pytest.mark.parametrize("cfg", [
    GnnConfig(),
    GnnConfig(num_layers=1, hidden_dim=7, num_bases=3, attention_enabled=False,
              jk_enabled=False, edge_dropout_rate=0.1, input_dim=1, aggregate_in_neighbors=True),
    GnnConfig(edge_dropout_rate=0.0),
    GnnConfig(edge_dropout_rate=1 / 3),
    TrainConfig(),
    TrainConfig(margin=0.1, lr=1e-4, l2=0.0, clip_norm=1e300, epochs=7, eval_every=2,
                batch_size=1, neg_per_pos=3, hops=1, seed=2**40, labeling="constant",
                extraction_mode="full_khop"),
    TrainConfig(lr=3e-17, l2=1e-4, margin=123456.789),
])
def test_config_text_round_trips(cfg):
    text = config_text(cfg)
    assert list(text) == [f.name for f in dataclasses.fields(cfg)]
    assert all(isinstance(v, str) for v in text.values())
    back = config_from_text(type(cfg), text)
    assert back == cfg
    assert config_text(back) == text
    # keys of the other config (as in a checkpoint) are ignored
    assert config_from_text(type(cfg), {**text, "num_relations": "3", "other": "x"}) == cfg


def test_config_from_text_parses_by_the_default_type():
    cfg = config_from_text(GnnConfig, {"hidden_dim": "5", "jk_enabled": "false",
                                       "edge_dropout_rate": "0"})
    assert cfg == GnnConfig(hidden_dim=5, jk_enabled=False, edge_dropout_rate=0.0)
    assert type(cfg.edge_dropout_rate) is float
    with pytest.raises(ValueError, match="'jk_enabled' expects true or false"):
        config_from_text(GnnConfig, {"jk_enabled": "True"})
    with pytest.raises(ValueError, match="'hidden_dim' expects an integer"):
        config_from_text(GnnConfig, {"hidden_dim": "4.0"})
    with pytest.raises(ValueError, match="'lr' expects a number"):
        config_from_text(TrainConfig, {"lr": "fast"})


def test_resume_rejects_a_changed_model_config():
    g, valid, tcfg, gcfg = toy_setup(epochs=2, seed=10)
    _, start, _ = train(g, valid, dataclasses.replace(tcfg, epochs=1), gcfg)
    changed = [
        ("hidden_dim", None, dataclasses.replace(gcfg, hidden_dim=8)),
        ("attention_enabled", None, dataclasses.replace(gcfg, attention_enabled=False)),
        ("aggregate_in_neighbors", None, dataclasses.replace(gcfg, aggregate_in_neighbors=True)),
        ("edge_dropout_rate", None, dataclasses.replace(gcfg, edge_dropout_rate=0.3)),
        ("labeling", dataclasses.replace(tcfg, labeling="constant"), None),
        ("extraction_mode", dataclasses.replace(tcfg, extraction_mode="full_khop"), None),
    ]
    for name, t, gc in changed:
        with pytest.raises(ValueError, match=f"checkpoint has {name}=.* config has {name}="):
            train(g, valid, t or tcfg, gc or gcfg, start=start)
    # hops changes the input width, which is the first field that differs
    with pytest.raises(ValueError, match="checkpoint has input_dim=8 but the config has input_dim=10"):
        train(g, valid, dataclasses.replace(tcfg, hops=3),
              dataclasses.replace(gcfg, input_dim=feature_dim(3)), start=start)
    # another relation vocabulary
    renamed = from_parts(g.entity_names, ["s0", "s1"], g.triples)
    with pytest.raises(ValueError, match="relation vocabulary"):
        train(renamed, valid, tcfg, gcfg, start=start)
    # epochs, the optimiser and the sampling may change
    looser = dataclasses.replace(tcfg, lr=0.01, l2=0.0, margin=1.0, clip_norm=9.0,
                                 batch_size=4, neg_per_pos=2, eval_every=2, seed=11)
    _, resumed, history = train(g, valid, looser, gcfg, start=start)
    assert resumed.epoch == 2 and [h["epoch"] for h in history] == [2]


def test_checkpoint_tensors_checked_against_config():
    g, valid, tcfg, gcfg = toy_setup(epochs=1, seed=12)
    _, final, _ = train(g, valid, tcfg, gcfg)
    params, _, got_tcfg = model_from_checkpoint(final)
    assert got_tcfg == tcfg
    assert all(np.array_equal(t.data, final.tensors[n]) for n, t in params.named_tensors().items())

    edited = Checkpoint({**final.config, "hidden_dim": "32", "jk_enabled": "false"},
                        final.tensors, final.epoch, final.val_metric)
    with pytest.raises(ValueError, match=r"'layers.0.bases.0' has shape \(8, 4\) "
                                         r"but its config gives \(8, 32\)"):
        model_from_checkpoint(edited)
    with pytest.raises(ValueError, match="'layers.0.bases.0'"):
        scorer_from_checkpoint(edited)

    more_relations = Checkpoint({**final.config, "num_relations": "3", "relation.2": "r2"},
                                final.tensors, final.epoch, final.val_metric)
    with pytest.raises(ValueError, match=r"'layers.0.coeffs' has shape \(2, 2\) "
                                         r"but its config gives \(3, 2\)"):
        model_from_checkpoint(more_relations)

    missing = {k: v for k, v in final.tensors.items() if k != "readout_w"}
    with pytest.raises(ValueError, match="'readout_w' has shape None"):
        model_from_checkpoint(Checkpoint(final.config, missing, 1, 0.5))
    extra = {**final.tensors, "layers.0.bases.2": np.zeros((8, 4))}
    with pytest.raises(ValueError, match=r"'layers.0.bases.2' has shape \(8, 4\) but its config gives None"):
        model_from_checkpoint(Checkpoint(final.config, extra, 1, 0.5))
