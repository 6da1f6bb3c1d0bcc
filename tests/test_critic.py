"""Critic forward/backward correctness, training behaviour, checkpoints."""

import math
from dataclasses import replace

import numpy as np
import pytest

from phrasecritic import critic, grounding, textproc
from phrasecritic.critic import (CriticHyper, CriticModel, UNK, _backward,
                                 _forward, gradients, load_checkpoint,
                                 pack_sequences,
                                 pairwise_accuracy, rank_loss,
                                 save_checkpoint, train_classifier,
                                 train_ranker)
from phrasecritic.errors import CheckpointError, TrainingDivergedError
from phrasecritic.jsonio import read_json, write_json
from phrasecritic.negatives import build_rank_pairs, ground_rank_pairs

SMALL = CriticHyper(embed_dim=4, input_dim=5, hidden_dim=4, head_dim=3,
                    epochs=4, batch_size=8, lr=0.05)


@pytest.fixture(scope="module")
def grounded_pairs(tiny_dataset):
    pairs = build_rank_pairs(tiny_dataset, k=3)
    return ground_rank_pairs(tiny_dataset, pairs)


@pytest.fixture(scope="module")
def small_model(tiny_dataset):
    return CriticModel.for_taxonomy(tiny_dataset.taxonomy, SMALL, seed=1)


def some_sequences(grounded_pairs, n):
    seqs = [side for pair in grounded_pairs["train"] for side in pair]
    return seqs[:n]


# -- scalar forward oracle ----------------------------------------------------

def oracle_score(model, seq):
    """Plain-python LSTM forward, written independently of the batch code."""
    p = model.params
    hd = model.hyper.hidden_dim

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0] * hd
    c = [0.0] * hd
    for g in seq:
        ids = [model.index.get(t, 0) for t in g.phrase.tokens()]
        emb = [sum(p["emb"][i][d] for i in ids) / len(ids)
               for d in range(model.hyper.embed_dim)]
        u = emb + list(g.features) + list(g.mention) + list(g.match) \
            + [g.score]
        x = [sum(u[a] * p["w_in"][a][b] for a in range(len(u)))
             + p["b_in"][b] for b in range(model.hyper.input_dim)]
        z = [sum(x[a] * p["w_x"][a][b] for a in range(len(x)))
             + sum(h[a] * p["w_h"][a][b] for a in range(hd))
             + p["b_g"][b] for b in range(4 * hd)]
        c_new = [sig(z[j]) * math.tanh(z[3 * hd + j]) + sig(z[hd + j]) * c[j]
                 for j in range(hd)]
        h = [sig(z[2 * hd + j]) * math.tanh(c_new[j]) for j in range(hd)]
        c = c_new
    m = [math.tanh(sum(h[a] * p["w_1"][a][b] for a in range(hd))
                   + p["b_1"][b]) for b in range(model.hyper.head_dim)]
    return sum(m[b] * p["w_2"][b] for b in range(len(m))) + p["b_2"][0]


def test_forward_matches_scalar_oracle(small_model, grounded_pairs):
    seqs = some_sequences(grounded_pairs, 12)
    got = small_model.score_many(seqs)
    for seq, score in zip(seqs, got):
        assert score == pytest.approx(oracle_score(small_model, seq),
                                      abs=1e-10)
        assert small_model.score(seq) == pytest.approx(score, abs=1e-12)


def test_packing_is_transparent(small_model, grounded_pairs):
    """Scores are independent of how sequences are padded for batching."""
    seqs = some_sequences(grounded_pairs, 16)
    assert len({len(s) for s in seqs}) > 1
    batched = small_model.score_many(seqs)
    single = np.array([small_model.score_many([s])[0] for s in seqs])
    np.testing.assert_allclose(batched, single, atol=1e-12)


@pytest.mark.parametrize("rows", [[13, 0, 2], [7, 0, 12, 6]])
def test_take_matches_packing_the_subset(small_model, grounded_pairs, rows):
    """Taking rows of a packed set scores them as packing them alone does,
    also when the taken rows are all shorter than the longest packed one."""
    seqs = some_sequences(grounded_pairs, 16)
    taken, _ = _forward(small_model,
                        pack_sequences(seqs, small_model).take(rows))
    alone, _ = _forward(small_model,
                        pack_sequences([seqs[r] for r in rows], small_model))
    np.testing.assert_array_equal(taken, alone)


def test_pack_rejects_empty_sequence(small_model):
    with pytest.raises(ValueError, match="empty"):
        pack_sequences([[]], small_model)
    with pytest.raises(ValueError, match="empty"):
        small_model.score([])


def test_unk_is_index_zero(tiny_dataset):
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, SMALL)
    assert model.vocab[0] == UNK
    assert model.index[UNK] == 0
    # vocab handed over without the marker gets it prepended
    other = CriticModel(("red", "wing"), feature_dim=3, hyper=SMALL)
    assert other.vocab == (UNK, "red", "wing")
    assert other.index["red"] == 1


# -- losses -------------------------------------------------------------------

def test_rank_loss_semantics():
    assert rank_loss(2.0, 0.5, margin=1.0) == 0.0            # clears margin
    assert rank_loss(1.0, 0.5, margin=1.0) == pytest.approx(0.5)
    assert rank_loss(0.0, 0.0, margin=1.0) == pytest.approx(1.0)
    assert rank_loss(-1.0, 2.0, margin=1.0) == pytest.approx(4.0)
    assert rank_loss(1.0, 0.5, margin=0.2) == 0.0


# -- gradients against central finite differences -----------------------------

def finite_difference(model, batch, kind, eps=1e-4):
    flat = model.flatten_params()
    grad = np.zeros_like(flat)
    for i in range(len(flat)):
        for sign in (+1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * eps
            model.set_flat_params(bumped)
            loss, _ = gradients(model, batch, kind)
            grad[i] += sign * loss / (2.0 * eps)
    model.set_flat_params(flat)
    return grad


def max_relative_error(analytic, numeric):
    """Per-entry symmetric relative error, floored at a thousandth of the
    gradient scale so near-zero entries compare absolutely."""
    scale = max(np.abs(analytic).max(), np.abs(numeric).max())
    assert scale > 0.0
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                       1e-3 * scale)
    return float((np.abs(analytic - numeric) / denom).max())


@pytest.mark.parametrize("kind", ["rank", "binary"])
def test_gradients_match_finite_differences(tiny_dataset, grounded_pairs,
                                            kind):
    hyper = CriticHyper(embed_dim=3, input_dim=4, hidden_dim=3, head_dim=3)
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, hyper, seed=5)
    # one pair per phrase count, so that the batch is padded and masked
    by_length = {}
    for pair in grounded_pairs["train"]:
        by_length.setdefault(len(pair[0]), pair)
    pairs = list(by_length.values())
    assert len(pairs) > 1
    if kind == "rank":
        batch = pairs
    else:
        batch = [(p, True) for p, _ in pairs] + [(n, False) for _, n in pairs]
    _, grads = gradients(model, batch, kind)
    analytic = np.concatenate([grads[k].ravel() for k in (
        "emb", "w_in", "b_in", "w_x", "w_h", "b_g", "w_1", "b_1", "w_2",
        "b_2")])
    numeric = finite_difference(model, batch, kind)
    assert len(analytic) > 500
    assert max_relative_error(analytic, numeric) < 1e-4


def test_gradients_rejects_unknown_kind(small_model, grounded_pairs):
    with pytest.raises(ValueError, match="loss kind"):
        gradients(small_model, grounded_pairs["train"][:1], "triplet")


@pytest.fixture
def backward_calls(monkeypatch):
    """One entry per critic backward pass run while the test lasts: the
    number of scored rows."""
    calls = []

    def counted(*args):
        calls.append(len(args[2]))
        return _backward(*args)

    monkeypatch.setattr(critic, "_backward", counted)
    return calls


def test_rank_gradient_zero_when_margin_cleared(tiny_dataset, grounded_pairs,
                                                backward_calls):
    """A satisfied rank batch skips the backward pass and leaves every
    gradient +0.0; an active rank batch and a binary batch run it."""
    pair = grounded_pairs["train"][0]
    # a huge margin makes the pair active, a hugely negative one satisfied
    active = CriticModel.for_taxonomy(tiny_dataset.taxonomy,
                                      replace(SMALL, margin=1e6), seed=2)
    loss_active, grads_active = gradients(active, [pair], "rank")
    assert loss_active > 0.0
    assert any(np.abs(g).max() > 0.0 for g in grads_active.values())
    assert backward_calls == [2]
    idle = CriticModel.for_taxonomy(tiny_dataset.taxonomy,
                                    replace(SMALL, margin=-1e6), seed=2)
    loss_idle, grads_idle = gradients(idle, [pair], "rank")
    assert loss_idle == 0.0
    assert backward_calls == [2]
    for g in grads_idle.values():  # +0.0 everywhere, not -0.0
        assert not g.any() and not np.signbit(g).any()
    gradients(idle, [(pair[0], True), (pair[1], False)], "binary")
    assert backward_calls == [2, 2]


# -- training -----------------------------------------------------------------

def test_train_ranker_learns(tiny_dataset, grounded_pairs):
    hyper = CriticHyper(embed_dim=8, input_dim=16, hidden_dim=16,
                        head_dim=16, epochs=100, batch_size=16)
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, hyper, seed=0)
    report = train_ranker(model, grounded_pairs["train"],
                          grounded_pairs["val"], seed=0)
    assert report.objective == "rank"
    assert report.epochs == hyper.epochs
    assert len(report.train_loss) == hyper.epochs
    assert len(report.val_metric) == hyper.epochs
    assert report.train_loss[-1] < 0.01 < report.train_loss[0]
    assert report.final_train_loss == report.train_loss[-1]
    assert report.val_metric[-1] > 0.8
    assert pairwise_accuracy(model, grounded_pairs["train"]) > 0.99


def toy_binary_example(rng, label):
    """One-step sequence whose mention/match channels encode the label:
    relevant examples support every mentioned bit, foils drop one."""
    mention = (rng.random(3) < 0.6).astype(float)
    if not mention.any():
        mention[int(rng.integers(3))] = 1.0
    match = mention.copy()
    if not label:
        on = np.flatnonzero(mention)
        match[on[int(rng.integers(len(on)))]] = 0.0
    phrase = textproc.AttributePhrase(("on",), "off", (0, 2), (0,), 1)
    g = grounding.GroundedPhrase(phrase=phrase, part="p", region_index=0,
                                 box=(0.0, 0.0, 1.0, 1.0),
                                 features=rng.random(2), mention=mention,
                                 match=match, score=1.0)
    return [g], label


def test_train_classifier_learns():
    rng = np.random.default_rng(0)
    train = [toy_binary_example(rng, bool(i % 2)) for i in range(64)]
    val = [toy_binary_example(rng, bool(i % 2)) for i in range(32)]
    hyper = CriticHyper(embed_dim=4, input_dim=8, hidden_dim=8, head_dim=8,
                        epochs=500, batch_size=16, lr=0.5)
    model = CriticModel(("<unk>", "on", "off"), feature_dim=8, hyper=hyper,
                        seed=0, objective="binary")
    report = train_classifier(model, train, val, seed=0)
    assert report.objective == "binary"
    assert report.train_loss[-1] < 0.01
    assert report.val_metric[-1] == 1.0


def test_training_determinism(tiny_dataset, grounded_pairs):
    runs = []
    for _ in range(2):
        model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, SMALL, seed=3)
        report = train_ranker(model, grounded_pairs["train"][:64],
                              grounded_pairs["val"][:32], seed=3)
        runs.append((model.flatten_params(), report.train_loss))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def reference_training(model, examples, kind, seed):
    """The momentum update written per parameter name, on the batches and
    in the order _run_training uses; returns the per-epoch mean losses."""
    hyper = model.hyper
    rng = np.random.default_rng([seed, 1])
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    losses = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(examples))
        total = 0.0
        for lo in range(0, len(examples), hyper.batch_size):
            rows = order[lo:lo + hyper.batch_size]
            loss, grads = gradients(model, [examples[r] for r in rows], kind)
            total += loss * len(rows)
            for name in model.params:
                velocity[name] = hyper.momentum * velocity[name] + grads[name]
                model.params[name] -= hyper.lr * velocity[name]
        losses.append(total / len(examples))
    return losses


@pytest.mark.parametrize("kind", ["rank", "binary"])
def test_flat_update_equals_a_per_name_update(tiny_dataset, grounded_pairs,
                                              kind):
    """One vector update per step gives the bits of a per-name loop."""
    pairs = grounded_pairs["train"][:60]  # a short last batch too
    if kind == "rank":
        examples, train = pairs, train_ranker
    else:
        examples = [(p, True) for p, _ in pairs] + \
            [(n, False) for _, n in pairs]
        train = train_classifier
    flat = CriticModel.for_taxonomy(tiny_dataset.taxonomy, SMALL, seed=6)
    report = train(flat, examples, seed=6)
    ref = CriticModel.for_taxonomy(tiny_dataset.taxonomy, SMALL, seed=6)
    ref.objective = flat.objective
    losses = reference_training(ref, examples, kind, seed=6)
    assert report.train_loss == losses
    for name in flat.params:
        np.testing.assert_array_equal(flat.params[name], ref.params[name])
    np.testing.assert_array_equal(flat.flatten_params(),
                                  ref.flatten_params())


def always_backward_training(model, pairs, val_pairs, seed):
    """Rank training on the batches and in the order _run_training uses,
    with a backward pass on every batch, satisfied or not; returns the
    per-epoch mean losses and validation accuracies."""
    hyper, n = model.hyper, len(pairs)
    packed = pack_sequences([p for p, _ in pairs] + [q for _, q in pairs],
                            model)
    rng = np.random.default_rng([seed, 1])
    velocity = np.zeros_like(model.flat)
    losses, metrics = [], []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, hyper.batch_size):
            rows = order[lo:lo + hyper.batch_size]
            b = len(rows)
            scores, cache = _forward(
                model, packed.take(np.concatenate([rows, rows + n])),
                want_cache=True)
            hinge = np.maximum(0.0, scores[b:] - scores[:b] + hyper.margin)
            active = (hinge > 0.0) / b
            grad = np.zeros_like(model.flat)
            _backward(model, cache, np.concatenate([-active, active]),
                      model.views(grad))
            total += float(np.mean(hinge)) * b
            velocity *= hyper.momentum
            velocity += grad
            model.flat -= hyper.lr * velocity
        losses.append(total / n)
        metrics.append(pairwise_accuracy(model, val_pairs))
    return losses, metrics


def test_skipped_batches_equal_an_always_backward_reference(
        tiny_dataset, grounded_pairs, backward_calls):
    """Skipping the backward pass of satisfied rank batches, while the
    momentum still carries through them, changes no bit."""
    hyper = CriticHyper(embed_dim=8, input_dim=16, hidden_dim=16,
                        head_dim=16, epochs=30, batch_size=8, lr=0.1)
    pairs = grounded_pairs["train"][:60]  # a short last batch too
    val = grounded_pairs["val"][:16]
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, hyper, seed=8)
    report = train_ranker(model, pairs, val, seed=8)
    batches = hyper.epochs * math.ceil(len(pairs) / hyper.batch_size)
    assert 0 < len(backward_calls) < batches
    ref = CriticModel.for_taxonomy(tiny_dataset.taxonomy, hyper, seed=8)
    losses, metrics = always_backward_training(ref, pairs, val, seed=8)
    np.testing.assert_array_equal(model.flat, ref.flat)
    assert report.train_loss == losses
    assert report.val_metric == metrics


def test_infinite_loss_aborts_with_partial_report(tiny_dataset,
                                                  grounded_pairs):
    wild = CriticHyper(embed_dim=4, input_dim=5, hidden_dim=4, head_dim=3,
                       epochs=8, margin=float("inf"))
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, wild, seed=0)
    with pytest.raises(TrainingDivergedError) as info:
        train_ranker(model, grounded_pairs["train"][:64], seed=0)
    report = info.value.report
    assert report is not None
    assert report.epochs == 0
    assert report.train_loss == []


def test_non_finite_scores_abort(tiny_dataset, grounded_pairs):
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, SMALL, seed=0)
    model.params["w_2"][0] = float("nan")
    with pytest.raises(TrainingDivergedError):
        train_ranker(model, grounded_pairs["train"][:64], seed=0)


def test_report_json_shape(tiny_dataset, grounded_pairs):
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, SMALL, seed=0)
    report = train_ranker(model, grounded_pairs["train"][:32],
                          grounded_pairs["val"][:16], seed=0)
    out = report.to_json()
    assert set(out) == {"objective", "epochs", "train_loss", "val_metric",
                        "final_train_loss"}


# -- checkpoints ---------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, tiny_dataset, grounded_pairs):
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, SMALL, seed=4)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.vocab == model.vocab
    assert loaded.feature_dim == model.feature_dim
    assert loaded.objective == model.objective
    assert loaded.hyper == model.hyper
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name],
                                      model.params[name])
    seqs = some_sequences(grounded_pairs, 8)
    np.testing.assert_array_equal(model.score_many(seqs),
                                  loaded.score_many(seqs))


def refuse_to_build(*args, **kwargs):
    raise AssertionError("a critic was built before its sizes were checked")


def test_checkpoint_rejects_corruption(tmp_path, tiny_dataset, monkeypatch):
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, SMALL)
    path = tmp_path / "model.json"

    save_checkpoint(model, path)
    payload = read_json(path)

    bad = dict(payload, kind="optimizer")
    write_json(path, bad)
    with pytest.raises(CheckpointError, match="not a critic"):
        load_checkpoint(path)

    bad = dict(payload, format=99)
    write_json(path, bad)
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(path)

    bad = dict(payload, hyper=dict(payload["hyper"], batch_size=0))
    write_json(path, bad)
    with pytest.raises(CheckpointError, match="batch_size"):
        load_checkpoint(path)

    bad = dict(payload, hyper=dict(payload["hyper"], lr=float("inf")))
    write_json(path, bad)
    with pytest.raises(CheckpointError, match="lr must be finite"):
        load_checkpoint(path)

    bad = dict(payload)
    bad["params"] = {k: v for k, v in payload["params"].items()
                     if k != "w_h"}
    write_json(path, bad)
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(path)

    bad = dict(payload)
    bad["params"] = dict(payload["params"])
    entry = dict(payload["params"]["w_2"])
    entry["shape"] = [1]
    entry["data"] = [0.5]
    bad["params"]["w_2"] = entry
    write_json(path, bad)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)

    # sizes are checked against the data before any critic is built, so a
    # size of 10^9 is never allocated
    bad = dict(payload, hyper=dict(payload["hyper"], hidden_dim=10 ** 9))
    write_json(path, bad)
    with monkeypatch.context() as patch:
        patch.setattr(CriticModel, "__init__", refuse_to_build)
        with pytest.raises(CheckpointError, match="expected"):
            load_checkpoint(path)

    bad = dict(payload)
    bad["params"] = dict(payload["params"])
    entry = dict(payload["params"]["w_h"])
    entry["data"] = entry["data"][:-1]
    bad["params"]["w_h"] = entry
    write_json(path, bad)
    with pytest.raises(CheckpointError, match="values, expected"):
        load_checkpoint(path)

    bad = dict(payload, feature_dim=payload["feature_dim"] + 1)
    write_json(path, bad)
    with pytest.raises(CheckpointError, match="parameter w_in has shape"):
        load_checkpoint(path)

    bad = dict(payload)
    bad["params"] = dict(payload["params"])
    entry = dict(payload["params"]["b_2"])
    entry["data"] = [float("nan")]
    bad["params"]["b_2"] = entry
    write_json(path, bad)
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)

    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="unreadable"):
        load_checkpoint(path)

    write_json(path, [1, 2, 3])
    with pytest.raises(CheckpointError, match="not a critic"):
        load_checkpoint(path)
