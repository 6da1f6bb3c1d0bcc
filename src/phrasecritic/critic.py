"""Recurrent phrase-sequence critic with hand-derived gradients.

Each grounded phrase becomes one step: the mean of its token embeddings is
concatenated with the matched region's feature vector (indicators plus
geometry), the phrase's mention indicator, the elementwise mention/region
overlap, and the raw grounding score, then projected to the recurrent
input size. A gated recurrent (LSTM) encoder consumes the steps in sentence
order; the final hidden state feeds a two-layer tanh head that emits the
scalar relevance score S_r. The overlap channel matters: the raw score
saturates and so reports only that the grounder landed somewhere, while
mention minus overlap exposes exactly which claimed attributes the landed
region fails to support.

All gradients are computed manually (no autograd) and checked against
central finite differences in the test suite. A batch of sequences of mixed
lengths is left-padded into one tensor and runs as a handful of matrix
products per step; padded steps are masked so that they keep the state at
zero. Both objectives share one forward, one backward and one
loss-and-gradient function; the rank objective stacks each batch's
positives over their negatives in a single forward. All parameters live in
one flat vector (``params`` holds named views into it), so a training step
is one momentum update over that vector.

A rank batch in which every pair already clears the margin has a zero
gradient, so it skips the backward pass. That changes no bit: with finite
parameters every term the backward pass would add is +-0.0, so the zeroed
gradient stays +0.0 and the momentum step is the one a zero gradient gives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CheckpointError, ConfigurationError,
                     TrainingDivergedError, bounded, check_bounds)
from .jsonio import read_json, record_from_json, record_to_json, write_json

UNK = "<unk>"


@dataclass
class CriticHyper:
    embed_dim: int = bounded(16, 1)
    input_dim: int = bounded(32, 1)
    hidden_dim: int = bounded(32, 1)
    head_dim: int = bounded(32, 1)
    margin: float = 1.0  # unbounded: an infinite one ends in exit 6
    lr: float = bounded(0.05, 0, low_open=True)
    momentum: float = bounded(0.9, 0, 1, high_open=True)
    batch_size: int = bounded(32, 1)
    epochs: int = bounded(30, 1)

    __post_init__ = check_bounds


def param_shapes(vocab_size: int, feature_dim: int,
                 hyper: CriticHyper) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in the order of the flat parameter vector."""
    e, i, h, m = (hyper.embed_dim, hyper.input_dim, hyper.hidden_dim,
                  hyper.head_dim)
    # a step is the mean token embedding (+) evidence channels (+) raw score
    return {"emb": (vocab_size, e), "w_in": (e + feature_dim + 1, i),
            "b_in": (i,), "w_x": (i, 4 * h), "w_h": (h, 4 * h),
            "b_g": (4 * h,), "w_1": (h, m), "b_1": (m,), "w_2": (m,),
            "b_2": (1,)}


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class CriticModel:
    """Parameter container plus forward machinery for the critic."""

    def __init__(self, vocab, feature_dim: int,
                 hyper: CriticHyper | None = None, seed: int = 0,
                 objective: str = "rank"):
        if objective not in ("rank", "binary"):
            raise ConfigurationError(
                f"objective must be rank or binary, got {objective!r}")
        if vocab[0] != UNK:
            vocab = (UNK,) + tuple(t for t in vocab if t != UNK)
        self.vocab = tuple(vocab)
        self.index = {tok: i for i, tok in enumerate(self.vocab)}
        self.feature_dim = int(feature_dim)
        self.hyper = hyper or CriticHyper()
        self.objective = objective
        shapes = param_shapes(len(self.vocab), self.feature_dim, self.hyper)
        rng = np.random.default_rng([seed, 0])
        # weights uniform in +-0.1 and biases zero, drawn in flat order
        self.flat = np.concatenate([
            np.zeros(math.prod(shape)) if name.startswith("b_")
            else rng.uniform(-0.1, 0.1, size=math.prod(shape))
            for name, shape in shapes.items()])
        self.params = self.views(self.flat)
        # Open forget gate at init so early steps are remembered.
        hd = self.hyper.hidden_dim
        self.params["b_g"][hd:2 * hd] = 1.0

    @classmethod
    def for_taxonomy(cls, taxonomy, hyper=None, seed: int = 0,
                     objective: str = "rank") -> "CriticModel":
        from .grounding import feature_dim
        vocab = (UNK,) + tuple(sorted(taxonomy.lexicon))
        # region features, then mention and overlap indicator channels
        width = feature_dim(taxonomy) + 2 * taxonomy.vector_dim
        return cls(vocab, width, hyper, seed, objective)

    # -- parameters ---------------------------------------------------------

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into a vector laid out like the parameter vector."""
        views, offset = {}, 0
        for name, shape in param_shapes(len(self.vocab), self.feature_dim,
                                        self.hyper).items():
            size = math.prod(shape)
            views[name] = flat[offset:offset + size].reshape(shape)
            offset += size
        return views

    def flatten_params(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat_params(self, flat: np.ndarray) -> None:
        self.flat[...] = flat

    # -- forward ------------------------------------------------------------

    def score(self, grounded_seq) -> float:
        """Relevance score for one sequence of grounded phrases."""
        if not grounded_seq:
            raise ValueError("cannot score an empty phrase sequence")
        return float(self.score_many([grounded_seq])[0])

    def score_many(self, sequences) -> np.ndarray:
        scores, _ = _forward(self, pack_sequences(sequences, self))
        return scores


# -- losses -----------------------------------------------------------------

def rank_loss(s_p, s_n, margin: float = 1.0):
    """Margin ranking loss max(0, s_n - s_p + margin), elementwise; zero iff
    the positive clears the negative by the full margin."""
    return np.maximum(0.0, s_n - s_p + margin)


# -- packing ----------------------------------------------------------------

_PAD = 0  # step row 0 is all zeros and stands for a padded step


@dataclass
class PackedSequences:
    """Phrase steps stored once, one row each, and a left-padded step index.

    Row ``index[r, s]`` of the step arrays is step ``s`` of sequence ``r``;
    shorter sequences are left-padded with the pad row, so every sequence
    ends in the last column.
    """

    ids: np.ndarray       # (steps + 1, L) token ids, 0-padded
    wts: np.ndarray       # (steps + 1, L) 1/len token weights, 0 on pads
    feats: np.ndarray     # (steps + 1, F)
    svals: np.ndarray     # (steps + 1,)
    index: np.ndarray     # (n, T) step rows, _PAD before the first step

    def take(self, rows) -> "PackedSequences":
        """The given sequences, padded only to the longest among them."""
        index = self.index[rows]
        width = int((index != _PAD).sum(axis=1).max(initial=0))
        return replace(self, index=index[:, index.shape[1] - width:])


def pack_sequences(sequences, model: CriticModel) -> PackedSequences:
    """Lay sequences out as one step table and a left-padded index."""
    lengths = [len(seq) for seq in sequences]
    if 0 in lengths:
        raise ValueError("cannot pack an empty phrase sequence")
    steps = [g for seq in sequences for g in seq]
    max_tok = max((len(g.phrase.tokens()) for g in steps), default=0)
    ids = np.zeros((len(steps) + 1, max_tok), dtype=np.int64)
    wts = np.zeros((len(steps) + 1, max_tok))
    feats = np.zeros((len(steps) + 1, model.feature_dim))
    svals = np.zeros(len(steps) + 1)
    for row, g in enumerate(steps, start=1):
        toks = g.phrase.tokens()
        for l, tok in enumerate(toks):
            ids[row, l] = model.index.get(tok, 0)
            wts[row, l] = 1.0 / len(toks)
        feats[row] = np.concatenate([g.features, g.mention, g.match])
        svals[row] = g.score
    width = max(lengths, default=0)
    index = np.full((len(sequences), width), _PAD, dtype=np.int64)
    row = 1
    for r, t in enumerate(lengths):
        index[r, width - t:] = np.arange(row, row + t)
        row += t
    return PackedSequences(ids, wts, feats, svals, index)


def _forward(model: CriticModel, packed: PackedSequences, want_cache=False):
    """Scores for every packed sequence, plus what _backward needs."""
    params, hd = model.params, model.hyper.hidden_dim
    index = packed.index
    n, t = index.shape
    real = index != _PAD
    padded = (~real.all(axis=0)).tolist()  # columns that hold a pad
    ids, wts = packed.ids[index], packed.wts[index]
    mean_emb = (params["emb"][ids] * wts[..., None]).sum(axis=2)
    u = np.concatenate([mean_emb, packed.feats[index],
                        packed.svals[index][..., None]], axis=2)
    x = u @ params["w_in"] + params["b_in"]
    h = np.zeros((n, hd))
    c = np.zeros((n, hd))
    steps = []
    for step in range(t):
        z = x[:, step] @ params["w_x"] + h @ params["w_h"] + params["b_g"]
        i = _sigmoid(z[:, :hd])
        f = _sigmoid(z[:, hd:2 * hd])
        o = _sigmoid(z[:, 2 * hd:3 * hd])
        g = np.tanh(z[:, 3 * hd:])
        c_new = f * c + i * g
        if padded[step]:
            # a padded step keeps c = 0, and with it h = o * tanh(0) = 0
            c_new = np.where(real[:, step, None], c_new, 0.0)
        tc = np.tanh(c_new)
        if want_cache:
            steps.append((i, f, o, g, c, h, tc))
        c, h = c_new, o * tc
    m = np.tanh(h @ params["w_1"] + params["b_1"])
    scores = m @ params["w_2"] + params["b_2"][0]
    cache = (ids, wts, real, padded, u, x, steps, h, m) if want_cache \
        else None
    return scores, cache


def _backward(model: CriticModel, cache, d_scores, grads) -> None:
    """Add the parameter gradients of sum(d_scores * scores) through
    _forward into grads, named views of a zeroed vector."""
    params, hyper = model.params, model.hyper
    ids, wts, real, padded, u, x, steps, h_final, m = cache
    hd, de = hyper.hidden_dim, hyper.embed_dim
    n, t = real.shape

    grads["w_2"] += m.T @ d_scores
    grads["b_2"] += d_scores.sum(keepdims=True)
    da1 = d_scores[:, None] * params["w_2"][None, :] * (1.0 - m * m)
    grads["w_1"] += h_final.T @ da1
    grads["b_1"] += da1.sum(axis=0)

    dh = da1 @ params["w_1"].T
    dc = np.zeros((n, hd))
    dz = np.zeros((n, t, 4 * hd))
    for step in reversed(range(t)):
        i, f, o, g, c_prev, _, tc = steps[step]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        if padded[step]:
            dc = np.where(real[:, step, None], dc, 0.0)
        dz[:, step] = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            do * o * (1.0 - o),
            dc * i * (1.0 - g * g),
        ], axis=1)
        dc = dc * f
        dh = dz[:, step] @ params["w_h"].T

    # One product over all (sequence, step) rows for each gate weight.
    flat_dz = dz.reshape(-1, 4 * hd)
    h_prev = np.stack([s[5] for s in steps], axis=1).reshape(-1, hd)
    grads["w_x"] += x.reshape(-1, x.shape[2]).T @ flat_dz
    grads["w_h"] += h_prev.T @ flat_dz
    grads["b_g"] += flat_dz.sum(axis=0)
    dx = dz @ params["w_x"].T
    grads["w_in"] += u.reshape(-1, u.shape[2]).T @ dx.reshape(-1, dx.shape[2])
    grads["b_in"] += dx.sum(axis=(0, 1))
    dmean = (dx @ params["w_in"].T)[:, :, :de]
    contrib = wts[..., None] * dmean[:, :, None, :]
    np.add.at(grads["emb"], ids.reshape(-1), contrib.reshape(-1, de))


def _loss_and_grads(model: CriticModel, packed: PackedSequences, kind: str,
                    grads, labels=None) -> float:
    """Mean loss of one packed batch; its gradients are added into grads.

    For kind "rank" the first half of the rows are positives and the second
    half their negatives, in the same order; for "binary" ``labels`` holds
    one 0/1 target per row.
    """
    scores, cache = _forward(model, packed, want_cache=True)
    if not np.all(np.isfinite(scores)):
        raise TrainingDivergedError("non-finite critic score encountered")
    if kind == "rank":
        b = len(scores) // 2
        hinge = rank_loss(scores[:b], scores[b:], model.hyper.margin)
        loss = float(np.mean(hinge))
        if not hinge.any():  # a zero gradient: grads stay +0.0 untouched
            return loss
        active = (hinge > 0.0).astype(float) / b
        d_scores = np.concatenate([-active, active])
    else:
        loss = float(np.mean(np.logaddexp(
            0.0, np.where(labels > 0.5, -scores, scores))))
        d_scores = (_sigmoid(scores) - labels) / len(scores)
    _backward(model, cache, d_scores, grads)
    return loss


def _pack_pairs(pairs, model: CriticModel) -> PackedSequences:
    """Positives in rows [0, n), their negatives in rows [n, 2n)."""
    return pack_sequences([p for p, _ in pairs] + [q for _, q in pairs],
                          model)


def _labels(examples) -> np.ndarray:
    return np.array([1.0 if y else 0.0 for _, y in examples])


# -- gradients --------------------------------------------------------------

def gradients(model: CriticModel, batch, kind: str = "rank"):
    """Mean loss and parameter gradients for a batch.

    For kind "rank" the batch is (positive sequence, negative sequence)
    pairs; for "binary" it is (sequence, boolean label) examples. The
    gradients are named views of one vector laid out like model.flat.
    """
    grads = model.views(np.zeros_like(model.flat))
    if kind == "rank":
        loss = _loss_and_grads(model, _pack_pairs(batch, model), kind, grads)
    elif kind == "binary":
        packed = pack_sequences([s for s, _ in batch], model)
        loss = _loss_and_grads(model, packed, kind, grads, _labels(batch))
    else:
        raise ValueError(f"unknown loss kind {kind!r}")
    return loss, grads


# -- training ---------------------------------------------------------------

@dataclass
class TrainReport:
    objective: str
    epochs: int
    train_loss: list[float]
    val_metric: list[float]
    wall_clock: float
    final_train_loss: float = 0.0

    def to_json(self) -> dict:
        """The fields but the wall clock, which differs between reruns."""
        return {key: value for key, value in record_to_json(self).items()
                if key != "wall_clock"}


# Overflow on the way to divergence is not reported: the non-finite checks
# below turn it into a TrainingDivergedError.
@np.errstate(over="ignore", invalid="ignore")
def _run_training(model: CriticModel, forward_loss, n_examples: int,
                  val_metric, seed: int) -> TrainReport:
    if n_examples == 0:
        raise ConfigurationError(
            f"no training examples for the {model.objective} objective")
    hyper = model.hyper
    rng = np.random.default_rng([seed, 1])
    grad = np.zeros_like(model.flat)
    grads = model.views(grad)
    velocity = np.zeros_like(model.flat)
    losses = []
    metrics = []
    start = time.monotonic()
    for epoch in range(hyper.epochs):
        order = rng.permutation(n_examples)
        total = 0.0
        for lo in range(0, n_examples, hyper.batch_size):
            rows = order[lo:lo + hyper.batch_size]
            grad.fill(0.0)
            loss = forward_loss(rows, grads)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss diverged at epoch {epoch}",
                    report=TrainReport(model.objective, epoch, losses,
                                       metrics, time.monotonic() - start))
            total += loss * len(rows)
            # element for element the same operations as a per-name update
            velocity *= hyper.momentum
            velocity += grad
            model.flat -= hyper.lr * velocity
        losses.append(total / n_examples)
        if val_metric is not None:
            metrics.append(val_metric())
    return TrainReport(model.objective, hyper.epochs, losses, metrics,
                       time.monotonic() - start,
                       losses[-1] if losses else 0.0)


def train_ranker(model: CriticModel, train_pairs, val_pairs=None,
                 seed: int = 0) -> TrainReport:
    """Fit the critic on (positive, negative) grounded-sequence pairs."""
    model.objective = "rank"
    n = len(train_pairs)
    packed = _pack_pairs(train_pairs, model)
    val = None
    if val_pairs:
        val = (pack_sequences([p for p, _ in val_pairs], model),
               pack_sequences([q for _, q in val_pairs], model))

    def forward_loss(rows, grads):
        both = packed.take(np.concatenate([rows, rows + n]))
        return _loss_and_grads(model, both, "rank", grads)

    def val_metric():
        # one forward per side: a stacked one would hold both in memory
        s_p, _ = _forward(model, val[0])
        s_n, _ = _forward(model, val[1])
        return float(np.mean(s_p > s_n))

    return _run_training(model, forward_loss, n,
                         val_metric if val else None, seed)


def train_classifier(model: CriticModel, train_examples, val_examples=None,
                     seed: int = 0) -> TrainReport:
    """Fit the critic with the binary objective on labeled sequences."""
    model.objective = "binary"
    packed = pack_sequences([s for s, _ in train_examples], model)
    labels = _labels(train_examples)
    val = None
    if val_examples:
        val = (pack_sequences([s for s, _ in val_examples], model),
               _labels(val_examples))

    def forward_loss(rows, grads):
        return _loss_and_grads(model, packed.take(rows), "binary", grads,
                               labels[rows])

    def val_metric():
        s, _ = _forward(model, val[0])
        return float(np.mean((s > 0.0) == (val[1] > 0.5)))

    return _run_training(model, forward_loss, len(train_examples),
                         val_metric if val else None, seed)


def pairwise_accuracy(model: CriticModel, pairs) -> float:
    """Fraction of pairs where the positive outranks the negative."""
    s_p = model.score_many([p for p, _ in pairs])
    s_n = model.score_many([n for _, n in pairs])
    return float(np.mean(s_p > s_n))


# -- checkpointing ----------------------------------------------------------

CHECKPOINT_FORMAT = 1


def save_checkpoint(model: CriticModel, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "kind": "critic",
        "objective": model.objective,
        "vocab": list(model.vocab),
        "feature_dim": model.feature_dim,
        "hyper": record_to_json(model.hyper),
        "params": {
            name: {"shape": list(arr.shape),
                   "data": arr.ravel().tolist()}
            for name, arr in model.params.items()
        },
    }
    write_json(path, payload)


def load_checkpoint(path) -> CriticModel:
    try:
        payload = read_json(path)
    except ValueError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "critic":
        raise CheckpointError(f"{path} is not a critic checkpoint")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {payload.get('format')!r}")
    try:
        hyper = record_from_json(CriticHyper, payload["hyper"])
        vocab = tuple(payload["vocab"])  # a critic's starts with <unk>
        if vocab[:1] != (UNK,):
            raise CheckpointError(
                f"corrupt checkpoint {path}: empty vocab, or {UNK} not first")
        feature_dim = record_from_json(int, payload["feature_dim"])
        shapes = param_shapes(len(vocab), feature_dim, hyper)
        # sizes first: a stated size is only allocated once data backs it
        entries = [payload["params"][name] for name in shapes]
        for (name, shape), entry in zip(shapes.items(), entries):
            if tuple(entry["shape"]) != shape or \
                    len(entry["data"]) != math.prod(shape):
                raise CheckpointError(
                    f"parameter {name} has shape {tuple(entry['shape'])} "
                    f"and {len(entry['data'])} values, expected {shape}")
        model = CriticModel(vocab, feature_dim, hyper,
                            objective=payload["objective"])
        model.flat[...] = [value for entry in entries for value
                           in record_from_json(list[float], entry["data"])]
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    for name, arr in model.params.items():
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"non-finite values in parameter {name}")
    return model
