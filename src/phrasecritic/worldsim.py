"""Synthetic bird-scene world: taxonomy, class profiles, scenes, sentences.

Everything is a pure function of (config, seed). Scenes and sentences draw
from RNG streams derived from (seed, scene index), so generating scene 512
alone yields the same scene as generating all of them in order. A pick
from a sequence replays Generator.choice: pick, pick_sorted, _pick_category.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import jsonio, textproc
from .errors import ConfigurationError, GenerationError

PARTS = ("beak", "head", "belly", "eye", "wing", "feet", "neck", "body")

ATTRIBUTE_CATEGORIES = ("color", "size", "pattern")

_TOKEN_POOLS = {
    "color": ("red", "black", "yellow", "white", "blue", "green", "orange",
              "brown", "grey", "pink"),
    "size": ("small", "large", "long", "short", "tiny", "broad"),
    "pattern": ("speckled", "spotted", "striped", "plain", "mottled",
                "barred"),
}

# Nouns that refer to the bird as a whole ground to the body region.
NOUN_ALIASES = {"bird": "body", "feathers": "body"}

_FUNCTION_WORDS = {
    "this": textproc.DET,
    "a": textproc.DET,
    "the": textproc.DET,
    "is": textproc.VERB,
    "are": textproc.VERB,
    "has": textproc.VERB,
    "and": textproc.CONJ,
    "with": textproc.OTHER,
}

# Mean region geometry (cx, cy, w, h) on the unit canvas, y pointing up:
# heads sit high on the canvas, feet low, the body spans the middle.
_PART_LAYOUT = {
    "beak": (0.66, 0.76, 0.12, 0.07),
    "head": (0.52, 0.74, 0.20, 0.18),
    "belly": (0.48, 0.28, 0.30, 0.22),
    "eye": (0.54, 0.78, 0.06, 0.05),
    "wing": (0.42, 0.44, 0.26, 0.20),
    "feet": (0.50, 0.08, 0.16, 0.08),
    "neck": (0.52, 0.58, 0.16, 0.13),
    "body": (0.46, 0.40, 0.44, 0.38),
}

_CENTER_JITTER = 0.03
_SIZE_JITTER = 0.12
_MIN_BOX_SIDE = 0.02

SPLITS = ("train", "val", "test")


@dataclass
class WorldConfig:
    """Knobs for dataset generation; defaults give the standard benchmark."""

    colors: int = 8
    sizes: int = 4
    patterns: int = 4
    num_classes: int = 20
    scenes_per_class: int = 150
    sentences_per_scene: int = 10
    foils_per_scene: int = 1
    noise: float = 0.15
    splits: tuple[float, float, float] = (0.7, 0.1, 0.2)
    kappa_range: tuple[float, float] = (0.3, 3.0)
    sigma: float = 0.05
    feature_noise: float = 0.0
    min_profile_distance: int = 2

    def category_counts(self):
        return {"color": self.colors, "size": self.sizes,
                "pattern": self.patterns}


@dataclass
class GrounderConfig:
    """Grounder parameters carried inside the dataset for reproducibility."""

    sigma: float = 0.05
    feature_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma", "feature_noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {value}")
        if self.feature_noise > 1.0:
            raise ConfigurationError(
                f"feature_noise must be <= 1, got {self.feature_noise}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Taxonomy:
    """Attribute categories, part nouns, the lexicon, and grounder scales.

    kappa holds the fixed per-part scale applied to raw grounding scores;
    it is sampled once per taxonomy so scores are never comparable across
    parts unless a model learns to normalise them.
    """

    parts: tuple[str, ...]
    categories: dict[str, tuple[str, ...]]
    kappa: dict[str, float]
    aliases: dict[str, str]
    lexicon: dict[str, tuple[str, str | None]] = field(init=False, repr=False)
    vector_index: dict[str, int] = field(init=False, repr=False)
    frame_parts: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        for i, part in enumerate(self.parts):
            if part in self.parts[:i]:
                raise ConfigurationError(f"taxonomy lists part {part!r} twice")
            scale = self.kappa.get(part)
            if scale is None or not math.isfinite(scale):
                raise ConfigurationError(
                    f"taxonomy kappa for part {part!r} must be a finite "
                    f"number, got {scale}")
        for alias, part in self.aliases.items():
            if part not in self.parts:
                raise ConfigurationError(
                    f"taxonomy alias {alias!r} maps to {part!r}, which is not "
                    f"a taxonomy part")
        seen = set()
        for cat, tokens in self.categories.items():
            for tok in tokens:
                if tok in seen:
                    raise ConfigurationError(
                        f"attribute token {tok!r} appears in two categories")
                seen.add(tok)
        nouns = seen.intersection({*self.parts, *self.aliases})
        if nouns:
            raise ConfigurationError(
                f"part nouns {sorted(nouns)} are also attribute tokens")
        # the parts a frame may mention besides the bird (body) itself
        self.frame_parts = tuple(p for p in self.parts if p != "body")
        most = max(n_parts for _, _, n_parts in _FRAMES)
        if "body" not in self.parts:
            raise ConfigurationError("taxonomy has no 'body' part")
        if len(self.frame_parts) < most:
            raise ConfigurationError(
                f"taxonomy has {len(self.frame_parts)} parts besides 'body'; "
                f"the sentence frames mention up to {most}")
        lexicon = {}
        for cat, tokens in self.categories.items():
            for tok in tokens:
                lexicon[tok] = (textproc.ADJ, cat)
        for part in self.parts:
            lexicon[part] = (textproc.NOUN, "part")
        for alias in self.aliases:
            lexicon[alias] = (textproc.NOUN, "part")
        for word, pos in _FUNCTION_WORDS.items():
            lexicon.setdefault(word, (pos, None))
        index = {}
        for cat in ATTRIBUTE_CATEGORIES:
            for tok in self.categories.get(cat, ()):
                index[tok] = len(index)
        for part in self.parts:
            index[part] = len(index)
        self.lexicon = lexicon
        self.vector_index = index

    @property
    def vector_dim(self) -> int:
        return len(self.vector_index)

    def category_of(self, token: str) -> str | None:
        entry = self.lexicon.get(token)
        return entry[1] if entry else None

    def canonical_part(self, noun: str) -> str | None:
        """Map a noun to the part whose region it refers to."""
        if noun in self.parts:
            return noun
        return self.aliases.get(noun)

    def flip_pool(self, token: str) -> tuple[str, ...]:
        """Same-category replacement candidates for a content token."""
        cat = self.category_of(token)
        if cat is None:
            return ()
        if cat == "part":
            original = self.canonical_part(token)
            return tuple(p for p in self.parts if p != original)
        return tuple(t for t in self.categories[cat] if t != token)


@dataclass
class ClassProfile:
    """Characteristic attribute per (part, category) for one bird class."""

    class_id: int
    name: str
    attributes: dict[str, dict[str, str]]
    noise_rate: float

    def assignment(self) -> dict[tuple[str, str], str]:
        return {(part, cat): tok
                for part, cats in self.attributes.items()
                for cat, tok in cats.items()}

    def distance(self, other: "ClassProfile") -> int:
        return assignment_distance(self.assignment(), other.assignment())


def assignment_distance(a, b) -> int:
    """Count of (part, category) slots whose tokens differ."""
    keys = set(a) | set(b)
    return sum(1 for k in keys if a.get(k) != b.get(k))


@dataclass
class Region:
    part: str
    box: tuple[float, float, float, float]
    attrs: dict[str, str]


@dataclass
class Scene:
    scene_id: int = field(metadata={"json": "id"})
    class_id: int = field(metadata={"json": "class"})
    regions: list[Region]
    keypoints: dict[str, tuple[float, float]]
    split: str

    def region_for(self, part: str) -> Region | None:
        for region in self.regions:
            if region.part == part:
                return region
        return None

    def assignment(self) -> dict[tuple[str, str], str]:
        return {(r.part, cat): tok
                for r in self.regions for cat, tok in r.attrs.items()}


@dataclass
class FoilInfo:
    index: int
    original: str


@dataclass
class Sentence:
    scene_id: int
    tokens: list[str]
    foil: FoilInfo | None = None


_DATASET_FIELDS = {"seed": int, "taxonomy": dict, "profiles": list,
                   "grounder": dict, "scenes": list, "sentences": list}


@dataclass
class Dataset:
    taxonomy: Taxonomy
    profiles: list[ClassProfile]
    scenes: list[Scene]
    sentences: list[Sentence]
    grounder: GrounderConfig
    seed: int

    FORMAT = 1

    def profile_for(self, class_id: int) -> ClassProfile:
        return self.profiles[class_id]

    def scenes_in_split(self, split: str) -> list[Scene]:
        return [s for s in self.scenes if s.split == split]

    def to_json(self) -> dict:
        return {"format": self.FORMAT, **jsonio.record_to_json(self)}

    @classmethod
    def from_json(cls, obj) -> "Dataset":
        if not isinstance(obj, dict):
            raise ConfigurationError("a dataset must be a JSON object")
        if obj.get("format") != cls.FORMAT:
            raise ConfigurationError(
                f"unsupported dataset format {obj.get('format')!r}")
        for key, kind in _DATASET_FIELDS.items():
            if key not in obj:
                raise ConfigurationError(f"dataset has no {key!r} field")
            if not isinstance(obj[key], kind):
                raise ConfigurationError(
                    f"dataset field {key!r} must be a {kind.__name__}, "
                    f"got {type(obj[key]).__name__}")
        built = {}
        for name, key, kind in jsonio.record_fields(cls):
            try:
                built[name] = jsonio.record_from_json(kind, obj[key])
            except ConfigurationError:
                raise
            except (KeyError, TypeError, ValueError, AttributeError,
                    OverflowError) as exc:
                raise ConfigurationError(
                    f"malformed dataset {key!r}: {type(exc).__name__}: "
                    f"{exc}") from exc
        dataset = cls(**built)
        dataset._check_references()
        return dataset

    def _check_references(self) -> None:
        """Reject records that refer to a class, part, scene or token the
        dataset does not hold, scenes or profiles that leave a part or an
        attribute category out, scenes with two regions or no keypoint for a
        part or with a split not in SPLITS, names, splits, tokens and foil
        originals that are not strings, and region boxes and keypoints that
        are not 4 and 2 finite numbers, naming the first such record."""
        parts = self.taxonomy.parts
        # tuples: membership by equality, so a list or dict is not hashed
        tokens = {cat: self.taxonomy.categories.get(cat, ())
                  for cat in ATTRIBUTE_CATEGORIES}
        for i, profile in enumerate(self.profiles):
            if profile.class_id != i:
                raise ConfigurationError(
                    f"dataset profile {i} has class_id {profile.class_id}; "
                    f"profiles must be listed in class-id order")
            _check_string(profile.name, "dataset profile {} has name", i)
            for part in parts:
                if part not in profile.attributes:
                    raise ConfigurationError(
                        f"dataset profile {i} has no attributes for {part!r}")
                _check_attributes(profile.attributes[part], tokens,
                                  "dataset profile {} part {!r}", i, part)
        for scene in self.scenes:
            if not 0 <= scene.class_id < len(self.profiles):
                raise ConfigurationError(
                    f"dataset scene {scene.scene_id} has class "
                    f"{scene.class_id}, which has no profile")
            _check_string(scene.split, "dataset scene {} has split",
                          scene.scene_id)
            if scene.split not in SPLITS:
                raise ConfigurationError(
                    f"dataset scene {scene.scene_id} has split "
                    f"{scene.split!r}, which is not one of {SPLITS}")
            present = set()
            for region in scene.regions:
                if region.part not in parts:
                    raise ConfigurationError(
                        f"dataset scene {scene.scene_id} has a region for "
                        f"{region.part!r}, which is not a taxonomy part")
                if region.part in present:
                    raise ConfigurationError(
                        f"dataset scene {scene.scene_id} has two regions for "
                        f"{region.part!r}")
                present.add(region.part)
                if len(region.box) != 4 or \
                        not all(map(math.isfinite, region.box)):
                    raise ConfigurationError(
                        f"dataset scene {scene.scene_id} region "
                        f"{region.part!r} has box {list(region.box)}, which "
                        f"is not 4 finite numbers")
                _check_attributes(region.attrs, tokens,
                                  "dataset scene {} region {!r}",
                                  scene.scene_id, region.part)
            for part, point in scene.keypoints.items():
                if len(point) != 2 or not all(map(math.isfinite, point)):
                    raise ConfigurationError(
                        f"dataset scene {scene.scene_id} keypoint {part!r} "
                        f"is {list(point)}, which is not 2 finite numbers")
            for part in parts:
                if part not in present:
                    raise ConfigurationError(
                        f"dataset scene {scene.scene_id} has no region for "
                        f"{part!r}")
                if part not in scene.keypoints:
                    raise ConfigurationError(
                        f"dataset scene {scene.scene_id} has no keypoint for "
                        f"{part!r}")
        scene_ids = {scene.scene_id for scene in self.scenes}
        for i, sentence in enumerate(self.sentences):
            if sentence.scene_id not in scene_ids:
                raise ConfigurationError(
                    f"dataset sentence {i} names scene {sentence.scene_id}, "
                    f"which is not in the dataset")
            try:  # one call in C, which fails on a token that is no string
                "".join(sentence.tokens)
            except TypeError:
                for token in sentence.tokens:
                    _check_string(token, "dataset sentence {} has token", i)
            foil = sentence.foil
            if foil is None:
                continue
            _check_string(foil.original,
                          "dataset sentence {} has foil original", i)
            if not 0 <= foil.index < len(sentence.tokens):
                raise ConfigurationError(
                    f"dataset sentence {i} has foil index {foil.index} "
                    f"outside its {len(sentence.tokens)} tokens")
            # the foil's phrases give the original's (textproc.apply_edits)
            lexicon = self.taxonomy.lexicon
            foiled = sentence.tokens[foil.index]
            if lexicon.get(foil.original) != lexicon.get(foiled):
                raise ConfigurationError(
                    f"dataset sentence {i} has foil original {foil.original!r}"
                    f", whose lexicon entry is not that of {foiled!r}")

    def save(self, path) -> None:
        jsonio.write_json(path, self.to_json())

    @classmethod
    def load(cls, path) -> "Dataset":
        return cls.from_json(jsonio.read_json(path))


def _check_string(value, record: str, *args) -> None:
    """Reject a non-string, naming the record as in _check_attributes."""
    if not isinstance(value, str):
        raise ConfigurationError(
            f"{record.format(*args)} {value!r}, which is not a string")


def _check_attributes(attrs, tokens, record: str, *args) -> None:
    """Every attribute category must hold one of the taxonomy's tokens. The
    record is named as record.format(*args), formatted on failure only."""
    for cat, allowed in tokens.items():
        if cat not in attrs:
            raise ConfigurationError(
                f"{record.format(*args)} has no {cat!r} attribute")
        if attrs[cat] not in allowed:
            raise ConfigurationError(
                f"{record.format(*args)} has {cat} {attrs[cat]!r}, which is "
                f"not a taxonomy {cat} token")


def build_taxonomy(config: WorldConfig, seed: int) -> Taxonomy:
    """Instantiate category token lists and per-part grounder scales."""
    categories = {}
    for cat, count in config.category_counts().items():
        pool = _TOKEN_POOLS[cat]
        if count < 2:
            raise ConfigurationError(f"need at least 2 {cat} tokens, got {count}")
        if count > len(pool):
            raise ConfigurationError(
                f"at most {len(pool)} {cat} tokens supported, got {count}")
        categories[cat] = pool[:count]
    rng = np.random.default_rng([seed, 0])
    lo, hi = config.kappa_range
    if not (0.0 < lo <= hi):
        raise ConfigurationError(f"bad kappa range {config.kappa_range}")
    kappa = {part: float(rng.uniform(lo, hi)) for part in PARTS}
    return Taxonomy(parts=PARTS, categories=categories, kappa=kappa,
                    aliases=dict(NOUN_ALIASES))


def sample_class_profiles(taxonomy: Taxonomy, num_classes: int, seed: int,
                          noise_rate: float = 0.15, min_distance: int = 2,
                          max_retries: int = 1000) -> list[ClassProfile]:
    """Draw class profiles with pairwise assignment distance >= min_distance."""
    rng = np.random.default_rng([seed, 1])
    profiles: list[ClassProfile] = []
    for class_id in range(num_classes):
        for _ in range(max_retries):
            attributes = {
                part: {cat: pick(taxonomy.categories[cat], rng)
                       for cat in ATTRIBUTE_CATEGORIES}
                for part in taxonomy.parts
            }
            candidate = ClassProfile(class_id, f"species {class_id:02d}",
                                     attributes, noise_rate)
            if all(candidate.distance(p) >= min_distance for p in profiles):
                profiles.append(candidate)
                break
        else:
            raise GenerationError(
                f"could not place class {class_id} at distance "
                f">= {min_distance} after {max_retries} tries")
    return profiles


def _jittered_box(part: str, rng: np.random.Generator):
    cx, cy, w, h = _PART_LAYOUT[part]
    cx += rng.normal(0.0, _CENTER_JITTER)
    cy += rng.normal(0.0, _CENTER_JITTER)
    w = float(np.clip(w * math.exp(rng.normal(0.0, _SIZE_JITTER)),
                      _MIN_BOX_SIDE, 0.9))
    h = float(np.clip(h * math.exp(rng.normal(0.0, _SIZE_JITTER)),
                      _MIN_BOX_SIDE, 0.9))
    x = float(np.clip(cx - w / 2.0, 0.0, 1.0 - w))
    y = float(np.clip(cy - h / 2.0, 0.0, 1.0 - h))
    return (x, y, w, h)


def render_scene(profile: ClassProfile, taxonomy: Taxonomy, noise: float,
                 seed, scene_id: int = 0, split: str = "train") -> Scene:
    """Render one scene from a profile.

    Each region's attribute is independently resampled (uniformly within its
    category, possibly landing on the same token) with probability noise.
    Keypoints land in the central half of their box, so they always lie
    strictly inside it.
    """
    rng = np.random.default_rng(seed)
    regions = []
    keypoints = {}
    for part in taxonomy.parts:
        box = _jittered_box(part, rng)
        attrs = {}
        for cat in ATTRIBUTE_CATEGORIES:
            token = profile.attributes[part][cat]
            if rng.random() < noise:
                token = pick(taxonomy.categories[cat], rng)
            attrs[cat] = token
        regions.append(Region(part, box, attrs))
        x, y, w, h = box
        kx = x + w / 2.0 + rng.uniform(-w / 4.0, w / 4.0)
        ky = y + h / 2.0 + rng.uniform(-h / 4.0, h / 4.0)
        keypoints[part] = (float(kx), float(ky))
    # Region order is a per-scene permutation: detectors emit proposals in
    # arbitrary order, and grounding tie-breaks must not be able to rely on a
    # fixed layout.
    order = rng.permutation(len(regions))
    regions = [regions[i] for i in order]
    return Scene(scene_id, profile.class_id, regions, keypoints, split)


# Sentence frames. Each is (frame_id, uses_bird, part_slots) where uses_bird
# means the sentence opens with "this is a <color> bird".
_FRAMES = (
    (0, True, 1),   # this is a C bird with a A P
    (1, True, 2),   # ... and a A P
    (2, True, 3),   # ... and a A P and a A P
    (3, False, 2),  # this bird has a A P and a A P
    (4, False, 2),  # the P is A and the P is A
    (5, False, 3),  # this bird has a A P and a A P and a A P
)

_CATEGORY_WEIGHTS = {"color": 0.6, "size": 0.2, "pattern": 0.2}


def compose_frame(frame_id: int, bird_color: str | None,
                  part_picks: list[tuple[str, str]]
                  ) -> tuple[list[str], list[tuple[int, int]]]:
    """Assemble the token list for a frame from its attribute picks.

    Also returns the (adjective, noun) positions of the attribute phrases
    the frame placed, in sentence order: the phrases the chunker finds in
    the tokens whenever every attribute is an adjective of the lexicon.
    """
    if frame_id in (0, 1, 2):
        tokens = ["this", "is", "a", bird_color, "bird"]
        slots = [(3, 4)]
        glue = "with"
        for attr, part in part_picks:
            slots.append((len(tokens) + 2, len(tokens) + 3))
            tokens += [glue, "a", attr, part]
            glue = "and"
        return tokens, slots
    if frame_id in (3, 5):
        tokens = ["this", "bird", "has"]
        slots = []
        for attr, part in part_picks:
            if slots:
                tokens.append("and")
            slots.append((len(tokens) + 1, len(tokens) + 2))
            tokens += ["a", attr, part]
        return tokens, slots
    if frame_id == 4:
        tokens = []
        slots = []
        for attr, part in part_picks:
            if tokens:
                tokens.append("and")
            slots.append((len(tokens) + 3, len(tokens) + 1))
            tokens += ["the", part, "is", attr]
        return tokens, slots
    raise ValueError(f"unknown frame {frame_id}")


def pick(seq, rng):
    """What rng.choice(seq) picks, with the stream left where choice leaves
    it: choice's one bounded draw, made as the same rng.integers call."""
    return seq[int(rng.integers(len(seq)))]


def pick_sorted(pool, rng, count) -> list:
    """What rng.choice(len(pool), count, replace=False) picks, in pool
    order, with the stream left where choice leaves it: choice's Floyd
    sampling and its shuffle (whose order sorting drops, but whose draws
    advance the stream) replayed as the same bounded rng.integers draws."""
    n = len(pool)
    picked = []
    for j in range(n - count, n):
        t = int(rng.integers(j + 1))
        picked.append(j if t in picked else t)
    for i in range(count - 1, 0, -1):
        rng.integers(i + 1)
    picked.sort()
    return [pool[i] for i in picked]


def _choice_cdf(weights) -> list[float]:
    """The CDF Generator.choice(p=weights / sum) draws from, built the way
    choice builds it, so that one rng.random() bisected into it (as
    searchsorted side="right") replays choice's pick and leaves the stream
    in the same state."""
    p = np.asarray(weights, dtype=float)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


_CATEGORIES = tuple(_CATEGORY_WEIGHTS)
_CATEGORY_CDF = _choice_cdf([_CATEGORY_WEIGHTS[c] for c in _CATEGORIES])


def _pick_category(rng) -> str:
    return _CATEGORIES[bisect_right(_CATEGORY_CDF, rng.random())]


def draw_sentence(rng, taxonomy: Taxonomy, attribute):
    """compose_frame's tokens and slots for a drawn frame, its distinct
    parts in taxonomy order and a category per part; attribute(part,
    category) gives each mentioned token (the bird's colour as ("body",
    "color")) right after its category is drawn."""
    frame_id, uses_bird, n_parts = pick(_FRAMES, rng)
    bird_color = attribute("body", "color") if uses_bird else None
    picks = []
    for part in pick_sorted(taxonomy.frame_parts, rng, n_parts):
        category = _pick_category(rng)
        picks.append((attribute(part, category), part))
    return compose_frame(frame_id, bird_color, picks)


def ground_truth_sentence(scene: Scene, taxonomy: Taxonomy, seed) -> Sentence:
    """Sample a true sentence: every mentioned attribute holds in the scene."""
    tokens, _ = draw_sentence(
        np.random.default_rng(seed), taxonomy,
        lambda part, category: scene.region_for(part).attrs[category])
    return Sentence(scene.scene_id, tokens)


def make_foil_sentence(sentence: Sentence, taxonomy: Taxonomy, seed) -> Sentence:
    """Replace one content token with a same-category alternative.

    Attribute tokens are preferred as foil targets: flipping an adjective of
    a true sentence is guaranteed to contradict the scene, whereas moving a
    noun to another part may accidentally stay true. Nouns are only foiled
    when the sentence has no attribute tokens at all.
    """
    rng = np.random.default_rng(seed)
    attr_positions = []
    noun_positions = []
    for i, token in enumerate(sentence.tokens):
        cat = taxonomy.category_of(token)
        if cat in ATTRIBUTE_CATEGORIES:
            attr_positions.append(i)
        elif cat == "part":
            noun_positions.append(i)
    positions = attr_positions or noun_positions
    if not positions:
        raise ValueError("sentence has no content tokens to foil")
    index = pick(positions, rng)
    original = sentence.tokens[index]
    pool = taxonomy.flip_pool(original)
    if not pool:
        raise ValueError(f"no same-category alternative for {original!r}")
    replacement = pick(pool, rng)
    tokens, _ = textproc.apply_edits(sentence.tokens, (),
                                     [(index, replacement)])
    return Sentence(sentence.scene_id, list(tokens), FoilInfo(index, original))


def _split_counts(n: int, fractions) -> list[int]:
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"split fractions {fractions} do not sum to 1")
    raw = [n * f for f in fractions]
    counts = [math.floor(r) for r in raw]
    leftover = n - sum(counts)
    order = sorted(range(len(raw)),
                   key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def _check_config(config: WorldConfig) -> None:
    for name in ("num_classes", "scenes_per_class", "sentences_per_scene"):
        value = getattr(config, name)
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
    if config.foils_per_scene < 0:
        raise ConfigurationError(
            f"foils_per_scene must be >= 0, got {config.foils_per_scene}")
    if not 0.0 <= config.noise <= 1.0:
        raise ConfigurationError(f"noise must be in [0, 1], got {config.noise}")


def generate_dataset(config: WorldConfig, seed: int) -> Dataset:
    """Generate the full dataset: world, scenes, sentences, and foils."""
    _check_config(config)
    grounder = GrounderConfig(sigma=config.sigma,
                              feature_noise=config.feature_noise, seed=seed)
    taxonomy = build_taxonomy(config, seed)
    profiles = sample_class_profiles(
        taxonomy, config.num_classes, seed, noise_rate=config.noise,
        min_distance=config.min_profile_distance)
    per_class = _split_counts(config.scenes_per_class, config.splits)

    scenes = []
    sentences = []
    for class_id in range(config.num_classes):
        profile = profiles[class_id]
        split_labels = [label
                        for label, count in zip(SPLITS, per_class)
                        for _ in range(count)]
        for j in range(config.scenes_per_class):
            scene_id = class_id * config.scenes_per_class + j
            scene = render_scene(profile, taxonomy, config.noise,
                                 [seed, 2, scene_id], scene_id,
                                 split_labels[j])
            scenes.append(scene)
            gt_sentences = []
            seen = set()
            for k in range(config.sentences_per_scene):
                rng = np.random.default_rng([seed, 3, scene_id, k])
                for _ in range(50):
                    candidate = ground_truth_sentence(scene, taxonomy, rng)
                    key = tuple(candidate.tokens)
                    if key not in seen:
                        seen.add(key)
                        gt_sentences.append(candidate)
                        break
                else:
                    raise GenerationError(
                        f"scene {scene_id}: could not draw "
                        f"{config.sentences_per_scene} distinct sentences")
            sentences.extend(gt_sentences)
            for k in range(config.foils_per_scene):
                sentences.append(make_foil_sentence(
                    gt_sentences[k % len(gt_sentences)], taxonomy,
                    [seed, 4, scene_id, k]))

    return Dataset(taxonomy, profiles, scenes, sentences, grounder, seed)
