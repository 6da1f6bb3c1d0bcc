"""Chunker unit tests, including a truth oracle over generated sentences,
an exhaustive oracle against the tagger-based chunker it replaced, and the
edit helper against chunking the edited sentence."""

from itertools import product

import pytest

from phrasecritic import chunk_sentence
from phrasecritic.foil import build_foil_examples
from phrasecritic.negatives import _enumerate_space
from phrasecritic.textproc import (ADJ, CONJ, DET, NOUN, OTHER, VERB,
                                   AttributePhrase, apply_edits,
                                   phrase_to_text)


def chunks(text, taxonomy):
    return chunk_sentence(text.split(), taxonomy)


def test_chunker_tags_from_lexicon(taxonomy):
    tokens = ["this", "is", "a", "red", "beak", "and"]
    assert [taxonomy.lexicon[t] for t in tokens] == [
        (DET, None), (VERB, None), (DET, None), (ADJ, "color"),
        (NOUN, "part"), (CONJ, None)]
    (phrase,) = chunk_sentence(tokens, taxonomy)
    assert (phrase.adjectives, phrase.noun, phrase.span) == \
        (("red",), "beak", (3, 5))


def test_chunker_unknown_token_is_other(taxonomy):
    assert "xylophone" not in taxonomy.lexicon
    # OTHER breaks both patterns, wherever it stands
    for tokens in (["red", "xylophone", "beak"], ["beak", "xylophone", "red"],
                   ["beak", "is", "xylophone"], ["xylophone"]):
        assert chunk_sentence(tokens, taxonomy) == []
    (phrase,) = chunk_sentence(["xylophone", "red", "beak"], taxonomy)
    assert phrase.span == (1, 3)


def test_adjective_noun_phrase(taxonomy):
    (phrase,) = chunks("red beak", taxonomy)
    assert phrase.adjectives == ("red",)
    assert phrase.noun == "beak"
    assert phrase.span == (0, 2)


def test_conjoined_adjectives_collapse_into_one_phrase(taxonomy):
    (phrase,) = chunks("red and small beak", taxonomy)
    assert phrase.adjectives == ("red", "small")
    assert phrase.adj_positions == (0, 2)
    assert phrase.noun_position == 3


def test_stacked_adjectives_without_conjunction(taxonomy):
    (phrase,) = chunks("small red beak", taxonomy)
    assert phrase.adjectives == ("small", "red")
    assert phrase.adj_positions == (0, 1)


def test_noun_verb_adjective_normalises_to_same_shape(taxonomy):
    (phrase,) = chunks("beak is red", taxonomy)
    assert phrase.adjectives == ("red",)
    assert phrase.noun == "beak"
    assert phrase.adj_positions == (2,)
    assert phrase.noun_position == 0


def test_scan_is_left_to_right_without_overlap(taxonomy):
    phrases = chunks("this is a red bird with a small beak", taxonomy)
    assert [p.tokens() for p in phrases] == \
        [("red", "bird"), ("small", "beak")]
    spans = [p.span for p in phrases]
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_sentence_with_no_lexicon_words_yields_nothing(taxonomy):
    assert chunks("the weather is nice today", taxonomy) == []


def test_bare_adjective_without_noun_is_not_a_phrase(taxonomy):
    assert chunks("red and small", taxonomy) == []


def test_positions_index_into_the_sentence(tiny_dataset):
    """adj_positions and noun_position must point at the surface tokens."""
    taxonomy = tiny_dataset.taxonomy
    checked = 0
    for sentence in tiny_dataset.sentences:
        for phrase in chunk_sentence(sentence.tokens, taxonomy):
            assert sentence.tokens[phrase.noun_position] == phrase.noun
            for pos, adj in zip(phrase.adj_positions, phrase.adjectives):
                assert sentence.tokens[pos] == adj
            lo, hi = phrase.span
            assert {phrase.noun_position, *phrase.adj_positions} <= \
                set(range(lo, hi))
            checked += 1
    assert checked > 100


def test_every_generated_sentence_chunks(tiny_dataset):
    for sentence in tiny_dataset.sentences:
        assert chunk_sentence(sentence.tokens, tiny_dataset.taxonomy)


def test_phrase_text_round_trips_through_the_chunker(taxonomy):
    (original,) = chunks("red and small beak", taxonomy)
    (rechunked,) = chunks(phrase_to_text(original), taxonomy)
    assert rechunked.adjectives == original.adjectives
    assert rechunked.noun == original.noun


def test_chunking_empty_sentence(taxonomy):
    assert chunk_sentence([], taxonomy) == []


@pytest.mark.parametrize("text,expected", [
    ("red beak and small wing", [("red", "beak"), ("small", "wing")]),
    ("beak is red and wing is small",
     [("red", "beak"), ("small", "wing")]),
    ("this bird has a red beak", [("red", "beak")]),
])
def test_phrase_inventory(taxonomy, text, expected):
    got = [p.tokens() for p in chunks(text, taxonomy)]
    assert got == expected


# -- the chunker before it read the lexicon directly, frozen as an oracle ----

def frozen_chunk_sentence(tokens, taxonomy):
    """The tagger-based chunker: tag every token, then try pattern B, then
    pattern A at each position."""
    tagged = [(tok, *taxonomy.lexicon.get(tok, (OTHER, None)))
              for tok in tokens]

    def pattern_a(i):
        if i + 2 >= len(tagged):
            return None
        noun, verb, adj = tagged[i], tagged[i + 1], tagged[i + 2]
        if noun[1] == NOUN and verb[1] == VERB and adj[1] == ADJ:
            return AttributePhrase((adj[0],), noun[0], (i, i + 3), (i + 2,), i)
        return None

    def pattern_b(i):
        if tagged[i][1] != ADJ:
            return None
        adjs, positions, j = [tagged[i]], [i], i + 1
        while j < len(tagged):
            if tagged[j][1] == ADJ:
                adjs.append(tagged[j])
                positions.append(j)
                j += 1
            elif (tagged[j][1] == CONJ and j + 1 < len(tagged)
                  and tagged[j + 1][1] == ADJ):
                adjs.append(tagged[j + 1])
                positions.append(j + 1)
                j += 2
            else:
                break
        if j < len(tagged) and tagged[j][1] == NOUN:
            return AttributePhrase(tuple(a[0] for a in adjs), tagged[j][0],
                                   (i, j + 1), tuple(positions), j)
        return None

    phrases, i = [], 0
    while i < len(tagged):
        match = pattern_b(i) or pattern_a(i)
        if match is not None:
            phrases.append(match)
            i = match.span[1]
        else:
            i += 1
    return phrases


def test_chunker_equals_frozen_chunker_on_every_tag_sequence(taxonomy):
    """Every sequence of the six tags up to length 7. Adjectives alternate
    between two categories by position."""
    color, size = taxonomy.categories["color"][0], \
        taxonomy.categories["size"][0]
    words = {NOUN: ("beak",), ADJ: (color, size), VERB: ("is",),
             CONJ: ("and",), DET: ("a",), OTHER: ("xylophone",)}
    tags = (NOUN, ADJ, VERB, CONJ, DET, OTHER)
    checked = phrases = 0
    for length in range(8):
        for seq in product(tags, repeat=length):
            tokens = [words[t][i % len(words[t])] for i, t in enumerate(seq)]
            got = chunk_sentence(tokens, taxonomy)
            assert got == frozen_chunk_sentence(tokens, taxonomy), tokens
            checked += 1
            phrases += len(got)
    assert checked == sum(6 ** n for n in range(8))
    assert phrases > 50_000


# -- the edit helper ---------------------------------------------------------

def test_apply_edits_equals_chunking_the_edited_sentence(tiny_dataset):
    """Every edit set of every sentence's flip space, every foil
    substitution target and every foil's original."""
    taxonomy = tiny_dataset.taxonomy
    checked = 0

    def check(tokens, phrases, edits):
        nonlocal checked
        edited, edited_phrases = apply_edits(tokens, phrases, edits)
        assert list(edited) == [dict(edits).get(i, tok)
                                for i, tok in enumerate(tokens)]
        assert edited_phrases == chunk_sentence(edited, taxonomy)
        for old, new in zip(phrases, edited_phrases):
            touched = any(old.span[0] <= i < old.span[1] for i, _ in edits)
            assert touched or new is old
        checked += 1

    for sentence in tiny_dataset.sentences:
        phrases = chunk_sentence(sentence.tokens, taxonomy)
        for edits in _enumerate_space(phrases, taxonomy, len(phrases)):
            check(sentence.tokens, phrases, list(edits))
        foil = sentence.foil
        if foil is not None:
            for target in taxonomy.flip_pool(sentence.tokens[foil.index]):
                check(sentence.tokens, phrases, [(foil.index, target)])
            check(sentence.tokens, phrases, [(foil.index, foil.original)])
    assert checked > 10_000
    for split in ("train", "val", "test"):
        for ex in build_foil_examples(tiny_dataset, split):
            assert ex.phrases == chunk_sentence(ex.tokens, taxonomy)


def test_apply_edits_leaves_its_inputs_alone(taxonomy):
    tokens = ["red", "beak", "and", "small", "wing"]
    phrases = chunk_sentence(tokens, taxonomy)
    alt = taxonomy.flip_pool("red")[0]
    edited, edited_phrases = apply_edits(tokens, phrases, [(0, alt)])
    assert tokens[0] == "red" and phrases[0].adjectives == ("red",)
    assert edited_phrases[0].adjectives == (alt,)
    assert edited_phrases[1] is phrases[1]
    assert apply_edits(tokens, (), [(0, alt)]) == (edited, [])
