"""Lexicon-based POS tagging and attribute-phrase chunking.

The chunker is rule based. Two patterns are recognised, longest match first,
scanning left to right without overlap:

  pattern A:  NOUN VERB ADJ                  "beak is black"  -> (black; beak)
  pattern B:  ADJ (CONJ? ADJ)* NOUN          "red and orange head"
                                             -> (red, orange; head)

Both normalise to an adjective list plus a head noun, so downstream code
never sees the surface order. apply_edits gives the phrases of an edited
sentence from the phrases it was edited from, without chunking again.
"""

from __future__ import annotations

from dataclasses import dataclass

NOUN = "NOUN"
ADJ = "ADJ"
VERB = "VERB"
CONJ = "CONJ"
DET = "DET"
OTHER = "OTHER"


@dataclass(frozen=True)
class AttributePhrase:
    """A normalised attribute phrase: adjectives plus one head noun.

    span is the half-open token range the phrase was chunked from.
    adj_positions/noun_position record the sentence indices of the content
    tokens so the phrase can be edited in place.
    """

    adjectives: tuple[str, ...]
    noun: str
    span: tuple[int, int]
    adj_positions: tuple[int, ...]
    noun_position: int

    def tokens(self) -> tuple[str, ...]:
        return self.adjectives + (self.noun,)


def chunk_sentence(tokens, taxonomy) -> list[AttributePhrase]:
    """Extract attribute phrases in sentence order.

    Each token is tagged with the part of speech of its lexicon entry; a
    token outside the lexicon is OTHER, so foreign words degrade to
    unchunkable filler. At each position the applicable pattern is tried
    (B starts on an adjective, A on a noun); matches are greedy, and the
    scan resumes past the end of a match so phrases never overlap. Only the
    tags decide the spans, which is what apply_edits relies on.
    """
    tags = [taxonomy.lexicon.get(tok, (OTHER,))[0] for tok in tokens]
    n = len(tags)
    phrases = []
    i = 0
    while i < n:
        pos = tags[i]
        if pos == ADJ:
            # pattern B: ADJ (CONJ? ADJ)* NOUN, greedy over the adjectives
            adjs = [i]
            j = i + 1
            while j < n:
                if tags[j] == ADJ:
                    adjs.append(j)
                    j += 1
                elif tags[j] == CONJ and j + 1 < n and tags[j + 1] == ADJ:
                    adjs.append(j + 1)
                    j += 2
                else:
                    break
            if j < n and tags[j] == NOUN:
                phrases.append(AttributePhrase(
                    tuple(tokens[k] for k in adjs), tokens[j], (i, j + 1),
                    tuple(adjs), j))
                i = j + 1
                continue
        elif pos == NOUN and i + 2 < n and tags[i + 1] == VERB \
                and tags[i + 2] == ADJ:
            # pattern A: NOUN VERB ADJ
            phrases.append(AttributePhrase(
                (tokens[i + 2],), tokens[i], (i, i + 3), (i + 2,), i))
            i += 3
            continue
        i += 1
    return phrases


def apply_edits(tokens, phrases, edits):
    """A sentence's tokens and phrases after (position, replacement) edits.

    phrases is the chunking of tokens. Spans and positions stay put and the
    replaced adjectives and nouns are swapped in; a phrase no edit touches
    is returned as is. This equals chunk_sentence of the edited tokens
    whenever each replacement has the lexicon entry of the token it
    replaces, because the chunker reads only the tags. Returns the edited
    tokens as a tuple and the edited phrases as a list.
    """
    out = list(tokens)
    for pos, replacement in edits:
        out[pos] = replacement
    edited = []
    for p in phrases:
        lo, hi = p.span
        if any(lo <= pos < hi for pos, _ in edits):
            p = AttributePhrase(tuple(out[k] for k in p.adj_positions),
                                out[p.noun_position], p.span,
                                p.adj_positions, p.noun_position)
        edited.append(p)
    return tuple(out), edited


def phrase_to_text(phrase: AttributePhrase) -> str:
    """Render a phrase as plain text: adjectives then the noun.

    Conjunctions are not reconstructed, so chunking the result returns a
    phrase with the same adjectives and noun.
    """
    return " ".join(phrase.tokens())
