"""Vocabulary with built-in synonym structure.

The paper's synonym attack (threat model T2) replaces words by synonyms from
counter-fitted word-vector neighbourhoods. Offline, we instead *construct*
the synonym structure: the vocabulary is organised into synonym groups whose
members are used interchangeably by the corpus generator, so a trained
embedding maps them to nearby points — the property the attack (and Figure 1)
relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Vocabulary", "CLS_TOKEN", "PAD_TOKEN", "UNK_TOKEN"]

CLS_TOKEN = "[CLS]"
PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"

_POSITIVE_STEMS = [
    "good", "great", "fine", "superb", "lovely", "bright", "charming",
    "warm", "fresh", "smart", "fun", "rich", "bold", "clever", "crisp",
    "deft", "vivid", "keen", "sweet", "brave",
]
_NEGATIVE_STEMS = [
    "bad", "dull", "weak", "bland", "poor", "stale", "grim", "flat",
    "crude", "messy", "slow", "cheap", "tired", "harsh", "vague",
    "limp", "sour", "drab", "cold", "shallow",
]
_NEUTRAL_STEMS = [
    "movie", "film", "plot", "actor", "scene", "story", "script", "music",
    "pace", "tone", "cast", "style", "theme", "shot", "voice", "image",
    "frame", "sound", "light", "stage", "the", "a", "and", "but", "with",
    "for", "this", "that", "very", "quite", "rather", "mostly", "almost",
    "really", "fairly", "simply", "just", "so", "too", "still",
]


class Vocabulary:
    """Token <-> id mapping with synonym groups.

    Parameters
    ----------
    n_positive_groups, n_negative_groups, n_neutral_words:
        Corpus-scale knobs. Each polar group holds ``group_size`` synonyms
        (e.g. ``good_0 ... good_3``); neutral words have no synonyms.
    group_size:
        Number of interchangeable synonyms per polar group.
    """

    def __init__(self, n_positive_groups=12, n_negative_groups=12,
                 n_neutral_words=30, group_size=4):
        self.group_size = group_size
        self._tokens = [PAD_TOKEN, CLS_TOKEN, UNK_TOKEN]
        self.positive_groups = []
        self.negative_groups = []
        self.neutral_words = []
        self._synonyms = {}

        def stem_name(stems, i):
            base = stems[i % len(stems)]
            return base if i < len(stems) else f"{base}{i // len(stems)}"

        for gi in range(n_positive_groups):
            stem = stem_name(_POSITIVE_STEMS, gi)
            group = [f"{stem}_{j}" for j in range(group_size)]
            self.positive_groups.append(group)
            self._tokens.extend(group)
        for gi in range(n_negative_groups):
            stem = stem_name(_NEGATIVE_STEMS, gi)
            group = [f"{stem}_{j}" for j in range(group_size)]
            self.negative_groups.append(group)
            self._tokens.extend(group)
        for wi in range(n_neutral_words):
            word = stem_name(_NEUTRAL_STEMS, wi)
            self.neutral_words.append(word)
            self._tokens.append(word)

        self._index = {tok: i for i, tok in enumerate(self._tokens)}
        for group in self.positive_groups + self.negative_groups:
            for word in group:
                self._synonyms[word] = [w for w in group if w != word]

    # ------------------------------------------------------------- protocol
    def __len__(self):
        return len(self._tokens)

    def __contains__(self, token):
        return token in self._index

    def id_of(self, token):
        """Token id (UNK id for out-of-vocabulary tokens)."""
        return self._index.get(token, self._index[UNK_TOKEN])

    def token_of(self, token_id):
        """Token string for an id."""
        return self._tokens[token_id]

    def encode(self, tokens, add_cls=True):
        """Token-id list, optionally prefixed with the [CLS] token."""
        ids = [self.id_of(t) for t in tokens]
        if add_cls:
            ids = [self._index[CLS_TOKEN]] + ids
        return ids

    def decode(self, token_ids):
        """Token strings for a sequence of ids."""
        return [self._tokens[i] for i in token_ids]

    # ------------------------------------------------------------- synonyms
    def synonyms(self, token):
        """Other members of ``token``'s synonym group (empty if none)."""
        return list(self._synonyms.get(token, []))

    def synonym_ids(self, token_id):
        """Ids of the synonyms of the token with id ``token_id``."""
        return [self._index[w] for w in self.synonyms(self._tokens[token_id])]

    @property
    def cls_id(self):
        """Id of the [CLS] token."""
        return self._index[CLS_TOKEN]

    def polar_word_ids(self):
        """Ids of all polarity-bearing (synonym-bearing) words."""
        ids = []
        for group in self.positive_groups + self.negative_groups:
            ids.extend(self._index[w] for w in group)
        return np.asarray(ids)
