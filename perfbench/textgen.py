"""Seeded input generator for the text-eval workload.

Writes, for each chunk of the corpus, the gold dataset TSV, the generation
targets the program must produce for it (byte for byte), a predictions file
that mimics a decoder of about paper-level quality, and the evaluation counts
those predictions must score to. Nothing here imports ``acosgen``: the
category maps, target templates and parse outcomes are modelled from their
documented rules, so a change to the program cannot move the inputs or the
reference it is checked against.

Corpus shape follows the published ACOS statistics: the restaurant domain has
1.60 quads per sentence and a 66/15/10/10 EAEO/IAEO/EAIO/IAIO mix; the laptop
domain has 1.42 quads per sentence (the same type mix is used there). The
vocabulary holds no word the target grammar reserves ("is", "it", "null",
"because", ...), so every gold target round-trips and every corruption below
has one known outcome.

The decoder's error rates are set per domain so that the gen-nat
predictions score about the exact-match F1 the paper reports for GEN-SCL-NAT
(``PAPER_F1``); the mix of error kinds within those rates is not from a
published source.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

REST_LABELS = (
    "AMBIENCE#GENERAL",
    "DRINKS#PRICES",
    "DRINKS#QUALITY",
    "DRINKS#STYLE_OPTIONS",
    "FOOD#GENERAL",
    "FOOD#PRICES",
    "FOOD#QUALITY",
    "FOOD#STYLE_OPTIONS",
    "LOCATION#GENERAL",
    "RESTAURANT#GENERAL",
    "RESTAURANT#MISCELLANEOUS",
    "RESTAURANT#PRICES",
    "SERVICE#GENERAL",
)
LAPTOP_ENTITIES = (
    "LAPTOP", "DISPLAY", "KEYBOARD", "MOUSE", "MOTHERBOARD", "CPU", "FANS_COOLING",
    "PORTS", "MEMORY", "POWER_SUPPLY", "OPTICAL_DRIVES", "BATTERY", "GRAPHICS",
    "HARD_DISC", "MULTIMEDIA_DEVICES", "HARDWARE", "SOFTWARE", "OS", "WARRANTY",
    "SHIPPING", "SUPPORT", "COMPANY",
)
LAPTOP_ATTRIBUTES = (
    "GENERAL", "PRICE", "QUALITY", "DESIGN_FEATURES", "OPERATION_PERFORMANCE",
    "USABILITY", "PORTABILITY", "CONNECTIVITY", "MISCELLANEOUS",
)
LAPTOP_LABELS = tuple(f"{e}#{a}" for e in LAPTOP_ENTITIES for a in LAPTOP_ATTRIBUTES)

_WORD_OVERRIDES = {"OS": "operating system", "HARD_DISC": "hard drive", "DESIGN_FEATURES": "features"}


def describe(label: str, domain: str) -> str:
    """Natural category description by the rule the shipped maps follow."""
    entity, attribute = label.split("#")
    words = [_WORD_OVERRIDES.get(entity, entity.lower().replace("_", " "))]
    if attribute == "GENERAL":
        if domain == "laptop":
            words.append("overall")
    else:
        words.append(_WORD_OVERRIDES.get(attribute, attribute.lower().replace("_", " ")))
    return "the " + " ".join(words)


# Exact-match F1 of GEN-SCL-NAT on Rest-ACOS and Laptop-ACOS, as reported in
# the paper's main results table (Peper & Wang 2022, arXiv 2211.07743).
PAPER_F1 = {"rest": 0.6262, "laptop": 0.4516}
# Per domain: share of gold quads per decoder outcome, and share of examples
# with one hallucinated quad. The rates are tuned so that gen-nat predictions
# score about PAPER_F1; the split between the error kinds is a guess.
DOMAINS = {
    "rest": {
        "labels": REST_LABELS,
        "quads_per_sentence": 1.60,
        "fates": (("exact", 0.55), ("wrong_sentiment", 0.07), ("wrong_term", 0.08), ("trailing", 0.05),
                  ("malformed", 0.06), ("missing", 0.19)),
        "hallucination_p": 0.20,
    },
    "laptop": {
        "labels": LAPTOP_LABELS,
        "quads_per_sentence": 1.42,
        "fates": (("exact", 0.37), ("wrong_sentiment", 0.08), ("wrong_term", 0.14), ("trailing", 0.05),
                  ("malformed", 0.06), ("missing", 0.30)),
        "hallucination_p": 0.30,
    },
}
# Chunks go round-robin over these (category map, target style) pairs.
COMBOS = (("rest", "gen-nat"), ("laptop", "gen-nat"), ("rest", "paraphrase"), ("laptop", "paraphrase"))
TYPE_WEIGHTS = {"EAEO": 66, "IAEO": 15, "EAIO": 10, "IAIO": 10}

SENTIMENT_WORDS = ("negative", "neutral", "positive")  # index = dataset code
PARAPHRASE_WORDS = ("bad", "okay", "great")
BLANK_LINE_P = 0.03  # share of examples whose prediction line is blank
TRAILING = ("and so on", "as well", "in general", "etc")
GARBLED_HEADS = ("the vibe", "the foodie scene", "the laptopish", "LAPTOP#SPEED", "FOOD#TASTE")
RESERVED_WORDS = frozenset(
    ("it", "is", "null", "the", "because", "since", "was", "and", "as", "in", "etc",
     "great", "okay", "bad", "good", "positive", "neutral", "negative")
)

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
           "br", "ch", "cl", "dr", "fl", "gr", "pl", "sh", "sl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "x")


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.choice((2, 2, 3))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(syllables))
        if word not in RESERVED_WORDS:
            words.add(word)
    return sorted(words)


@dataclass(frozen=True)
class GoldQuad:
    aspect: tuple[int, int] | None  # token span, None when implicit
    category: str
    opinion: tuple[int, int] | None
    sentiment: int


def _text(tokens: list[str], span: tuple[int, int] | None) -> str | None:
    return None if span is None else " ".join(tokens[span[0] : span[1]])


def _key(aspect: str | None, category: str, opinion: str | None, sentiment: int) -> tuple:
    """The identity exact-match scoring compares on (None = implicit)."""
    return (aspect, category, opinion, sentiment)


def _scan_key(q: GoldQuad) -> tuple:
    """Targets list quads by the last token of their explicit spans, implicit-only quads last."""
    a = q.aspect or (-1, -1)
    o = q.opinion or (-1, -1)
    ends = [e for e in (a[1], o[1]) if e >= 0]
    if ends:
        return (0, max(ends), a[0], o[0], a[1], o[1], q.category, q.sentiment)
    return (1, 0, -1, -1, -1, -1, q.category, q.sentiment)


def render(style: str, domain: str, category: str, aspect: str | None, opinion: str | None,
           sentiment: int) -> str:
    """One quad in the target grammar of ``style``."""
    if style == "gen-nat":
        head = describe(category, domain)
        aspect_part = "it" if aspect is None else f"the {aspect}"
        return f"{head} | {aspect_part} is {opinion or 'null'} | {SENTIMENT_WORDS[sentiment]}"
    return f"{category} is {PARAPHRASE_WORDS[sentiment]} because {aspect or 'it'} is {opinion or 'null'}"


class _Chunk:
    """Generates one chunk's examples, targets and predictions."""

    def __init__(self, rng: random.Random, domain: str, style: str, vocab: dict[str, list[str]]):
        self.rng = rng
        self.domain = domain
        self.style = style
        self.vocab = vocab
        labels = DOMAINS[domain]["labels"]
        ranked = list(labels)
        rng.shuffle(ranked)
        self.labels = ranked
        # Zipf-like category frequencies, as in the published splits.
        self.label_weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
        self.descriptions = sorted((describe(label, domain) for label in labels), key=len, reverse=True)
        self.by_description = {describe(label, domain): label for label in labels}
        # gen-nat segments whose category head is no exact description, so the
        # parser scans the descriptions for a prefix of it
        self.prefix_scans = 0

    # -- gold -------------------------------------------------------------

    def _term(self, pool: str, lengths: tuple[int, ...], weights: tuple[float, ...]) -> list[str]:
        n = self.rng.choices(lengths, weights)[0]
        return [self.rng.choice(self.vocab[pool]) for _ in range(n)]

    def _num_quads(self) -> int:
        p = (DOMAINS[self.domain]["quads_per_sentence"] - 1.0) / 3.0
        return 1 + sum(self.rng.random() < p for _ in range(3))

    def example(self) -> tuple[list[str], list[GoldQuad]]:
        """Tokens and gold quads with distinct spans and distinct match keys."""
        rng = self.rng
        n = self._num_quads()
        plans = []  # (aspect phrase index or None, category, opinion phrase index or None, sentiment)
        phrases: list[list[str]] = []
        for _ in range(n):
            qtype = rng.choices(list(TYPE_WEIGHTS), list(TYPE_WEIGHTS.values()))[0]
            aspect = opinion = None
            if qtype[0] == "E":
                reuse = [p[0] for p in plans if p[0] is not None]
                if reuse and rng.random() < 0.25:
                    aspect = rng.choice(reuse)
                else:
                    phrases.append(self._term("aspect", (1, 2, 3), (0.6, 0.3, 0.1)))
                    aspect = len(phrases) - 1
            if qtype[2] == "E":
                phrases.append(self._term("opinion", (1, 2), (0.75, 0.25)))
                opinion = len(phrases) - 1
            category = rng.choices(self.labels, self.label_weights)[0]
            plans.append((aspect, category, opinion, rng.choice((0, 1, 2, 2, 2))))

        order = list(range(len(phrases)))
        rng.shuffle(order)
        tokens: list[str] = []
        spans: dict[int, tuple[int, int]] = {}
        for idx in order:
            tokens.extend(rng.choice(self.vocab["filler"]) for _ in range(rng.randint(0, 3)))
            spans[idx] = (len(tokens), len(tokens) + len(phrases[idx]))
            tokens.extend(phrases[idx])
        tokens.extend(rng.choice(self.vocab["filler"]) for _ in range(rng.randint(1, 4)))

        quads: list[GoldQuad] = []
        keys: set[tuple] = set()
        for aspect, category, opinion, sentiment in plans:
            q = GoldQuad(spans.get(aspect), category, spans.get(opinion), sentiment)
            key = self.gold_key(tokens, q)
            if key not in keys:  # two implicit-only quads can coincide; keep one
                keys.add(key)
                quads.append(q)
        return tokens, quads

    @staticmethod
    def gold_key(tokens: list[str], q: GoldQuad) -> tuple:
        return _key(_text(tokens, q.aspect), q.category, _text(tokens, q.opinion), q.sentiment)

    def target(self, tokens: list[str], quads: list[GoldQuad]) -> str:
        return " [SSEP] ".join(
            render(self.style, self.domain, q.category, _text(tokens, q.aspect), _text(tokens, q.opinion),
                   q.sentiment)
            for q in sorted(quads, key=_scan_key)
        )

    # -- predictions ------------------------------------------------------

    def _category_from_head(self, head: str) -> str | None:
        """How the parser reads a category field (None: segment dropped)."""
        head = head.strip()
        if self.style == "paraphrase":
            return head if head in DOMAINS[self.domain]["labels"] else None
        if head in self.by_description:
            return self.by_description[head]
        for description in self.descriptions:
            if head.startswith(description):
                return self.by_description[description]
        return None

    def _segment(self, category: str, aspect: str | None, opinion: str | None, sentiment: int,
                 head: str | None = None) -> tuple[str, tuple | None]:
        """A well-formed segment, optionally with a replaced category head."""
        text = render(self.style, self.domain, category, aspect, opinion, sentiment)
        if head is None:
            return text, _key(aspect, category, opinion, sentiment)
        if self.style == "gen-nat":
            text = head + text[text.index(" | "):]
            self.prefix_scans += 1
        else:
            text = head + text[text.index(" is "):]
        parsed = self._category_from_head(head)
        return text, None if parsed is None else _key(aspect, parsed, opinion, sentiment)

    def _malformed(self, category: str, aspect: str | None, opinion: str | None,
                   sentiment: int) -> tuple[str, tuple | None]:
        rng = self.rng
        kind = rng.choice(("fields", "garbled_head", "sentiment_word", "no_is", "empty"))
        if kind == "empty":
            return "", None
        if kind == "garbled_head":
            return self._segment(category, aspect, opinion, sentiment, head=rng.choice(GARBLED_HEADS))
        text = render(self.style, self.domain, category, aspect, opinion, sentiment)
        gen_nat = self.style == "gen-nat"
        if kind == "fields":
            text = text.replace(" | ", " ", 1) if gen_nat else text.replace(" because ", " since ")
        elif kind == "sentiment_word":
            if gen_nat:
                text = text[: -len(SENTIMENT_WORDS[sentiment])] + "goood"
            else:
                text = text.replace(f" is {PARAPHRASE_WORDS[sentiment]} because ", " is good because ", 1)
        else:  # the aspect/opinion link word is garbled
            text = text[::-1].replace(" si ", " saw ", 1)[::-1]
        return text, None

    def predictions(self, tokens: list[str], quads: list[GoldQuad]) -> tuple[str, dict]:
        """One decoder output line and the counts parsing and scoring it must give."""
        rng = self.rng
        gold_keys = {self.gold_key(tokens, q) for q in quads}
        blank = {"attempted": 0, "dropped": 0, "pred_keys": set(), "gold_keys": gold_keys}
        if rng.random() < BLANK_LINE_P:
            return "", blank
        segments: list[tuple[str, tuple | None]] = []
        fates, weights = zip(*DOMAINS[self.domain]["fates"])
        for q in sorted(quads, key=_scan_key):
            aspect, opinion = _text(tokens, q.aspect), _text(tokens, q.opinion)
            fate = rng.choices(fates, weights)[0]
            if fate == "missing":
                continue
            if fate == "exact":
                text, key = self._segment(q.category, aspect, opinion, q.sentiment)
                if self.style == "gen-nat" and rng.random() < 0.1:
                    text = text[: text.rindex("| ") + 2] + text[text.rindex("| ") + 2 :].capitalize()
                segments.append((text, key))
            elif fate == "wrong_sentiment":
                sentiment = rng.choice([s for s in (0, 1, 2) if s != q.sentiment])
                segments.append(self._segment(q.category, aspect, opinion, sentiment))
            elif fate == "wrong_term":
                category = q.category
                if aspect is not None:
                    aspect = " ".join(self._term("aspect", (1, 2), (0.7, 0.3)))
                elif opinion is not None:
                    opinion = " ".join(self._term("opinion", (1,), (1.0,)))
                else:
                    category = rng.choice([c for c in self.labels if c != q.category])
                segments.append(self._segment(category, aspect, opinion, q.sentiment))
            elif fate == "trailing":
                head = (describe(q.category, self.domain) if self.style == "gen-nat" else q.category)
                head += " " + rng.choice(TRAILING)
                segments.append(self._segment(q.category, aspect, opinion, q.sentiment, head=head))
            else:
                segments.append(self._malformed(q.category, aspect, opinion, q.sentiment))
        if rng.random() < DOMAINS[self.domain]["hallucination_p"]:
            aspect = None if rng.random() < 0.3 else " ".join(self._term("aspect", (1, 2), (0.7, 0.3)))
            opinion = None if rng.random() < 0.2 else " ".join(self._term("opinion", (1,), (1.0,)))
            category = rng.choices(self.labels, self.label_weights)[0]
            segments.insert(rng.randint(0, len(segments)),
                            self._segment(category, aspect, opinion, rng.randint(0, 2)))
        line = " [SSEP] ".join(text for text, _ in segments)
        if not line.strip():
            return "", blank
        return line, {
            "attempted": len(segments),
            "dropped": sum(key is None for _, key in segments),
            "pred_keys": {key for _, key in segments if key is not None},
            "gold_keys": gold_keys,
        }


def _check_trailing_tokens() -> None:
    """A trailing phrase must never extend a description into another one."""
    for domain, spec in DOMAINS.items():
        descriptions = [describe(label, domain) for label in spec["labels"]]
        for d in descriptions:
            for tail in TRAILING:
                longer = [e for e in descriptions if e != d and e.startswith(f"{d} {tail}")]
                if longer:
                    raise AssertionError(f"trailing phrase {tail!r} turns {d!r} into {longer}")


def generate(out_dir: Path, seed: int, chunks: int, chunk_size: int) -> list[dict]:
    """Write ``chunks`` chunks of ``chunk_size`` examples; return their expectations.

    Chunk ``c`` uses ``COMBOS[c % 4]``. For chunk ``c`` the files are
    ``chunk-c.tsv`` (gold), ``chunk-c.pred`` (predictions) and
    ``chunk-c.expected`` (the exact ``acosgen linearize --out`` content).
    """
    _check_trailing_tokens()
    rng = random.Random(f"perfbench-text-eval:{seed}")
    words = _vocabulary(rng, 2400)
    rng.shuffle(words)
    vocab = {"aspect": words[:900], "opinion": words[900:1500], "filler": words[1500:]}
    out_dir.mkdir(parents=True, exist_ok=True)
    expectations = []
    for c in range(chunks):
        domain, style = COMBOS[c % len(COMBOS)]
        chunk = _Chunk(rng, domain, style, vocab)
        gold_lines, targets, preds = [], [], []
        counts = {"predicted": 0, "gold": 0, "matched": 0, "dropped_segments": 0,
                  "segments_attempted": 0, "quads_recovered": 0}
        for _ in range(chunk_size):
            tokens, quads = chunk.example()
            fields = [" ".join(tokens)]
            for q in quads:
                a = "%d,%d" % q.aspect if q.aspect else "-1,-1"
                o = "%d,%d" % q.opinion if q.opinion else "-1,-1"
                fields.append(f"{a} {q.category} {q.sentiment} {o}")
            gold_lines.append("\t".join(fields))
            targets.append(chunk.target(tokens, quads))
            line, outcome = chunk.predictions(tokens, quads)
            preds.append(line)
            counts["predicted"] += len(outcome["pred_keys"])
            counts["gold"] += len(outcome["gold_keys"])
            counts["matched"] += len(outcome["pred_keys"] & outcome["gold_keys"])
            counts["dropped_segments"] += outcome["dropped"]
            counts["segments_attempted"] += outcome["attempted"]
            counts["quads_recovered"] += len(outcome["pred_keys"])
        counts["prefix_scans"] = chunk.prefix_scans
        stem = out_dir / f"chunk-{c}"
        Path(f"{stem}.tsv").write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
        Path(f"{stem}.pred").write_text("\n".join(preds) + "\n", encoding="utf-8")
        Path(f"{stem}.expected").write_text("\n".join(targets) + "\n", encoding="utf-8")
        expectations.append({"map": domain, "style": style, "examples": chunk_size, "counts": counts})
    (out_dir / "expected.json").write_text(json.dumps(expectations), encoding="utf-8")
    return expectations
