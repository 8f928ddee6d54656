"""Shared generators for randomized dedupe corpora used by unit and
acceptance tests, and corpus entries read as their checked views."""

from __future__ import annotations

import random

from trialforge.schema import CanonicalStudy, Source
from trialforge.views import parse_entry

BASE_TITLES = [
    "Exercise therapy for chronic knee pain in adults",
    "Metformin versus placebo in type 2 diabetes",
    "Add-on lamotrigine for drug resistant focal epilepsy",
    "Bevacizumab for neovascular age related macular degeneration",
    "Cognitive behavioural therapy for insomnia in older adults",
    "Early mobilisation after hip fracture surgery",
    "High dose vitamin D for winter respiratory infection",
    "Mindfulness training for nurses with burnout",
    "Probiotics for infant colic a randomised trial",
    "Statin therapy for primary prevention in the elderly",
    "Telehealth follow up after myocardial infarction",
    "Azithromycin for asthma exacerbations in children",
]

_SOURCES = [Source.CTGOV, Source.ANZCTR, Source.ISRCTN, Source.PUBMED, Source.CHICTR]


def noisy(title: str, rng: random.Random) -> str:
    """Cosmetic mutation that survives title normalization unchanged."""
    words = title.split()
    out = []
    for w in words:
        if rng.random() < 0.3:
            w = w.upper() if rng.random() < 0.5 else w.capitalize()
        out.append(w)
    text = " ".join(out)
    if rng.random() < 0.4:
        text = text.replace(" ", ",  ", 1)
    if rng.random() < 0.3:
        text += "."
    return text


def make_record(
    rng: random.Random,
    study_id: str,
    source: Source,
    title: str,
    **overrides,
) -> CanonicalStudy:
    s = CanonicalStudy(
        study_id=study_id,
        source=source,
        title=title,
        brief_summary=rng.choice(["", "A short summary.", "Another synopsis."]),
        sponsor=rng.choice(["", "Acme Health", "Globex Institute"]),
        start_year=rng.choice([None, rng.randint(1995, 2025)]),
        flagged=False,
    )
    for k, v in overrides.items():
        setattr(s, k, v)
    s.flagged = not s.study_id.strip() or not s.title.strip()
    return s


def make_dedupe_corpus(rng: random.Random, max_records: int = 100) -> list[CanonicalStudy]:
    """Random corpus mixing exact duplicates, id conflicts, cross-source
    twins, empty titles, and plain singletons.

    Titles are either normalization-equal or clearly different, so the
    0.95 similarity decision is never borderline.
    """
    records: list[CanonicalStudy] = []
    n_groups = rng.randint(1, 12)
    serial = 0
    for _ in range(n_groups):
        base = rng.choice(BASE_TITLES)
        kind = rng.random()
        serial += 1
        gid = f"T{serial:04d}"
        if kind < 0.25:
            # same source, same id, corroborating titles -> intra merge
            src = rng.choice(_SOURCES)
            for _ in range(rng.randint(2, 3)):
                records.append(make_record(rng, gid, src, noisy(base, rng)))
        elif kind < 0.40:
            # same source, same id, conflicting titles -> kept + flagged
            src = rng.choice(_SOURCES)
            other = rng.choice([t for t in BASE_TITLES if t != base])
            records.append(make_record(rng, gid, src, base))
            records.append(make_record(rng, gid, src, other))
        elif kind < 0.65:
            # cross-source twins -> inter merge + linked_to
            srcs = rng.sample(_SOURCES, rng.randint(2, 3))
            for i, src in enumerate(srcs):
                records.append(make_record(rng, f"{gid}-{src.value}", src, noisy(base, rng)))
        elif kind < 0.75:
            # missing title, flagged, never merged across sources
            records.append(
                make_record(rng, gid, rng.choice(_SOURCES), "", flagged=True)
            )
        else:
            records.append(make_record(rng, gid, rng.choice(_SOURCES), base))
    del records[max_records:]
    return records


# Shared title openings, as in the benchmark's skewed corpus: titles that
# open alike fall into a few large blocking groups.
LEAD_PHRASES = ("A randomized trial of", "A study of", "A pilot study of", "Study of", "Study of the effect of")

_CORE_WORDS = (
    "metformin", "placebo", "insulin", "exercise", "therapy", "statin", "asthma",
    "children", "adults", "chronic", "pain", "diabetes", "epilepsy", "vitamin",
    "d", "2", "type", "for", "in", "with", "versus", "early", "high", "dose",
)


def _typos(text: str, rng: random.Random, count: int) -> str:
    chars = list(text)
    for _ in range(count):
        pos = rng.randrange(len(chars))
        op = rng.choice("ids")
        if op == "i":
            chars.insert(pos, rng.choice("aeiouxz"))
        elif op == "d" and len(chars) > 1:
            del chars[pos]
        else:
            chars[pos] = rng.choice("aeiouxz")
    return "".join(chars)


def make_lead_phrase_corpus(rng: random.Random) -> list[CanonicalStudy]:
    """Cross-source corpus whose titles mostly share a lead phrase.

    Each of 30 groups is one to three records from distinct sources; every copy
    carries zero to four character edits, so pair similarities fall on
    both sides of 0.95, and chains of near copies form transitive clusters.
    """
    records: list[CanonicalStudy] = []
    for group in range(30):
        core = " ".join(rng.choice(_CORE_WORDS) for _ in range(rng.randint(3, 8)))
        title = f"{rng.choice(LEAD_PHRASES)} {core}" if rng.random() < 0.7 else core.capitalize()
        for src in rng.sample(_SOURCES, rng.randint(1, 3)):
            records.append(make_record(rng, f"L{group:04d}-{src.value}", src, _typos(title, rng, rng.randint(0, 4))))
    return records


def view(cls: type, fields: dict):
    """``fields`` read as one corpus entry of view class ``cls``, through the reader the pipeline uses."""
    return parse_entry(cls, fields, "entry 0")
