"""Named reference links with independently published Alexander values.

Every entry carries a braid word and the published symmetric Alexander
polynomial of its closure. Verification recomputes the polynomial from the
word on two routes (Burau, and the Seifert matrix for every connected
word, mixed signs included) and demands exact agreement; classification
refuses to match against entries whose verified flag is down. Entries
live in reference_table.jsonl next to this module, one JSON object per
line.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

from .burau import alexander_via_burau
from .enumeration import LinkSignature, link_signature
from .polynomials import LaurentPolynomial, polynomial_from_json
from .seifert import alexander_from_seifert, build_surface, seifert_matrix
from .words import BraidWord, connected


@dataclass(frozen=True)
class ReferenceEntry:
    name: str
    word: BraidWord
    verified: bool
    published_alexander: LaurentPolynomial
    note: str = ""


def parse_entry(obj: dict) -> ReferenceEntry:
    word = BraidWord(int(obj["n"]), tuple(int(x) for x in obj["word"]))
    pub = polynomial_from_json(obj["published_alexander"])
    if not isinstance(pub, LaurentPolynomial):
        raise ValueError("published_alexander must be a t-polynomial")
    return ReferenceEntry(str(obj["name"]), word, bool(obj["verified"]),
                          pub, str(obj.get("note", "")))


def entry_to_json(entry: ReferenceEntry) -> dict:
    out = {
        "name": entry.name,
        "n": entry.word.strands,
        "word": list(entry.word.letters),
        "verified": entry.verified,
        "published_alexander": entry.published_alexander.to_json(),
    }
    if entry.note:
        out["note"] = entry.note
    return out


def load_reference_table(path=None) -> list:
    """All entries from the given JSONL file, or the shipped table."""
    if path is None:
        text = (resources.files("homolink") / "reference_table.jsonl"
                ).read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    entries = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(parse_entry(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"reference table line {ln}: {exc}") from exc
    return entries


def write_text(text, path):
    """Write text to path as UTF-8, atomically: a temp file in the target's
    directory replaces path only once it is complete, and is removed if
    anything fails. OSError reaches the caller."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_table(entries, path):
    """Write entries as JSONL through write_text."""
    write_text("".join(json.dumps(entry_to_json(entry), sort_keys=True) + "\n"
                       for entry in entries), path)


@lru_cache(maxsize=None)
def entry_signature(entry: ReferenceEntry) -> LinkSignature:
    return link_signature(entry.word)


def verify_entry(entry: ReferenceEntry):
    """(entry with refreshed flag, human-readable detail line).

    The Burau determinant is computed for every word; connected words
    additionally go through the Seifert matrix, and the two must agree with
    each other and with the published value exactly.
    """
    published = entry.published_alexander.as_dict()
    computed = alexander_via_burau(entry.word).as_dict()
    ok = computed == published
    detail = "burau matches published" if ok else (
        f"burau disagrees with published: {computed} vs {published}")
    w = entry.word
    if ok and connected(w.letters, w.strands):
        surf = alexander_from_seifert(seifert_matrix(build_surface(w))).as_dict()
        if surf != published:
            ok = False
            detail = f"seifert route disagrees: {surf} vs {published}"
        else:
            detail = "burau and seifert match published"
    return replace(entry, verified=ok), detail


def verify_table(entries):
    """Verify every entry; returns (new entries, detail lines)."""
    out, details = [], []
    for entry in entries:
        new, detail = verify_entry(entry)
        out.append(new)
        details.append(f"{new.name}: {'ok' if new.verified else 'FAIL'} "
                       f"({detail})")
    return out, details


def find_entry(name: str, entries=None) -> ReferenceEntry:
    entries = load_reference_table() if entries is None else entries
    for entry in entries:
        if entry.name == name:
            return entry
    raise KeyError(f"no reference entry named {name!r}")
