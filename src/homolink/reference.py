"""Named reference links, and link identity: signatures and table matching.

Every entry carries a braid word and the published symmetric Alexander
polynomial of its closure. Verification recomputes the polynomial from the
word on two routes (Burau, and the Seifert matrix for every connected
word, mixed signs included) and demands exact agreement. Entries live in
reference_table.jsonl next to this module, one JSON object per line.

A closure is named by its signature (component count, Conway,
mirror-insensitive Jones). The signature is an equality TEST, not a proof
of sameness: signature_index matches only verified entries, skips
unverified ones with a note, and refuses a table in which two verified
entries share a signature rather than merging them silently.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from functools import lru_cache
from importlib import resources

from .burau import alexander_via_burau
from .errors import TableDefectError
from .jones import jones_polynomial
from .polynomials import LaurentPolynomial, eshift, polynomial_from_json
from .record import Record, set_field
from .seifert import (alexander_from_seifert, build_surface,
                      conway_from_seifert, seifert_matrix)
from .words import (BraidWord, component_count, connected, word_from_json,
                    word_to_json)


class ReferenceEntry(Record):
    __slots__ = ("name", "word", "verified", "published_alexander", "note")

    def __init__(self, name: str, word: BraidWord, verified: bool,
                 published_alexander: LaurentPolynomial, note: str = ""):
        set_field(self, "name", name)
        set_field(self, "word", word)
        set_field(self, "verified", verified)
        set_field(self, "published_alexander", published_alexander)
        set_field(self, "note", note)

    def _key(self):
        return (self.name, self.word, self.verified,
                self.published_alexander, self.note)


def parse_entry(obj: dict) -> ReferenceEntry:
    word = word_from_json(obj)
    pub = polynomial_from_json(obj["published_alexander"])
    if not isinstance(pub, LaurentPolynomial) or pub.scale != 2:
        raise ValueError("published_alexander must be a t-polynomial at "
                         "scale 2 (half powers), like every Alexander value")
    verified = obj["verified"]
    if type(verified) is not bool:
        raise ValueError(f"verified must be true or false, got {verified!r}")
    name, note = obj["name"], obj.get("note", "")
    if type(name) is not str or type(note) is not str:
        raise ValueError(f"name and note must be strings, got name {name!r}, "
                         f"note {note!r}")
    return ReferenceEntry(name, word, verified, pub, note)


def entry_to_json(entry: ReferenceEntry) -> dict:
    out = {
        "name": entry.name,
        **word_to_json(entry.word),
        "verified": entry.verified,
        "published_alexander": entry.published_alexander.to_json(),
    }
    if entry.note:
        out["note"] = entry.note
    return out


def _unique_keys(pairs):
    """A JSON object's dict, refusing a key named twice at any depth
    (plain json.loads keeps the last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def table_rows(text):
    """(line number, entry) for each non-blank line of a JSONL table; a
    line that does not parse, or names a key twice in one object, yields
    its exception in place of the entry."""
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = parse_entry(json.loads(line, object_pairs_hook=_unique_keys))
        except (ValueError, KeyError, TypeError) as exc:
            row = exc
        yield ln, row


def load_reference_table(path=None) -> list:
    """All entries from the given JSONL file, read on every call, or from
    the shipped table, parsed once per process; a new list each call."""
    if path is None:
        return list(_shipped_entries())
    with open(path, encoding="utf-8") as fh:
        return list(_entries(fh.read()))


@lru_cache(maxsize=1)
def _shipped_entries() -> tuple:
    return tuple(_entries((resources.files("homolink") / "reference_table.jsonl"
                           ).read_text(encoding="utf-8")))


def _entries(text):
    """The entries of a JSONL table; a bad line raises ValueError."""
    for ln, row in table_rows(text):
        if isinstance(row, Exception):
            raise ValueError(f"reference table line {ln}: {row}") from row
        yield row


def write_text(text, path):
    """Write text to path as UTF-8, atomically: a temp file in the target's
    directory replaces path only once it is complete, and is removed if
    anything fails. The file keeps the permission bits of the one it
    replaces; a new file gets 0o666 less the umask, as open() would give
    it, not mkstemp's 0o600. OSError reaches the caller."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_table(entries, path):
    """Write entries as JSONL through write_text."""
    write_text("".join(json.dumps(entry_to_json(entry), sort_keys=True) + "\n"
                       for entry in entries), path)


# --- signatures ------------------------------------------------------------

class LinkSignature(Record):
    """Mirror-insensitive equality key for closures.

    conway and jones_pair hold canonical coefficient tuples. For links the
    raw values depend on component orientations, which a braid word fixes
    but the underlying unoriented link does not: reorienting one component
    scales Jones by t^(3*lk) (a 12-step shift at quarter-power scale) and
    can flip the sign of Conway. The canonical forms mod out exactly that,
    plus the mirror pair.
    """

    __slots__ = ("component_count", "conway", "jones_pair")

    def __init__(self, component_count: int, conway: tuple,
                 jones_pair: tuple):
        set_field(self, "component_count", component_count)
        set_field(self, "conway", conway)
        set_field(self, "jones_pair", jones_pair)

    def _key(self):
        return (self.component_count, self.conway, self.jones_pair)

    @property
    def conway_degree(self):
        return self.conway[-1][0] if self.conway else None


def _conway_canonical(d: dict, comps: int) -> tuple:
    if d and comps != 1 and d[max(d)] < 0:
        d = {e: -c for e, c in d.items()}
    return tuple(sorted(d.items()))


def _jones_canonical(d: dict, comps: int) -> tuple:
    def canon(p):
        if not p:
            return ()
        if comps != 1:
            lo = min(p)
            p = eshift(p, (lo % 12) - lo)
        return tuple(sorted(p.items()))

    return min(canon(d), canon({-e: c for e, c in d.items()}))


def link_signature(w: BraidWord) -> LinkSignature:
    """The closure's signature; a split word's Conway is 0."""
    comps = component_count(w)
    conway = (conway_from_seifert(seifert_matrix(build_surface(w))).as_dict()
              if connected(w.letters, w.strands) else {})
    jones = jones_polynomial(w).as_dict()
    return LinkSignature(comps,
                         _conway_canonical(conway, comps),
                         _jones_canonical(jones, comps))


@lru_cache
def entry_signature(entry: ReferenceEntry) -> LinkSignature:
    return link_signature(entry.word)


def signature_index():
    """({signature: name} over the shipped table's verified entries, notes).

    An unverified entry is skipped with a note. Two verified entries
    sharing a signature are a table defect: TableDefectError.
    """
    index, notes = {}, []
    for entry in load_reference_table():
        if not entry.verified:
            notes.append(f"reference entry {entry.name} is unverified; "
                         "matching against it is disabled")
            continue
        sig = entry_signature(entry)
        other = index.get(sig)
        if other is not None:
            raise TableDefectError(
                f"reference entries {other} and {entry.name} share a "
                "signature; fix the table before classifying")
        index[sig] = entry.name
    return index, notes


def verify_entry(entry: ReferenceEntry):
    """(entry with refreshed flag, human-readable detail line).

    The Burau determinant is computed for every word; connected words
    additionally go through the Seifert matrix, and the two must agree with
    each other and with the published value exactly, scale included.
    """
    published = entry.published_alexander
    computed = alexander_via_burau(entry.word)
    ok = computed == published
    detail = "burau matches published" if ok else (
        f"burau disagrees with published: {computed} vs {published}")
    w = entry.word
    if ok and connected(w.letters, w.strands):
        surf = alexander_from_seifert(seifert_matrix(build_surface(w)))
        if surf != published:
            ok = False
            detail = f"seifert route disagrees: {surf} vs {published}"
        else:
            detail = "burau and seifert match published"
    return ReferenceEntry(entry.name, w, ok, published, entry.note), detail
