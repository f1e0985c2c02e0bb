"""Search spaces, symmetry reduction, signatures and classification."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (any_words, check_membership, cyclic_permute, far_commute,
                      find_entry, homogeneous_connected)
from homolink.enumeration import (
    BOUND_CAP,
    CSV_COLUMNS,
    ClassificationReport,
    LinkSignature,
    SearchSpace,
    bound_n,
    bound_p,
    classify,
    enumerate_words,
    link_signature,
    orbit_canonical,
    report_to_csv,
    report_to_json,
    symmetry_reduce,
    _column_sequences,
    _gap_key,
    _least_sequences,
    _orbits,
)
from homolink.errors import CapExceededError
from homolink.words import (BraidWord, component_count, connected,
                            is_homogeneous, parse_word, weak_indices)

SMALL_SPACES = ([SearchSpace(degree=k) for k in range(5)]
                + [SearchSpace(genus=g) for g in range(3)])


def _walk(space):
    """(strands, canonical letters, class key) of each orbit classify
    walks in the space."""
    return [(n, canon, key) for n, m in space.lengths()
            for canon, key in _orbits(n, m, space.knots_only)]


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace()
    with pytest.raises(ValueError):
        SearchSpace(degree=1, genus=1)
    with pytest.raises(ValueError):
        SearchSpace(degree=-1)
    s = SearchSpace(degree=3)
    assert s.degree == 3 and not s.knots_only
    assert s.lengths() == [(2, 4), (3, 5), (4, 6)]
    g = SearchSpace(genus=2)
    assert g.genus == 2 and g.knots_only and g.conway_degree == 4
    assert g.lengths() == [(2, 5), (3, 6), (4, 7), (5, 8)]
    assert SearchSpace(genus=0).lengths() == [(1, 0)]


def test_enumerate_degree_one():
    words = set(enumerate_words(SearchSpace(degree=1)))
    assert words == {BraidWord(2, (1, 1)), BraidWord(2, (-1, -1))}


def test_enumerate_degree_zero_is_the_unknot_word():
    assert list(enumerate_words(SearchSpace(degree=0))) == [BraidWord(1, ())]
    assert list(enumerate_words(SearchSpace(genus=0))) == [BraidWord(1, ())]


def test_enumerated_words_are_nonweak_with_right_degree():
    for k in (2, 3):
        for w in enumerate_words(SearchSpace(degree=k)):
            assert not weak_indices(w)
            assert len(w.letters) - w.strands + 1 == k


def test_cap():
    with pytest.raises(CapExceededError):
        SearchSpace(degree=7).lengths()
    with pytest.raises(CapExceededError):
        enumerate_words(SearchSpace(degree=7))


def test_classify_refuses_over_cap_before_generating(monkeypatch):
    from homolink import enumeration

    def forbidden(n, m):
        raise AssertionError("generated words for a space over the cap")

    monkeypatch.setattr(enumeration, "_column_sequences", forbidden)
    monkeypatch.setattr(enumeration, "_least_sequences", forbidden)
    for degree in (6, 7):       # degree 6 (genus 3) cannot finish
        with pytest.raises(CapExceededError):
            classify(SearchSpace(degree=degree))
    for genus in (3, 4, 6):     # the cap reads the Conway degree, 2g
        with pytest.raises(CapExceededError,
                           match=f"Conway degree {2 * genus} exceeds"):
            classify(SearchSpace(genus=genus))


@pytest.mark.parametrize("genus", range(3))
def test_genus_space_is_the_degree_space_kept_to_knots(genus):
    degree = SearchSpace(degree=2 * genus)
    assert _walk(SearchSpace(genus=genus)) == [
        (n, canon, key) for n, canon, key in _walk(degree)
        if component_count(BraidWord(n, canon)) == 1]
    knots = tuple(c for c in classify(degree).classes
                  if c.signature.component_count == 1)
    assert classify(SearchSpace(genus=genus)).classes == knots


@pytest.mark.parametrize("space", SMALL_SPACES,
                         ids=lambda s: f"degree{s.degree}-genus{s.genus}")
def test_candidates_meet_every_orbit(space):
    # the walk names each orbit of the raw words once, knots only on a
    # genus space
    walked = sorted((n, canon) for n, canon, _ in _walk(space))
    assert walked == [
        (w.strands, w.letters) for w in symmetry_reduce(enumerate_words(space))
        if not space.knots_only or component_count(w) == 1]
    for n, canon in walked:
        w = BraidWord(n, canon)
        if space.conway_degree == 0:
            assert w == BraidWord(1, ())
            continue
        assert (n, len(canon)) in space.lengths()
        assert is_homogeneous(w) and connected(canon, n)
        assert not weak_indices(w)


def test_candidates_skip_most_raw_words():
    space = SearchSpace(degree=4)
    raw = sum(1 for _ in enumerate_words(space))
    assert raw == 45562
    assert 20 * len(_walk(space)) <= raw


def test_raw_and_orbit_counts():
    expected = {0: (1, 1), 1: (2, 1), 2: (26, 5), 3: (802, 32)}
    for k, (raw, orbits) in expected.items():
        words = list(enumerate_words(SearchSpace(degree=k)))
        assert len(words) == raw
        assert len(symmetry_reduce(words)) == orbits


def test_orbit_canonical_identifies_symmetries():
    w = parse_word("1 1 -2 1 -2")
    mirror = BraidWord(3, tuple(-x for x in w.letters))
    reverse = BraidWord(3, w.letters[::-1])
    flip = BraidWord(3, tuple((1 if x > 0 else -1) * (3 - abs(x))
                              for x in w.letters))
    rot = BraidWord(3, w.letters[2:] + w.letters[:2])
    canon = orbit_canonical(w.letters, 3)
    for v in (mirror, reverse, flip, rot):
        assert orbit_canonical(v.letters, 3) == canon
    assert len(symmetry_reduce([w, mirror, reverse, flip, rot])) == 1


def _least_in_orbit(seq, n):
    """Oracle: is seq lex-least among all rotations of itself, its
    reversal, its flip and its flip-reversal?"""
    m = len(seq)
    flip = tuple(n - c for c in seq)
    for t in (seq, seq[::-1], flip, flip[::-1]):
        tt = t + t
        if any(tt[k:k + m] < seq for k in range(m)):
            return False
    return True


@pytest.mark.parametrize("degree, count", [(0, 1), (1, 1), (2, 3), (3, 11),
                                           (4, 138), (5, 3942)])
def test_least_sequences_are_the_filtered_column_sequences(degree, count):
    total = 0
    for n, m in SearchSpace(degree=degree).lengths():
        least = list(_least_sequences(n, m))
        assert least == [seq for seq in _column_sequences(n, m)
                         if _least_in_orbit(seq, n)]
        assert len(set(least)) == len(least)
        total += len(least)
    assert total == count


def _brute_canonical(w):
    """Oracle: the least of all 8m rotations of the eight images."""
    n, letters = w.strands, w.letters
    images = []
    for s in (letters, tuple(-x for x in letters)):
        flip = tuple((1 if x > 0 else -1) * (n - abs(x)) for x in s)
        images += [s, s[::-1], flip, flip[::-1]]
    return min(t[k:] + t[:k] for t in images for k in range(max(len(t), 1)))


def test_orbit_canonical_is_the_least_of_all_rotations():
    for k in range(5):
        for w in enumerate_words(SearchSpace(degree=k)):
            assert (orbit_canonical(w.letters, w.strands)
                    == _brute_canonical(w)), w


@given(any_words(max_n=6, max_m=12))
@settings(max_examples=200, deadline=None)
def test_orbit_canonical_property(w):
    # any word, weak, inhomogeneous and empty ones included
    assert orbit_canonical(w.letters, w.strands) == _brute_canonical(w)


def _class_key_oracle(w):
    """The key as the least over the four images, each read in full."""
    n = w.strands
    cols = tuple(abs(x) for x in w.letters)
    signs = tuple(next(1 if x > 0 else -1 for x in w.letters if abs(x) == c)
                  for c in range(1, n))
    flip = tuple(n - c for c in cols)
    return min((min(s, tuple(-x for x in s)), len(cols), _gap_key(t, n))
               for t, s in ((cols, signs), (cols[::-1], signs),
                            (flip, signs[::-1]), (flip[::-1], signs[::-1])))


@pytest.mark.parametrize("space", SMALL_SPACES,
                         ids=lambda s: f"degree{s.degree}-genus{s.genus}")
def test_per_sequence_keys_are_the_class_keys(space):
    # the walk reads each sequence's gap keys once and pairs them with
    # every sign choice; that must give the key of the orbit it names
    for n, canon, key in _walk(space):
        assert key == _class_key_oracle(BraidWord(n, canon)), canon


def _orbit_closure(w):
    """Oracle: every word reached from w by rotation by one, reversal,
    column flip and mirror."""
    n = w.strands
    seen, todo = {w.letters}, [w.letters]
    while todo:
        t = todo.pop()
        for u in (t[1:] + t[:1], t[::-1], tuple(-x for x in t),
                  tuple((n - abs(x)) * (1 if x > 0 else -1) for x in t)):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return n, frozenset(seen)


def test_symmetry_reduce_partition_is_the_orbit_closure():
    for k in range(4):
        words = list(enumerate_words(SearchSpace(degree=k)))
        by_closure, by_canon = {}, {}
        for w in words:
            by_closure.setdefault(_orbit_closure(w), set()).add(w)
            by_canon.setdefault(
                (w.strands, orbit_canonical(w.letters, w.strands)),
                set()).add(w)
        assert (set(map(frozenset, by_closure.values()))
                == set(map(frozenset, by_canon.values())))
        reps = symmetry_reduce(words)
        assert len({_orbit_closure(w) for w in reps}) == len(reps)
        assert len(reps) == len(by_closure)


def _far_swap_classes(reps):
    """Oracle: orbits merged with the orbits one far swap away."""
    index = {w: i for i, w in enumerate(reps)}
    parent = list(range(len(reps)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, w in enumerate(reps):
        m = len(w.letters)
        for j in range(m if m > 1 else 0):
            v = cyclic_permute(w, j)     # j = m - 1 brings the wrap pair up
            if abs(abs(v.letters[0]) - abs(v.letters[1])) >= 2:
                u = far_commute(v, 1)
                parent[root(i)] = root(
                    index[BraidWord(u.strands,
                                    orbit_canonical(u.letters, u.strands))])
    classes = {}
    for i in range(len(reps)):
        classes.setdefault(root(i), []).append(i)
    return sorted(classes.values())


@pytest.mark.parametrize("space", SMALL_SPACES,
                         ids=lambda s: f"degree{s.degree}-genus{s.genus}")
def test_class_key_partition_is_one_far_swap_closure(space):
    orbits = _walk(space)
    classes = {}
    for i, (_, _, key) in enumerate(orbits):
        classes.setdefault(key, []).append(i)
    reps = [BraidWord(n, canon) for n, canon, _ in orbits]
    assert sorted(classes.values()) == _far_swap_classes(reps)


def test_class_counts():
    counts = [len({key for *_, key in _walk(SearchSpace(degree=k))})
              for k in range(5)]
    assert counts == [1, 1, 5, 18, 119]


def test_classify_computes_one_signature_per_class(monkeypatch):
    from homolink import enumeration
    calls = []

    def counted(w):
        calls.append(w)
        return link_signature(w)

    monkeypatch.setattr(enumeration, "link_signature", counted)
    report = classify(SearchSpace(degree=4))
    assert len(calls) == 119
    assert sum(c.size for c in report.classes) == 873


def test_classify_builds_one_word_per_class(monkeypatch):
    # classify keeps one record per far-commutation class and builds a
    # word only for each class's least orbit, never one per orbit
    from homolink import enumeration
    built = []

    def counted(n, letters):
        built.append(letters)
        return BraidWord(n, letters)

    monkeypatch.setattr(enumeration, "BraidWord", counted)
    classify(SearchSpace(degree=4))
    assert len(built) == 119


@pytest.mark.parametrize("space", [SearchSpace(degree=k) for k in range(4)]
                         + [SearchSpace(genus=g) for g in range(2)],
                         ids=lambda s: f"degree{s.degree}-genus{s.genus}")
def test_classify_is_the_signature_grouping_of_the_orbits(space):
    # the per-class fold against its specification, with no far-commutation
    # classes: one signature per orbit, groups in order of their least orbit
    groups = {}
    for w in symmetry_reduce(enumerate_words(space)):
        if space.knots_only and component_count(w) != 1:
            continue
        group = groups.setdefault(link_signature(w), [w, 0])
        group[1] += 1
    assert ([(c.signature, c.representative, c.size)
             for c in classify(space).classes]
            == [(sig, rep, size) for sig, (rep, size) in groups.items()])


def test_genus_space_signs_only_knot_classes(monkeypatch):
    # the component count is constant on a class, so a genus search drops
    # non-knot orbits before any signature
    from homolink import enumeration
    calls = []

    def counted(w):
        calls.append(w)
        return link_signature(w)

    monkeypatch.setattr(enumeration, "link_signature", counted)
    report = classify(SearchSpace(genus=2))
    assert len(calls) == 30
    assert len(report.classes) == 10
    assert sum(c.size for c in report.classes) == 131
    calls.clear()
    classify(SearchSpace(genus=1))
    assert len(calls) == 3


@st.composite
def far_commutation_moves(draw):
    """A word, one of its rotations with a far swap, and its symmetries."""
    w = draw(homogeneous_connected(max_n=5, max_m=10))
    n, m = w.strands, len(w.letters)
    v = cyclic_permute(w, draw(st.integers(0, max(m - 1, 0))))
    far = [j for j in range(1, m + 1)
           if abs(abs(v.letters[j - 1]) - abs(v.letters[j % m])) >= 2]
    if far:
        j = draw(st.sampled_from(far))
        if j == m:                      # the wrap-around pair
            v = cyclic_permute(far_commute(cyclic_permute(v, -1), 1), 1)
        else:
            v = far_commute(v, j)
    letters = v.letters
    flip = tuple((1 if x > 0 else -1) * (n - abs(x)) for x in letters)
    return w, [v] + [BraidWord(n, t) for t in (
        tuple(-x for x in letters), letters[::-1], flip)]


@given(far_commutation_moves())
@settings(max_examples=60, deadline=None)
def test_signature_and_class_key_survive_far_commutation(moves):
    # the fact classify rests on, checked on the engines' values
    w, images = moves
    sig, key = link_signature(w), _class_key_oracle(w)
    for v in images:
        assert _class_key_oracle(v) == key
        assert link_signature(v) == sig


def test_bounds():
    assert bound_p(0) == 1
    assert bound_p(2) == 66
    assert bound_p(3) == 5962
    assert bound_n(0) == 1
    assert bound_n(1) == 66
    assert len(str(bound_p(BOUND_CAP))) == 4297


def test_genus_bound_is_degree_bound_at_twice_the_genus():
    # a genus-g knot has Conway degree 2g
    for g in range(4):
        assert bound_n(g) == bound_p(2 * g)


def test_bounds_refuse_past_the_printable_range():
    with pytest.raises(CapExceededError, match=r"bound_p\(716\) exceeds"):
        bound_p(BOUND_CAP + 1)
    with pytest.raises(CapExceededError, match=r"bound_p\(716\) exceeds"):
        bound_n(358)


def test_bounds_refuse_negative_arguments():
    with pytest.raises(ValueError, match="degree must be non-negative"):
        bound_p(-1)
    with pytest.raises(ValueError, match="genus must be non-negative"):
        bound_n(-1)


def test_raw_counts_respect_bounds():
    for k in (1, 2, 3):
        assert len(list(enumerate_words(SearchSpace(degree=k)))) <= bound_p(k)
    for g in (1,):
        assert len(list(enumerate_words(SearchSpace(genus=g)))) <= bound_n(g)


def test_signature_mirror_insensitive():
    for text in ["1 1 1", "1 1", "1 1 -2 1 -2", "1 1 2 2"]:
        w = parse_word(text)
        m = BraidWord(w.strands, tuple(-x for x in w.letters))
        assert link_signature(w) == link_signature(m)


def test_signature_distinguishes_granny_square():
    granny = link_signature(parse_word("1 1 1 2 2 2"))
    square = link_signature(parse_word("1 1 1 -2 -2 -2"))
    assert granny.conway == square.conway
    assert granny != square


@given(homogeneous_connected(max_n=3, max_m=6))
@settings(max_examples=40, deadline=None)
def test_signature_invariant_under_orbit(w):
    m = BraidWord(w.strands, tuple(-x for x in w.letters))
    r = BraidWord(w.strands, w.letters[::-1])
    base = link_signature(w)
    assert link_signature(m) == base
    assert link_signature(r) == base


def test_signature_degree_readoff():
    sig = link_signature(parse_word("1 1 1"))
    assert isinstance(sig, LinkSignature)
    assert sig.conway_degree == 2
    assert link_signature(BraidWord(1, ())).conway_degree == 0


def test_classify_degree_two():
    report = classify(SearchSpace(degree=2))
    assert isinstance(report, ClassificationReport)
    assert len(report.classes) == 3
    got = {(c.representative.strands, c.representative.letters,
            c.matched, c.size) for c in report.classes}
    assert got == {
        (2, (-1, -1, -1), "3_1", 2),
        (3, (-2, -2, -1, -1), "chain_3", 2),
        (3, (-2, 1, -2, 1), "4_1", 1),
    }
    assert any("chain" in note for note in report.notes)


def test_classify_genus_one():
    report = classify(SearchSpace(genus=1))
    assert len(report.classes) == 2
    assert {c.matched for c in report.classes} == {"3_1", "4_1"}
    # knots only: every class has one component
    assert all(c.signature.component_count == 1 for c in report.classes)


def test_classify_degree_cross_check_raises(monkeypatch):
    from homolink import enumeration
    monkeypatch.setattr(enumeration, "link_signature",
                        lambda w: LinkSignature(1, ((0, 1),), ()))
    with pytest.raises(RuntimeError, match="degree cross-check"):
        classify(SearchSpace(degree=1))


def test_package_has_no_assert_statements():
    # runtime checks must survive python -O, which strips assert
    import ast
    from pathlib import Path

    import homolink
    for path in sorted(Path(homolink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not found, f"{path.name} has assert on lines {found}"


def test_package_has_no_function_local_imports():
    # imports sit at module top, so the import graph is the module graph
    import ast
    from pathlib import Path

    import homolink
    for path in sorted(Path(homolink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [n.lineno for f in ast.walk(tree)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for n in ast.walk(f)
                 if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert not found, f"{path.name} imports inside functions on {found}"


def test_word_formats_written_only_in_words():
    # one owner per value format: the word dict {"n": ..., "word": ...}
    # and the word text are built only by words.word_to_json / word_text
    from pathlib import Path

    import homolink
    for path in sorted(Path(homolink.__file__).parent.glob("*.py")):
        if path.name == "words.py":
            continue
        text = path.read_text(encoding="utf-8")
        for pattern in ('"n": ', '" ".join(str('):
            assert pattern not in text, f"{path.name} writes {pattern!r}"


def test_refusals_raised_in_words_and_caught_in_cli_main():
    # one precondition layer and one handler: only words.py raises the
    # word-shape errors, and cli.py catches package errors only in main
    import ast
    from pathlib import Path

    import homolink
    from homolink import errors
    package_errors = {name for name, obj in vars(errors).items()
                      if isinstance(obj, type) and issubclass(obj, ValueError)
                      and obj.__module__ == errors.__name__}
    shape_errors = {"DisconnectedWordError", "InhomogeneousWordError"}

    def name_of(node):
        if isinstance(node, ast.Call):
            node = node.func
        return getattr(node, "id", getattr(node, "attr", None))

    for path in sorted(Path(homolink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        raised = {name_of(n.exc) for n in ast.walk(tree)
                  if isinstance(n, ast.Raise) and n.exc is not None}
        if path.name != "words.py":
            assert not raised & shape_errors, path.name
        if path.name != "cli.py":
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
                continue
            caught = set()
            for h in ast.walk(fn):
                if isinstance(h, ast.ExceptHandler) and h.type is not None:
                    types = (h.type.elts if isinstance(h.type, ast.Tuple)
                             else [h.type])
                    caught |= {name_of(t) for t in types}
            assert not caught & (package_errors | {"ValueError"}), fn.name


def test_membership():
    assert check_membership(find_entry("3_1"), SearchSpace(genus=1))
    assert check_membership(find_entry("unknot"), SearchSpace(degree=0))
    assert not check_membership(find_entry("5_1"), SearchSpace(genus=1))


def test_membership_requires_verified_entry():
    from dataclasses import replace
    bad = replace(find_entry("3_1"), verified=False)
    with pytest.raises(ValueError):
        check_membership(bad, SearchSpace(genus=1))


def test_report_json_shape():
    report = classify(SearchSpace(degree=1))
    data = report_to_json(report)
    assert data["schema"] == 1
    assert data["space"] == {"degree": 1, "genus": None, "cap": 5}
    assert len(data["classes"]) == 1
    cls = data["classes"][0]
    assert cls["matched"] == "hopf"
    assert cls["components"] == 2
    assert cls["representative"] == {"n": 2, "word": [-1, -1]}
    assert set(cls) == {"representative", "components", "conway",
                        "jones_pair", "matched", "size"}


def test_report_csv_shape():
    report = classify(SearchSpace(degree=1))
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[2] == "-1 -1" and cells[6] == "hopf"
