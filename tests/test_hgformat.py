import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperres import (
    EmptyFile,
    Hypergraph,
    SpernerViolation,
    build_hypergraph,
    format_hypergraph,
    middle_graph,
    parse_hypergraph,
)
from oracles import reference_containment, reference_format, reference_parse


def test_parse_hyperpath():
    H = parse_hypergraph("a b c\nc d e\n")
    assert H.m == 5 and H.k == 2
    assert H.labels == ("a", "b", "c", "d", "e")


def test_parse_two_edge_example():
    H = parse_hypergraph("v1 v2 v3\nv3 v4\n")
    assert H.edges == (frozenset({0, 1, 2}), frozenset({2, 3}))


def test_parse_skips_comments_and_blanks():
    H = parse_hypergraph("# note\n\na b\nb c  # trailing\n#x\n")
    assert H.m == 3 and H.k == 2


def test_parse_empty_file():
    with pytest.raises(EmptyFile):
        parse_hypergraph("")
    with pytest.raises(EmptyFile):
        parse_hypergraph("# nothing\n\n  \n")


def test_parse_respects_sperner_gate():
    text = "a b c\na b\n"
    with pytest.raises(SpernerViolation):
        parse_hypergraph(text)
    H = parse_hypergraph(text, allow_non_sperner=True)
    assert H.k == 2


def test_roundtrip_pinned():
    text = "v1 v2 v3\nv3 v4\n"
    H = parse_hypergraph(text)
    assert format_hypergraph(H) == text
    again = parse_hypergraph(format_hypergraph(H))
    assert again.labels == H.labels and again.edges == H.edges


def test_format_rejects_unprintable_labels():
    H = build_hypergraph([["a b", "c"]], allow_non_sperner=True)
    with pytest.raises(ValueError):
        format_hypergraph(H)


@pytest.mark.parametrize("bad", ["#", " ", "\t", "\u2003", "\x1c", ""])
def test_format_names_the_first_bad_label(bad):
    # ids 1 and 2 both fail, in the same way where they can; id 1 is named
    first, second = (f"b{bad}", f"c{bad}") if bad else ("", "c d")
    H = Hypergraph(("a", first, second, 7), (frozenset({0, 1, 2, 3}),))
    message = f"label {first!r} cannot be written in .hg format"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        format_hypergraph(H)


def test_format_writes_labels_that_are_not_strings():
    H = Hypergraph((3, "x", 1.5), (frozenset({2, 0}), frozenset({0, 1})))
    assert format_hypergraph(H) == "3 1.5\n3 x\n"


@pytest.mark.parametrize("edges,label", [
    ([["a", "b"], ["b", "c"], ["d"]], "d"),
    ([["a"]], "a"),
])
def test_format_rejects_a_vertex_in_no_edge(edges, label):
    # before, the first dropped d and the second printed a blank line
    M = middle_graph(build_hypergraph(edges))
    with pytest.raises(ValueError, match=f"vertex '{label}' in no edge"):
        format_hypergraph(M)


def test_roundtrip_renumbers_ids_out_of_first_appearance():
    M = middle_graph(parse_hypergraph("a c\nb d\nc d\n"))
    assert M.labels == ("a", "c", "b", "d")
    text = format_hypergraph(M)
    assert text == "a c\nc d\nb d\n"
    assert parse_hypergraph(text).labels == ("a", "c", "d", "b")


# labels a .hg line can hold, bad ones (empty, whitespace, ``#``) and
# labels that are not strings; some vertices may lie in no edge
_ANY_LABEL = st.sampled_from(["a", "b", "é", "", "a b", "c\t", "#", "x#y", 7, 1.5])


@st.composite
def _any_hypergraph(draw):
    labels = draw(st.lists(_ANY_LABEL, min_size=1, max_size=10, unique=True))
    ids = st.integers(0, len(labels) - 1)
    edges = draw(st.lists(st.frozensets(ids, min_size=1), max_size=4))
    return Hypergraph(tuple(labels), tuple(edges))


@given(_any_hypergraph())
@example(Hypergraph(("a", "b c", "d"), (frozenset({2}),)))
@example(Hypergraph(("a", "b"), ()))
# the frozenset {8, 0} iterates as 8, 0: each line sorts its ids
@example(Hypergraph(tuple("abcdefghi"), (frozenset(range(9)), frozenset([8, 0]))))
def test_format_matches_the_label_by_label_writer(H):
    try:
        expected = reference_format(H)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            format_hypergraph(H)
        assert str(raised.value) == str(exc)
        return
    assert format_hypergraph(H) == expected


label = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=3,
)
edge_lists = st.lists(
    st.lists(label, min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=5,
)


@given(edge_lists)
@settings(max_examples=80)
def test_roundtrip_random(edge_list):
    H = build_hypergraph(edge_list, allow_non_sperner=True)
    again = parse_hypergraph(format_hypergraph(H), allow_non_sperner=True)
    assert again.labels == H.labels
    assert again.edges == H.edges


# Pieces of .hg text: labels, ``#`` alone or glued to a label, and every
# kind of separator the reader must treat alike: Unicode whitespace that
# splits a line into labels (tab, \x0b, \x1c, no-break and em spaces,
# \u2028) and line breaks, several of which (\x0b, \x1c, \u2028) are both.
text_pieces = st.sampled_from([
    "a", "b", "c", "d", "ab", "a", "b",
    "#", "# note", "c#x", "a#", "#b",
    " ", "  ", "\t", "\x0b", "\x1c", "\u00a0", "\u2003", "\u2028",
    "\n", "\n", "\r\n", "\r",
])


@given(st.lists(text_pieces, max_size=30).map("".join), st.booleans())
@settings(max_examples=400, deadline=None)
@example("# only a comment\n\n \t\n", False)
@example("a b\r\n\tb a b\r\n", False)
@example("a b c#x\nc#y a\x1cb\u2003c\n", False)
@example("a\u00a0b\u2028c\x0bd # tail\n", False)
def test_parse_matches_the_line_by_line_reader(text, allow_non_sperner):
    try:
        labels, edges = reference_parse(text)
    except EmptyFile as expected:
        with pytest.raises(EmptyFile) as exc:
            parse_hypergraph(text, allow_non_sperner)
        assert str(exc.value) == str(expected)
        return
    pair = reference_containment(SimpleNamespace(k=len(edges), edges=edges))
    if pair is not None and not allow_non_sperner:
        with pytest.raises(SpernerViolation) as exc:
            parse_hypergraph(text, allow_non_sperner)
        assert (exc.value.inner, exc.value.outer) == pair
        assert str(exc.value) == str(SpernerViolation(*pair))
        return
    H = parse_hypergraph(text, allow_non_sperner)
    assert H.labels == labels
    assert H.edges == edges
