import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperres import (
    EmptyFile,
    SpernerViolation,
    build_hypergraph,
    format_hypergraph,
    middle_graph,
    parse_hypergraph,
)


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
