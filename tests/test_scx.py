import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from facetcx import (
    Complex,
    ScxError,
    build_complex,
    parse_map,
    parse_scx,
    serialize_map,
    serialize_scx,
)
from facetcx.maps import VertexMap


def test_parse_basic():
    c = parse_scx("# comment\nname demo\nv a b\nf a b c\nf c d\n")
    assert c.name == "demo"
    assert c.labels == ("a", "b", "c", "d")
    assert c.facet_lists() == (("a", "b", "c"), ("c", "d"))


def test_parse_blank_and_whitespace():
    c = parse_scx("\n  \nf a b\n\n")
    assert c.facet_lists() == (("a", "b"),)


def test_parse_explicit_vertex_only():
    c = parse_scx("v x\n")
    assert c.facet_lists() == (("x",),)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScxError, match="line 2"):
        parse_scx("f a b\nx c d\n")
    with pytest.raises(ScxError, match="line 1"):
        parse_scx("f\n")


def test_parse_duplicate_name_rejected():
    with pytest.raises(ScxError):
        parse_scx("name a\nname b\nf x y\n")


def test_serialize_canonical(bowtie):
    text = serialize_scx(bowtie)
    assert text == (
        "name shaded_bowtie\nv a b c d e\nf a b c\nf c d\nf c e\nf d e\n"
    )


def test_roundtrip_fixture(bowtie):
    assert parse_scx(serialize_scx(bowtie)) == bowtie


def test_parse_map(bowtie, tailed):
    m = parse_map(
        "m a a'\nm b b'\nm c c'\nm d b'\nm e a'\n", bowtie, tailed
    )
    assert m("d") == "b'"
    assert m.as_dict()["e"] == "a'"


def test_parse_map_skips_blank_and_comment_lines(bowtie, tailed):
    text = "# a comment\n\nm a a'\nm b b'  # trailing\n   \nm c c'\nm d b'\nm e a'\n"
    plain = "m a a'\nm b b'\nm c c'\nm d b'\nm e a'\n"
    assert parse_map(text, bowtie, tailed) == parse_map(plain, bowtie, tailed)


def test_parse_map_errors(bowtie, tailed):
    with pytest.raises(ScxError, match="unknown source vertex"):
        parse_map("m z a'\n", bowtie, tailed)
    with pytest.raises(ScxError, match="unknown target vertex"):
        parse_map("m a zz\n", bowtie, tailed)
    with pytest.raises(ScxError, match="has no image"):
        parse_map("m a a'\n", bowtie, tailed)
    with pytest.raises(ScxError, match="line 2"):
        parse_map("m a a'\nm a b'\n", bowtie, tailed)


def test_serialize_map_roundtrip(bowtie, tailed):
    m = VertexMap.from_dict(
        bowtie, tailed,
        {"a": "a'", "b": "b'", "c": "c'", "d": "b'", "e": "a'"},
    )
    assert parse_map(serialize_map(m), bowtie, tailed) == m


LABELS = st.sampled_from(["a", "b", "c", "x'", "y2", "zz"])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.frozensets(LABELS, min_size=1, max_size=4), max_size=6),
    st.lists(LABELS, max_size=3),
)
def test_roundtrip_property(faces, extra):
    c = build_complex(faces, explicit_vertices=extra)
    assert parse_scx(serialize_scx(c)) == c


@pytest.mark.parametrize("label", ["a#b", "a b", "x\n", " a", "\u2028"])
def test_labels_scx_cannot_carry_are_rejected(label):
    with pytest.raises(ValueError, match="whitespace or '#'"):
        build_complex([(label, "c")])
    with pytest.raises(ValueError, match="whitespace or '#'"):
        build_complex([("c",)], explicit_vertices=[label])


@pytest.mark.parametrize(
    "label, reason",
    [("a b", "whitespace or '#'"), ("x#y", "whitespace or '#'"), ("", "empty vertex label"),
     ("a\nb", "whitespace or '#'")],
)
def test_complex_rejects_labels_scx_cannot_carry(label, reason):
    """Built directly, a complex is held to the label rule too, so every
    complex the library accepts survives an ``.scx`` round-trip."""
    with pytest.raises(ValueError, match=reason):
        Complex((label,), (1,))
    with pytest.raises(ValueError, match=reason):
        Complex(tuple(sorted(("a", label))), (1, 2))  # beside a valid label


@pytest.mark.parametrize(
    "name, read_back",
    [("x\nf q r", "x f q r"), ("p#q", "p"), ("#x", None), (" \t", None)],
)
def test_name_is_written_as_one_name_line(name, read_back):
    c = build_complex([("a", "b")], name=name)
    d = parse_scx(serialize_scx(c))
    assert (d, d.name) == (c, read_back)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.frozensets(st.one_of(LABELS, st.text(max_size=3)), min_size=1, max_size=4),
        max_size=6,
    ),
    st.one_of(st.none(), st.text(max_size=6)),
)
def test_accepted_complexes_roundtrip(faces, name):
    try:
        c = build_complex(faces, name=name)
    except ValueError:
        assume(False)
    assert parse_scx(serialize_scx(c)) == c


# tokens as ``str.split`` leaves them: no whitespace and, past a comment
# cut, no "#"
TOKENS = st.text(
    st.characters().filter(lambda ch: ch != "#" and not ch.isspace()), min_size=1, max_size=3
)
GAPS = st.sampled_from([" ", "  ", "\t", "\xa0", "\u3000"])  # no line breaks
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_matches_build_complex(data):
    """Parsing straight to facet masks builds what ``build_complex``
    builds from the same faces, vertices and name."""
    faces = data.draw(st.lists(st.lists(TOKENS, min_size=1, max_size=4), max_size=6))
    vertices = data.draw(st.lists(TOKENS, max_size=4))
    name = data.draw(st.one_of(st.none(), st.lists(TOKENS, min_size=1, max_size=3)))

    def line(words):
        gaps = [data.draw(GAPS) for _ in range(len(words) + 1)]
        text = gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))
        if data.draw(st.booleans()):
            text += "#" + data.draw(st.text(st.characters(blacklist_categories=("Zl", "Zp", "Cc"))))
        return text

    lines = [line(["f", *f]) for f in faces] + [line(["v", v]) for v in vertices]
    if name is not None:
        lines.append(line(["name", *name]))
    lines += ["", line([])]
    order = data.draw(st.permutations(lines))
    text = "".join(ln + data.draw(BREAKS) for ln in order)
    got = parse_scx(text, name="fallback")
    want_name = None
    if name is not None:
        named = next(ln for ln in order if ln.split() and ln.split()[0] == "name")
        want_name = named.split("#", 1)[0].strip()[len("name"):].strip()
    want = build_complex(faces, explicit_vertices=vertices, name=want_name or "fallback")
    assert (got, got.name) == (want, want.name)


@pytest.mark.parametrize(
    "text, message",
    [
        ("f a b\nx c d\n", "line 2: unknown directive 'x'"),
        ("\n# c\n  F a\n", "line 3: unknown directive 'F'"),
        ("f\n", "line 1: facet line with no vertices"),
        ("v a\n f  # b c\n", "line 2: facet line with no vertices"),
        ("name a\nf a\nname b\n", "line 3: repeated name directive"),
        ("f a b\nname   # x\n", "line 2: name directive without a name"),
        ("f a\r\nnamex b\n", "line 2: unknown directive 'namex'"),
    ],
)
def test_malformed_text_names_its_line(text, message):
    with pytest.raises(ScxError) as exc:
        parse_scx(text)
    assert str(exc.value) == message
