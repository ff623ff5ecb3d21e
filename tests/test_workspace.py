from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rclkit import workspace
from rclkit.errors import InputError
from rclkit.fixture_gen import BUILDERS
from rclkit.workspace import BODY_ITEMS, HEADERS, TRIANGLE_BLOCKS, Workspace, parse, serialize

from oracles import reference_tokenize


def test_parse_fixture_counts(fixture_dir):
    text = (fixture_dir / "fix_a2.rcl").read_text()
    ws = parse(text)
    assert len(ws.categories) == 3
    assert len(ws.functors) == 6
    assert len(ws.adjunctions) == 4
    assert len(ws.recollements) == 1


def test_round_trip_idempotent(fixture_dir):
    for name in ("fix_a2.rcl", "fix_stab3.rcl", "fix_prod.rcl"):
        text = (fixture_dir / name).read_text()
        assert serialize(parse(text)) == text, name


def test_serialization_matches_builder(ws_a2, fixture_dir):
    assert serialize(ws_a2) == (fixture_dir / "fix_a2.rcl").read_text()


def test_digest_stable(fixture_dir):
    text = (fixture_dir / "fix_stab3.rcl").read_text()
    assert parse(text).digest == parse(text).digest


def test_empty_workspace_valid():
    ws = parse("rclkit workspace 1\n")
    assert ws.categories == {}
    assert serialize(ws).startswith("rclkit workspace 1")


def test_declaration_order_irrelevant():
    """A functor may be declared before the categories it references."""
    text = """rclkit workspace 1
functor f { source A target A object G -> G map (G G e) -> { (0 0) { e 1 } } }
category A { object G hom G G { basis e } identity G { e 1 } compose (G G e) (G G e) { e 1 } }
field { kind rationals }
"""
    ws = parse(text)
    assert ws.functors["f"].object_map["G"] == ("G",)


def test_unknown_category_reference():
    text = """rclkit workspace 1
field { kind rationals }
functor f { source Nowhere target Nowhere }
"""
    with pytest.raises(InputError) as exc:
        parse(text)
    assert any("unknown category" in str(d) for d in exc.value.diagnostics)
    assert any(d.line == 3 for d in exc.value.diagnostics)


def test_syntax_error_position():
    with pytest.raises(InputError) as exc:
        parse("rclkit workspace 1\nfield { kind rationals\n")
    d = exc.value.diagnostics[0]
    assert d.line >= 2


def test_duplicate_names_rejected():
    text = """rclkit workspace 1
field { kind rationals }
category A { object G hom G G { basis e } identity G { e 1 } compose (G G e) (G G e) { e 1 } }
category A { object G hom G G { basis e } identity G { e 1 } compose (G G e) (G G e) { e 1 } }
"""
    with pytest.raises(InputError) as exc:
        parse(text)
    assert any("duplicate" in str(d) for d in exc.value.diagnostics)


def test_unknown_basis_element():
    text = """rclkit workspace 1
field { kind rationals }
category A { object G hom G G { basis e } identity G { nope 1 } }
"""
    with pytest.raises(InputError) as exc:
        parse(text)
    assert any("unknown basis element" in str(d) for d in exc.value.diagnostics)


def test_prime_field_workspace():
    text = """rclkit workspace 1
field { kind prime 101 }
category A { object G hom G G { basis e } identity G { e 1 } compose (G G e) (G G e) { e 1 } }
"""
    ws = parse(text)
    assert ws.field.characteristic == 101
    assert serialize(ws) == serialize(parse(serialize(ws)))


def test_mutation_declaration_round_trip(fixture_dir):
    text = (fixture_dir / "fix_prod.rcl").read_text()
    ws = parse(text)
    m = ws.mutations["MU"]
    assert set(m.fixed) == {"C1.M1", "C1.M2", "C2.M1", "C2.M2"}
    assert m.d.members == ("C1.M2",)


ALL_KINDS = Path(__file__).resolve().parent / "golden" / "workspace-all-kinds.rcl"


def test_all_kinds_round_trip_byte_identical():
    """The golden uses every declaration kind, the three fexpr forms, fixed
    and cofixed blocks, a named and an identity shift_iso and an empty
    category; the writer must reproduce it byte for byte."""
    text = ALL_KINDS.read_text()
    assert serialize(parse(text)) == text


SUMS = """rclkit workspace 1

field { kind rationals }

category C {
  object G
  object H
  hom G G { basis e }
  hom H H { basis e }
  identity G { e 1 }
  identity H { e 1 }
  compose (G G e) (G G e) { e 1 }
  compose (H H e) (H H e) { e 1 }
}

functor S {
  source C
  target C
  object G -> G + H
  object H -> 0
  map (G G e) -> { (0 0) { e 1 } (1 1) { e 1 } }
}

functor Id {
  source C
  target C
  object G -> G
  object H -> H
  map (G G e) -> { (0 0) { e 1 } }
  map (H H e) -> { (0 0) { e 1 } }
}

triangulated T {
  base C
  shift Id
  shift_inv Id
  triangle t {
    x G
    y G + H
    z H
    f { (0 0) { e 1 } }
    g { (0 1) { e 1 } }
    h { }
  }
}
"""


def test_objects_written_as_sums_round_trip():
    """A functor image and a triangle vertex written as G + H resolve to
    the tuple of their summands; the writer spells them G+H, which parses
    back to the same objects and text."""
    ws = parse(SUMS)
    assert ws.functors["S"].object_map == {"G": ("G", "H"), "H": ()}
    (t,) = ws.triangulated["T"].triangles
    assert (t.x, t.y, t.z) == (("G",), ("G", "H"), ("H",))
    assert t.f.coords == (1,) and t.g.coords == (1,)
    text = serialize(ws)
    assert "  object G -> G+H\n" in text and "    y G+H\n" in text
    again = parse(text)
    assert again.functors["S"].object_map == ws.functors["S"].object_map
    assert again.triangulated["T"].triangles[0].data_key() == t.data_key()
    assert serialize(again) == text


TABLES = ("categories", "subcategories", "functors", "nats", "adjunctions",
          "recollements", "triangulated", "exactdata", "mutations")


def tables_only(ws):
    """A fresh Workspace holding ws's objects and nothing else."""
    fresh = Workspace(ws.field)
    for attr in TABLES:
        getattr(fresh, attr).update(getattr(ws, attr))
    return fresh


@pytest.mark.parametrize("source", ["all-kinds"] + sorted(BUILDERS))
def test_workspace_of_objects_serializes_without_bookkeeping(source):
    """The writer reads every reference off the objects, so a workspace
    built in code needs no record of the names it refers by."""
    ws = parse(ALL_KINDS.read_text()) if source == "all-kinds" else BUILDERS[source]()
    assert serialize(tables_only(ws)) == serialize(ws)


@pytest.mark.parametrize("attr,name,message", [
    ("categories", "ZERO", "category FinLinCategory(ZERO: ) is not registered"),
    ("functors", "T", "fexpr LinearFunctor(I*T: STAB -> STAB) is not registered"),
    ("nats", "u0", "nattrans NatTransform(u0: id => i_lo*i_up) is not registered"),
], ids=["functor-category", "nattrans-composite", "adjunction-unit"])
def test_serialize_names_an_unregistered_object(attr, name, message):
    ws = tables_only(parse(ALL_KINDS.read_text()))
    del getattr(ws, attr)[name]
    with pytest.raises(ValueError) as exc:
        serialize(ws)
    assert message in str(exc.value)


# (id, text in the all-kinds golden, its replacement, expected diagnostics)
DIAGNOSTICS = [
    ("bad-version", "rclkit workspace 1", "rclkit workspace 2",
     ["line 1, col 18: unsupported format version 2"]),
    ("unknown-field-kind", "kind rationals", "kind reals",
     ["line 3, col 14: unknown field kind 'reals'"]),
    ("category-unknown-generator", "hom M1 M2 { basis a0 }", "hom M1 NOPE { basis a0 }",
     ["line 9, col 3: hom pair (M1,NOPE): unknown generator"]),
    ("category-identity-unknown-generator", "  identity M2 { a0 1 }\n",
     "  identity M2 { a0 1 }\n  identity NOPE { }\n",
     ["line 14, col 3: identity NOPE: unknown generator"]),
    ("category-repeated-basis-name", "hom M1 M2 { basis a0 }", "hom M1 M2 { basis a0 a0 }",
     ["line 9, col 24: duplicate basis name 'a0' of Hom(M1,M2)"]),
    ("category-repeated-coefficient", "identity M1 { a0 1 }", "identity M1 { a0 1 a0 2 }",
     ["line 12, col 22: duplicate coefficient of 'a0'"]),
    ("morph-repeated-coefficient", "map (M1 M2 a0) -> { (0 0) { a0 1 } }",
     "map (M1 M2 a0) -> { (0 0) { a0 1 a0 2 } }",
     ["line 34, col 36: duplicate coefficient of 'a0'"]),
    ("morph-repeated-block", "map (M1 M2 a0) -> { (0 0) { a0 1 } }",
     "map (M1 M2 a0) -> { (0 0) { a0 1 } (0 0) { a0 2 } }",
     ["line 34, col 38: duplicate block (0,0)"]),
    ("subcategory-repeated-member", "of STAB members M2", "of STAB members M2 M2",
     ["line 25, col 38: duplicate member 'M2'"]),
    ("subcategory-unknown-category", "of STAB members M2", "of NOPE members M2",
     ["line 25, col 22: unknown category 'NOPE'"]),
    ("subcategory-unknown-member", "of STAB members M2", "of STAB members NOPE",
     ["line 25, col 35: unknown generator 'NOPE' in STAB"]),
    ("functor-unknown-category", "functor i_lo {\n  source ZERO",
     "functor i_lo {\n  source NOPE",
     ["line 62, col 10: unknown category 'NOPE'"]),
    ("functor-object-unknown-generator", "object M1 -> M1", "object M1 -> NOPE",
     ["line 31, col 16: unknown generator 'NOPE' in STAB"]),
    ("functor-object-unknown-source-generator", "object M1 -> M1", "object NOPE -> M1",
     ["line 31, col 10: unknown generator 'NOPE' in STAB"]),
    ("nattrans-unknown-id-category", "to id ZERO", "to id NOPE",
     ["line 101, col 9: unknown category 'NOPE'"]),
    ("nattrans-unknown-functor", "from I * T", "from NOPE",
     ["line 88, col 8: unknown functor 'NOPE'"]),
    ("nattrans-unknown-composite", "to T * I", "to T * NOPE",
     ["line 89, col 10: unknown functor 'NOPE'"]),
    ("nattrans-at-unknown-generator", "at M1 -> { (0 0) { a0 1/2 } }",
     "at NOPE -> { (0 0) { a0 1/2 } }",
     ["line 90, col 6: unknown generator 'NOPE' in STAB"]),
    ("adjunction-unknown-nattrans", "unit eta", "unit NOPE",
     ["line 104, col 40: unknown nattrans 'NOPE'"]),
    ("adjunction-unit-wrong-functors", "unit u0 counit v0", "unit eta counit v0",
     ["line 105, col 46: adjunction adj_i: unit eta runs id STAB => I * I, "
      "not id STAB => i_lo * i_up"]),
    ("adjunction-counit-wrong-functors", "unit u0 counit v0", "unit u0 counit eps",
     ["line 105, col 56: adjunction adj_i: counit eps runs I * I => id STAB, "
      "not i_up * i_lo => id ZERO"]),
    ("recollement-unknown-functor", "j_up I", "j_up NOPE",
     ["line 115, col 8: unknown functor 'NOPE'"]),
    ("triangulated-unknown-functor", "shift T\n", "shift NOPE\n",
     ["line 125, col 9: unknown functor 'NOPE'"]),
    ("triangulated-bad-body-keyword", "triangle t2", "triangel t2",
     ["line 135, col 3: unknown triangulated item 'triangel'"]),
    ("triangle-unknown-generator", "x M2\n    y 0", "x NOPE\n    y 0",
     ["line 136, col 7: unknown generator 'NOPE' in STAB"]),
    ("triangle-block-outside-shape", "h { (0 0) { a0 1 } }\n  }\n  triangle t2",
     "h { (1 0) { a0 1 } }\n  }\n  triangle t2",
     ["line 133, col 9: block (1,0) outside morphism shape"]),
    ("exact-unknown-triangulated", "source_tri TC target_tri TC shift_iso tw",
     "source_tri NOPE target_tri TC shift_iso tw",
     ["line 145, col 32: unknown triangulated 'NOPE'"]),
    ("exact-unknown-shift-iso", "shift_iso tw", "shift_iso NOPE",
     ["line 145, col 59: unknown nattrans 'NOPE'"]),
    ("mutation-unknown-subcategory", "z Zall", "z NOPE",
     ["line 150, col 5: unknown subcategory 'NOPE'"]),
    ("mutation-bad-body-keyword", "cofixed M1", "cofix M1",
     ["line 166, col 3: unknown mutation item 'cofix'"]),
    ("fixed-unknown-generator", "dx M2\n    m 0", "dx NOPE\n    m 0",
     ["line 160, col 8: unknown generator 'NOPE' in STAB"]),
    ("fixed-unknown-name", "fixed M2", "fixed NOPE",
     ["line 159, col 9: unknown generator 'NOPE' in STAB"]),
    ("cofixed-unknown-generator", "x 0\n", "x NOPE\n",
     ["line 174, col 7: unknown generator 'NOPE' in STAB"]),
    ("duplicate-declaration", "subcategory Zall", "subcategory DM2",
     ["line 26, col 13: duplicate subcategory 'DM2'"]),
    ("duplicate-fixed-block", "fixed M1 {", "fixed M2 {",
     ["line 159, col 3: duplicate mutation item 'fixed M2'"]),
    ("duplicate-recollement-key", "  j_lo I\n", "  j_lo I\n  j_lo i_lo\n",
     ["line 117, col 3: duplicate recollement item 'j_lo'"]),
    ("duplicate-functor-object", "  object M1 -> M1\n",
     "  object M1 -> M1\n  object M1 -> M2\n",
     ["line 32, col 3: duplicate functor item 'object M1'"]),
    ("duplicate-nattrans-at", "  at M1 -> { (0 0) { a0 1/2 } }\n",
     "  at M1 -> { (0 0) { a0 1/2 } }\n  at M1 -> { (0 0) { a0 1 } }\n",
     ["line 91, col 3: duplicate nattrans item 'at M1'"]),
    ("duplicate-functor-map", "  map (M1 M2 a0) -> { (0 0) { a0 1 } }\n",
     "  map (M1 M2 a0) -> { (0 0) { a0 1 } }\n  map (M1 M2 a0) -> { }\n",
     ["line 35, col 3: duplicate functor item 'map M1 M2 a0'"]),
    ("duplicate-triangle-name", "  triangle t2", "  triangle t1",
     ["line 135, col 3: duplicate triangulated item 'triangle t1'"]),
    ("duplicate-category-object", "  object M1\n", "  object M1\n  object M1\n",
     ["line 7, col 3: duplicate category item 'object M1'"]),
    ("duplicate-category-hom", "  hom M1 M1 { basis a0 }\n",
     "  hom M1 M1 { basis a0 }\n  hom M1 M1 { basis a0 }\n",
     ["line 9, col 3: duplicate category item 'hom M1 M1'"]),
    ("duplicate-category-identity", "  identity M1 { a0 1 }\n",
     "  identity M1 { a0 1 }\n  identity M1 { a0 2 }\n",
     ["line 13, col 3: duplicate category item 'identity M1'"]),
    ("duplicate-category-compose", "  compose (M1 M1 a0) (M1 M1 a0) { a0 1 }\n",
     "  compose (M1 M1 a0) (M1 M1 a0) { a0 1 }\n  compose (M1 M1 a0) (M1 M1 a0) { a0 2 }\n",
     ["line 15, col 3: duplicate category item 'compose M1 M1 a0 M1 M1 a0'"]),
    ("retired-assume-local", "category STAB {\n", "category STAB {\n  assume_local\n",
     ["line 6, col 3: unknown category item 'assume_local'"]),
]


@pytest.mark.parametrize("old,new,expected", [c[1:] for c in DIAGNOSTICS],
                         ids=[c[0] for c in DIAGNOSTICS])
def test_diagnostics(old, new, expected):
    text = ALL_KINDS.read_text()
    assert old in text
    with pytest.raises(InputError) as exc:
        parse(text.replace(old, new, 1))
    assert [str(d) for d in exc.value.diagnostics] == expected


def test_docstring_grammar_names_every_table_keyword():
    """The grammar in the module docstring is the format's documentation; it
    must quote every keyword the field tables read and write."""
    words = list(HEADERS) + list(TRIANGLE_BLOCKS)
    words += [word for fields in HEADERS.values() for word, _, _ in fields]
    words += [word for items in BODY_ITEMS.values() for word in items]
    words += [word for _, fields in TRIANGLE_BLOCKS.values() for word, _, _ in fields]
    assert [w for w in words if '"%s"' % w not in workspace.__doc__] == []


# -- the one-scan tokenizer against the character loop it replaced --

def scanned(text):
    """(kind, value, line, col) of each token up to eof, or the diagnostics."""
    try:
        tokens = workspace._Tokens(text)
    except InputError as exc:
        return [str(d) for d in exc.diagnostics]
    end = tokens.values.index("")
    return [(tokens.kinds[value], value) + tokens.position(i)
            for i, value in enumerate(tokens.values[:end + 1])]


def looped(text):
    try:
        return reference_tokenize(text)
    except InputError as exc:
        return [str(d) for d in exc.diagnostics]


PIECES = ["a", "Zb", "_x", "x.y", "M1", "a_0.b", "0", "12", "3/4", "-", "->", "/", ".",
          "{", "}", "(", ")", "+", "*", " ", "  ", "\t", "\r", "\n", "#", "# c {", "$", "@"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_tokenizer_matches_the_character_loop(text):
    assert scanned(text) == looped(text)


@pytest.mark.parametrize("text", [
    "category \u00e9 { object \u03a9 }",
    "x\u00e9 \u03a9.1 _\u00e9",
    "\u00b2 x\u00b2 1\u00b2/3 -\u00b2",  # superscript two is a digit, not a decimal
    "\u00bd",                             # a numeric character that starts no token
    "a \u2028 b",                         # a line separator is not whitespace here
])
def test_tokenizer_matches_the_character_loop_outside_ascii(text):
    assert scanned(text) == looped(text)


def test_non_ascii_letters_start_identifiers():
    assert scanned("\u00e9 \u03a9") == [("ident", "\u00e9", 1, 1), ("ident", "\u03a9", 1, 3),
                                       ("eof", "", 1, 4)]


# (id, whole text, expected diagnostics): the positions at the end of a file
EDGE_DIAGNOSTICS = [
    ("ends-in-a-comment-without-newline",
     "rclkit workspace 1\nfield { kind rationals  # done",
     ["line 2, col 25: expected '}'"]),
    ("ends-right-after-a-token", "rclkit workspace 1\nfield { kind rationals",
     ["line 2, col 23: expected '}'"]),
    ("truncated-declaration",
     "rclkit workspace 1\nfield { kind rationals }\nsubcategory Z {\n  of A members G H\n",
     ["line 5, col 1: expected '}'"]),
    ("bad-character-on-the-last-line",
     "rclkit workspace 1\nfield { kind rationals }\ncategory A { object G } $",
     ["line 3, col 25: unexpected character '$'"]),
]


@pytest.mark.parametrize("text,expected", [c[1:] for c in EDGE_DIAGNOSTICS],
                         ids=[c[0] for c in EDGE_DIAGNOSTICS])
def test_end_of_file_diagnostics(text, expected):
    with pytest.raises(InputError) as exc:
        parse(text)
    assert [str(d) for d in exc.value.diagnostics] == expected


def test_file_ending_in_a_comment_parses():
    ws = parse("rclkit workspace 1\nfield { kind prime 5 }\n# done")
    assert ws.field.characteristic == 5
