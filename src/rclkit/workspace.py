"""The declarative workspace format: parser, resolver and canonical writer.

Grammar (tokens: identifiers may contain dots, numbers are integers or
fractions like 3/4, comments start with '#'):

    file        := "rclkit" "workspace" INT decl*
    decl        := field | category | subcategory | functor | nattrans
                 | adjunction | recollement | triangulated | exact | mutation
    field       := "field" "{" "kind" ("rationals" | "prime" INT) "}"
    category    := "category" NAME "{" item* "}"
    item        := "object" NAME
                 | "hom" NAME NAME "{" ("basis" NAME+)? "}"
                 | "identity" NAME coeffs
                 | "compose" "(" NAME NAME NAME ")" "(" NAME NAME NAME ")" coeffs
    coeffs      := "{" (NAME NUMBER)* "}"
    subcategory := "subcategory" NAME "{" "of" NAME "members" NAME* "}"
    functor     := "functor" NAME "{" "source" NAME "target" NAME
                   ("object" NAME "->" objexpr)* ("map" "(" NAME NAME NAME ")" "->" morph)* "}"
    objexpr     := "0" | NAME ("+" NAME)*
    morph       := "{" ("(" INT INT ")" coeffs)* "}"
    nattrans    := "nattrans" NAME "{" "from" fexpr "to" fexpr ("at" NAME "->" morph)* "}"
    fexpr       := "id" NAME | NAME | NAME "*" NAME
    adjunction  := "adjunction" NAME "{" "left" NAME "right" NAME "unit" NAME "counit" NAME "}"
    recollement := "recollement" NAME "{" (SLOTKEY NAME)* "}"
    triangulated:= "triangulated" NAME "{" "base" NAME "shift" NAME "shift_inv" NAME
                   ("triangle" NAME "{" "x" objexpr "y" objexpr "z" objexpr
                    "f" morph "g" morph "h" morph "}")* "}"
    exact       := "exact" NAME "{" "functor" NAME "source_tri" NAME "target_tri" NAME
                   "shift_iso" ("identity" | NAME) "}"
    mutation    := "mutation" NAME "{" "ambient" NAME "z" NAME "d" NAME
                   ("fixed" NAME "{" "dx" objexpr "m" objexpr
                    "alpha" morph "beta" morph "gamma" morph "}")*
                   ("cofixed" NAME "{" "x" objexpr "dx" objexpr
                    "f" morph "g" morph "h" morph "}")* "}"

The text is tokenized by one regular-expression scan into the list of token
values (_Tokens); a token's line and column are computed only when a
diagnostic reads them, by one more scan of the same text.  The parser
compares token values and makes a Token (value and index) only for the
values it keeps.

The field, category and recollement declarations are read by hand: their
bodies are not keyword sequences, and recollement keys (REC_KEYS) may come
in any order.  Every other declaration is a header of keyword/value fields
in a fixed order followed by body items, and three ordered tables describe
them:

    HEADERS          declaration kind -> its header fields, each a
                     (keyword, attribute, value kind) triple: the attribute
                     of the built object that the value refers to
    BODY_ITEMS       declaration kind -> the keywords its body items start
                     with; a kind without body items is written on one line
    TRIANGLE_BLOCKS  block kind -> (the vertex the block's NAME gives, or
                     None when NAME names the triangle; its fields, each a
                     (keyword, Triangle attribute, value kind) triple)

A value kind is "obj" (an objexpr), "morph", "fexpr", "generators" (NAME*),
"nattrans_or_identity", or the declaration kind that a NAME refers to.
Triangle, fixed and cofixed blocks are all sextuples (Triangle): a fixed
block's NAME is its x vertex, a cofixed block's NAME its z vertex.  The
parser reads every field list through _Parser.read_fields; the resolver
looks up every reference through _lookup and builds every block through
_build_triangle; the writer writes every header through _decl and every
block through _write_triangle.  _decl reads each header value off the
object it writes and names it through _ref, the inverse of _lookup, so the
objects are the only record of the references.

Declaration order is irrelevant; references are resolved in a second pass,
one declaration kind at a time in the dependency order of _KINDS, which is
also the order in which the writer emits them.  The writer emits a canonical
form (sorted names, generator-order items, nonzero coefficients only) so
that serialize(parse(text)) is idempotent.  Text the writer could not give
back is an error at the repeat: a basis name twice in one coefficient
list, a block twice in one morph, a member twice in one subcategory.
"""

from __future__ import annotations

import hashlib
import re

from .adjunction import Adjunction
from .category import (FinLinCategory, Morphism, Subcategory, block_offsets,
                       hom_dim_expr, obj_text)
from .errors import InputError
from .field import make_field
from .functor import (LinearFunctor, NatTransform, compose_functors,
                      identity_functor)
from .linalg import Mat
from .mutation import ExactFunctorData, MutationData
from .recollement import ADJUNCTION_SLOTS, FUNCTOR_SLOTS, PARTS, Recollement
from .triangulated import Triangle, TriangulatedPresentation

FORMAT_VERSION = 1

# recollement key -> the declaration kind it refers to, in canonical order
REC_KEYS = {**dict.fromkeys(PARTS, "category"),
            **dict.fromkeys(FUNCTOR_SLOTS, "functor"),
            **dict.fromkeys(ADJUNCTION_SLOTS, "adjunction")}

HEADERS = {
    "subcategory": (("of", "parent", "category"), ("members", "members", "generators")),
    "functor": (("source", "source", "category"), ("target", "target", "category")),
    "nattrans": (("from", "from_f", "fexpr"), ("to", "to_f", "fexpr")),
    "adjunction": (("left", "left", "functor"), ("right", "right", "functor"),
                   ("unit", "unit", "nattrans"), ("counit", "counit", "nattrans")),
    "triangulated": (("base", "cat", "category"), ("shift", "shift", "functor"),
                     ("shift_inv", "shift_inv", "functor")),
    "exact": (("functor", "functor", "functor"), ("source_tri", "source_tri", "triangulated"),
              ("target_tri", "target_tri", "triangulated"),
              ("shift_iso", "shift_iso", "nattrans_or_identity")),
    "mutation": (("ambient", "tri", "triangulated"), ("z", "z", "subcategory"),
                 ("d", "d", "subcategory")),
}

BODY_ITEMS = {
    "functor": ("object", "map"),
    "nattrans": ("at",),
    "triangulated": ("triangle",),
    "mutation": ("fixed", "cofixed"),
}

TRIANGLE_BLOCKS = {
    "triangle": (None, (("x", "x", "obj"), ("y", "y", "obj"), ("z", "z", "obj"),
                        ("f", "f", "morph"), ("g", "g", "morph"), ("h", "h", "morph"))),
    "fixed": ("x", (("dx", "y", "obj"), ("m", "z", "obj"), ("alpha", "f", "morph"),
                    ("beta", "g", "morph"), ("gamma", "h", "morph"))),
    "cofixed": ("z", (("x", "x", "obj"), ("dx", "y", "obj"), ("f", "f", "morph"),
                      ("g", "g", "morph"), ("h", "h", "morph"))),
}


class Workspace:
    def __init__(self, field):
        self.field = field
        self.categories = {}
        self.subcategories = {}
        self.functors = {}
        self.nats = {}
        self.adjunctions = {}
        self.recollements = {}
        self.triangulated = {}
        self.exactdata = {}
        self.mutations = {}
        self.tri_refs, self.mutation_refs = {}, {}  # unread; perfbench/gen.py writes them
        self.digest = ""          # "sha256:" of the text `parse` read


class Diagnostic:
    def __init__(self, line, col, message):
        self.line, self.col, self.message = line, col, message

    def __str__(self):
        return "line %d, col %d: %s" % (self.line, self.col, self.message)


def _input_error(tok, message) -> InputError:
    return InputError([Diagnostic(tok.line, tok.col, message)])


# ---------------------------------------------------------------------------
# Tokenizer


class Token:
    """A token value and its index in the token list; its line and column
    are found only when a diagnostic reads them."""

    __slots__ = ("value", "index", "tokens")

    def __init__(self, value, index, tokens):
        self.value, self.index, self.tokens = value, index, tokens

    @property
    def line(self):
        return self.tokens.position(self.index)[0]

    @property
    def col(self):
        return self.tokens.position(self.index)[1]

    def __repr__(self):
        return "Token(%r, %d:%d)" % (self.value, self.line, self.col)


# Skip whitespace and comments, then take one identifier, punctuation mark or
# number, or one character that starts no token, or, at the end of the text,
# nothing: the eof token "".  A number starts with a digit (str.isdigit), an
# identifier with a letter (str.isalpha) or "_"; in a str pattern \d is
# str.isdecimal and \w is str.isalnum or "_", which differ from those only on
# characters outside ASCII that _token_pattern handles.
_TOKEN_FORM = (r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
               r"([^\W\d%(odd)s][\w.]*|->|[{}()+*]|-?[\d%(digits)s][\d%(digits)s/]*|.|\Z)")
_TOKEN = re.compile(_TOKEN_FORM % {"odd": "", "digits": ""})
_PUNCT = frozenset(("->", "{", "}", "(", ")", "+", "*"))


def _token_pattern(text):
    """_TOKEN, unless text holds a character that is alphanumeric but
    neither a letter nor a decimal digit, such as a superscript digit or a
    vulgar fraction: such a character starts a number when it is a digit
    (str.isdigit), and else starts no token."""
    if text.isascii():
        return _TOKEN
    odd = [c for c in set(text) if c.isalnum() and not c.isalpha() and not c.isdecimal()]
    if not odd:
        return _TOKEN
    return re.compile(_TOKEN_FORM % {
        "odd": "".join(map(re.escape, odd)),
        "digits": "".join(re.escape(c) for c in odd if c.isdigit())})


def _kind(value):
    """The kind of a token value the token pattern took."""
    if not value:
        return "eof"
    if value in _PUNCT:
        return "punct"
    if value[0].isalpha() or value[0] == "_":
        return "ident"
    if len(value) > 1 or value.isdigit():
        return "number"
    return "bad"


class _Tokens:
    """The tokens of a text, read by one scan: their values in order, up to
    and past the eof token "", and the kind of each distinct value."""

    __slots__ = ("text", "pattern", "values", "kinds", "starts")

    def __init__(self, text):
        self.text = text
        self.pattern = _token_pattern(text)
        self.values = self.pattern.findall(text)
        self.kinds = {value: _kind(value) for value in set(self.values)}
        self.starts = None
        bad = [value for value, kind in self.kinds.items() if kind == "bad"]
        if bad:
            first = min(map(self.values.index, bad))
            raise _input_error(Token(self.values[first], first, self),
                               "unexpected character %r" % self.values[first])

    def position(self, index):
        """(line, col) of token `index`, from one more scan of the text.  The
        eof token stands where a comment that ends the text begins, or else
        at the end of the text."""
        text = self.text
        if self.starts is None:
            last_line = text.rfind("\n") + 1
            self.starts = [m.start(1) if m.group(1)
                           else _comment_start(text, max(last_line, m.start()))
                           for m in self.pattern.finditer(text)]
        pos = self.starts[index]
        return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _comment_start(text, start):
    pos = text.find("#", start)
    return len(text) if pos < 0 else pos


class _Parser:
    """Token reader.  Every NAME value is kept as its Token, so that the
    resolver can report a bad reference at the place it was written; other
    tokens are only compared by value."""

    def __init__(self, tokens: _Tokens):
        self.tokens = tokens
        self.values = tokens.values
        self.kinds = tokens.kinds
        self.pos = 0

    def peek(self) -> Token:
        return Token(self.values[self.pos], self.pos, self.tokens)

    def next(self) -> Token:
        self.pos += 1
        return Token(self.values[self.pos - 1], self.pos - 1, self.tokens)

    def error(self, message, tok=None):
        raise _input_error(tok or self.peek(), message)

    def expect_ident(self, what="identifier") -> Token:
        pos = self.pos
        value = self.values[pos]
        if self.kinds[value] != "ident":
            self.error("expected %s, got %r" % (what, value or "end of file"))
        self.pos = pos + 1
        return Token(value, pos, self.tokens)

    def expect(self, value):
        """Read this word or punctuation mark."""
        if self.values[self.pos] != value:
            self.error("expected %r" % value)
        self.pos += 1

    def expect_number(self) -> Token:
        if self.kinds[self.values[self.pos]] != "number":
            self.error("expected a number")
        return self.next()

    def expect_int(self) -> int:
        tok = self.expect_number()
        try:
            return int(tok.value)
        except ValueError:
            self.error("expected an integer, got %r" % tok.value, tok)

    def at(self, value) -> bool:
        """Whether the next token is this word or punctuation mark."""
        return self.values[self.pos] == value

    def parse_names(self):
        """NAME* as a list of tokens."""
        out = []
        while self.kinds[self.values[self.pos]] == "ident":
            out.append(self.next())
        return out

    def parse_coeffs(self):
        """{ name number ... } as an ordered list of (name, number token, name
        token); a name that repeats an earlier one is an error."""
        self.expect("{")
        out, names = [], []
        while not self.at("}"):
            name = self.expect_ident("basis name")
            if name.value in names:
                self.error("duplicate coefficient of %r" % name.value, name)
            names.append(name.value)
            num = self.expect_number()
            out.append((name.value, num, name))
        self.expect("}")
        return out

    def parse_objexpr(self):
        """The generator tokens of an objexpr; [] for 0."""
        if self.at("0"):
            self.pos += 1
            return []
        names = [self.expect_ident("generator")]
        while self.at("+"):
            self.pos += 1
            names.append(self.expect_ident("generator"))
        return names

    def parse_morph(self):
        """{ (i j) { coeffs } ... } as list of ((i, j), coeff list, '(' token);
        a block that repeats an earlier one is an error."""
        self.expect("{")
        out, blocks = [], []
        while not self.at("}"):
            tok = self.peek()
            self.expect("(")
            i = self.expect_int()
            j = self.expect_int()
            self.expect(")")
            if (i, j) in blocks:
                self.error("duplicate block (%d,%d)" % (i, j), tok)
            blocks.append((i, j))
            out.append(((i, j), self.parse_coeffs(), tok))
        self.expect("}")
        return out

    def parse_fexpr(self):
        """The tokens of "id" NAME, NAME or NAME "*" NAME, without the "*"."""
        tok = self.expect_ident("functor expression")
        if tok.value == "id":
            return [tok, self.expect_ident("category name")]
        if self.at("*"):
            self.pos += 1
            return [tok, self.expect_ident("functor name")]
        return [tok]

    def read_fields(self, fields):
        """The values of fields given as (keyword, attribute, value kind)."""
        values = []
        for word, _, kind in fields:
            self.expect(word)
            if kind == "obj":
                values.append(self.parse_objexpr())
            elif kind == "morph":
                values.append(self.parse_morph())
            elif kind == "fexpr":
                values.append(self.parse_fexpr())
            elif kind == "generators":
                values.append(self.parse_names())
            else:
                values.append(self.expect_ident())
        return values


def parse(text: str) -> Workspace:
    """Parse and cross-resolve a workspace file; its `digest` is the sha256
    of exactly this text."""
    p = _Parser(_Tokens(text))
    p.expect("rclkit")
    p.expect("workspace")
    tok = p.peek()
    version = p.expect_int()
    if version != FORMAT_VERSION:
        p.error("unsupported format version %d" % version, tok)

    decls = []
    while not p.at(""):
        kw = p.expect_ident("declaration keyword")
        if kw.value == "field":
            decls.append(("field", kw, _parse_field(p)))
            continue
        if kw.value not in _KINDS:
            p.error("unknown declaration %r" % kw.value, kw)
        name = p.expect_ident("%s name" % kw.value)
        p.expect("{")
        if kw.value == "category":
            body = _parse_category(p)
        elif kw.value == "recollement":
            body = _parse_recollement(p, name)
        else:
            body = (p.read_fields(HEADERS[kw.value]), _parse_items(p, kw.value))
        p.expect("}")
        decls.append((kw.value, name, body))
    ws = _resolve(decls)
    ws.digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return ws


def _parse_field(p):
    p.expect("{")
    p.expect("kind")
    kind = p.expect_ident("field kind")
    if kind.value == "rationals":
        field = make_field("rationals")
    elif kind.value == "prime":
        tok = p.peek()
        characteristic = p.expect_int()
        try:
            field = make_field("prime", characteristic)
        except ValueError as exc:
            p.error(str(exc), tok)
    else:
        p.error("unknown field kind %r" % kind.value, kind)
    p.expect("}")
    return field


def _parse_category(p):
    """The items of a category body by kind.  An item whose keyword and
    head (the names before its coefficients) repeat an earlier one's is an
    error."""
    body = {"objects": [], "homs": [], "identities": [], "composes": []}
    seen = set()
    while not p.at("}"):
        item = p.expect_ident("category item")
        if item.value == "object":
            g = p.expect_ident("generator").value
            body["objects"].append(g)
            head = (g,)
        elif item.value == "hom":
            a = p.expect_ident("generator").value
            b = p.expect_ident("generator").value
            p.expect("{")
            names = []
            if p.at("basis"):
                p.pos += 1
                for tok in p.parse_names():
                    if tok.value in names:
                        p.error("duplicate basis name %r of Hom(%s,%s)" % (tok.value, a, b), tok)
                    names.append(tok.value)
            p.expect("}")
            body["homs"].append((a, b, names, item))
            head = (a, b)
        elif item.value == "identity":
            g = p.expect_ident("generator").value
            body["identities"].append((g, p.parse_coeffs(), item))
            head = (g,)
        elif item.value == "compose":
            p.expect("(")
            b1 = p.expect_ident().value
            c1 = p.expect_ident().value
            gname = p.expect_ident().value
            p.expect(")")
            p.expect("(")
            a2 = p.expect_ident().value
            b2 = p.expect_ident().value
            fname = p.expect_ident().value
            p.expect(")")
            coeffs = p.parse_coeffs()
            body["composes"].append((b1, c1, gname, a2, b2, fname, coeffs, item))
            head = (b1, c1, gname, a2, b2, fname)
        else:
            p.error("unknown category item %r" % item.value, item)
        key = (item.value,) + head
        if key in seen:
            p.error("duplicate category item %r" % " ".join(key), item)
        seen.add(key)
    return body


def _parse_recollement(p, name):
    """Recollement key -> reference token; every key of REC_KEYS is required."""
    refs = {}
    while not p.at("}"):
        key = p.expect_ident("recollement key")
        if key.value not in REC_KEYS:
            p.error("unknown recollement key %r" % key.value, key)
        if key.value in refs:
            p.error("duplicate recollement item %r" % key.value, key)
        refs[key.value] = p.expect_ident()
    missing = [k for k in REC_KEYS if k not in refs]
    if missing:
        p.error("recollement %s missing keys: %s" % (name.value, missing), name)
    return refs


def _parse_items(p, kind):
    """The body items of a HEADERS declaration, as (keyword token, head,
    value): a triangle block's head is its NAME token and its value the
    list of its field values; a map's head is its three tokens.  An item
    whose keyword and head repeat an earlier one's is an error."""
    items = []
    seen = set()
    while kind in BODY_ITEMS and not p.at("}"):
        item = p.expect_ident("%s item" % kind)
        if item.value not in BODY_ITEMS[kind]:
            p.error("unknown %s item %r" % (kind, item.value), item)
        if item.value in TRIANGLE_BLOCKS:
            head = p.expect_ident("%s name" % item.value)
            p.expect("{")
            value = p.read_fields(TRIANGLE_BLOCKS[item.value][1])
            p.expect("}")
        elif item.value == "map":
            p.expect("(")
            head = (p.expect_ident(), p.expect_ident(), p.expect_ident())
            p.expect(")")
            p.expect("->")
            value = p.parse_morph()
        else:  # object NAME -> objexpr, at NAME -> morph
            head = p.expect_ident("generator")
            p.expect("->")
            value = p.parse_objexpr() if item.value == "object" else p.parse_morph()
        if item.value == "map":
            key = (item.value, head[0].value, head[1].value, head[2].value)
        else:
            key = (item.value, head.value)
        if key in seen:
            p.error("duplicate %s item %r" % (kind, " ".join(key)), item)
        seen.add(key)
        items.append((item, head, value))
    return items


# ---------------------------------------------------------------------------
# Resolution


def _resolve(decls) -> Workspace:
    fields = [(tok, field) for kind, tok, field in decls if kind == "field"]
    diags = [Diagnostic(tok.line, tok.col, "duplicate field declaration")
             for tok, _ in fields[1:]]
    ws = Workspace(fields[-1][1] if fields else make_field("rationals"))
    for kind, (attr, build, _) in _KINDS.items():
        table = getattr(ws, attr)
        for decl_kind, tok, body in decls:
            if decl_kind != kind:
                continue
            if tok.value in table:
                diags.append(Diagnostic(tok.line, tok.col,
                                        "duplicate %s %r" % (kind, tok.value)))
                continue
            try:
                table[tok.value] = build(ws, tok, body)
            except InputError as exc:
                diags.extend(exc.diagnostics)
            except Exception as exc:  # presentation errors carry no position
                diags.append(Diagnostic(tok.line, tok.col,
                                        "%s %s: %s" % (kind, tok.value, exc)))
        if diags:
            raise InputError(diags)
    return ws


def _lookup(ws: Workspace, kind, value):
    """What a parsed value of the given value kind refers to."""
    if kind == "fexpr":
        if value[0].value == "id":
            return identity_functor(_lookup(ws, "category", value[1]))
        functors = [_lookup(ws, "functor", tok) for tok in value]
        return compose_functors(*functors) if len(functors) == 2 else functors[0]
    if kind == "nattrans_or_identity":
        if value.value == "identity":
            return None
        kind = "nattrans"
    table = getattr(ws, _KINDS[kind][0])
    if value.value not in table:
        raise _input_error(value, "unknown %s %r" % (kind, value.value))
    return table[value.value]


def _header(ws: Workspace, kind, values):
    """The header values of a declaration of the given kind, looked up."""
    return [_lookup(ws, vk, v) for (_, _, vk), v in zip(HEADERS[kind], values)]


def _build_category(ws: Workspace, tok, body):
    field = ws.field
    gens = body["objects"]
    gen_set = set(gens)
    hom_bases = {}
    for (a, b, names, item) in body["homs"]:
        if a not in gen_set or b not in gen_set:
            raise _input_error(item, "hom pair (%s,%s): unknown generator" % (a, b))
        hom_bases[(a, b)] = tuple(names)

    def basis_index(a, b):
        return {n: i for i, n in enumerate(hom_bases.get((a, b), ()))}

    def coeff_vec(a, b, coeffs):
        idx = basis_index(a, b)
        vec = [field.zero] * len(idx)
        for (bname, num, name_tok) in coeffs:
            if bname not in idx:
                raise _input_error(name_tok, "unknown basis element %r of Hom(%s,%s)"
                                   % (bname, a, b))
            vec[idx[bname]] = _number(field, num)
        return tuple(vec)

    identities = {}
    for (g, coeffs, item) in body["identities"]:
        if g not in gen_set:
            raise _input_error(item, "identity %s: unknown generator" % g)
        identities[g] = coeff_vec(g, g, coeffs)
    comp = {}
    for (b1, c1, gname, a2, b2, fname, coeffs, item) in body["composes"]:
        if b1 != b2:
            raise _input_error(item, "composition middle objects differ: %s vs %s"
                               % (b1, b2))
        a, b, c = a2, b1, c1
        dab = len(hom_bases.get((a, b), ()))
        dbc = len(hom_bases.get((b, c), ()))
        dac = len(hom_bases.get((a, c), ()))
        key = (a, b, c)
        if key not in comp:
            comp[key] = [[tuple([field.zero] * dac) for _ in range(dab)]
                         for _ in range(dbc)]
        pidx = basis_index(b, c).get(gname)
        qidx = basis_index(a, b).get(fname)
        if pidx is None or qidx is None:
            raise _input_error(item, "unknown basis element in composition")
        comp[key][pidx][qidx] = coeff_vec(a, c, coeffs)
    return FinLinCategory(field, gens, hom_bases, comp, identities, name=tok.value)


def _number(field, tok):
    """The field element a number token writes."""
    try:
        return field.parse(tok.value)
    except (ValueError, ZeroDivisionError):
        raise _input_error(tok, "invalid number %r" % tok.value) from None


def _objexpr(cat, names) -> tuple:
    """The object with the given generator tokens, each checked against cat."""
    gens = set(cat.generators)
    for tok in names:
        if tok.value not in gens:
            raise _input_error(tok, "unknown generator %r in %s" % (tok.value, cat.name))
    return tuple(tok.value for tok in names)


def _coords(cat, src: tuple, tgt: tuple, morph):
    """The flat coordinates (see block_offsets) of the morphism src -> tgt
    whose blocks `morph` writes."""
    field = cat.field
    offsets, size = block_offsets(cat, src, tgt)
    coords = [field.zero] * size
    for ((i, j), coeffs, tok) in morph:
        if not (0 <= i < len(tgt) and 0 <= j < len(src)):
            raise _input_error(tok, "block (%d,%d) outside morphism shape" % (i, j))
        a, b = src[j], tgt[i]
        names = {n: k for k, n in enumerate(cat.basis_names(a, b))}
        start = offsets[i][j]
        for (bname, num, name_tok) in coeffs:
            if bname not in names:
                raise _input_error(name_tok, "unknown basis element %r of Hom(%s,%s)"
                                   % (bname, a, b))
            coords[start + names[bname]] = _number(field, num)
    return coords


def _build_morphism(cat, src: tuple, tgt: tuple, morph) -> Morphism:
    return Morphism(cat, src, tgt, _coords(cat, src, tgt, morph))


def _build_triangle(cat, shift, block, name, values) -> Triangle:
    """A triangle, fixed or cofixed block (see TRIANGLE_BLOCKS) as a Triangle."""
    vertex, fields = TRIANGLE_BLOCKS[block.value]
    given = {attr: value for (_, attr, _), value in zip(fields, values)}
    label = name.value
    if vertex is not None:
        given[vertex] = [name]
        label = "%s.%s" % (block.value, name.value)
    x, y, z = (_objexpr(cat, given[attr]) for attr in ("x", "y", "z"))
    f, g, h = (_build_morphism(cat, src, tgt, given[attr]) for attr, src, tgt
               in (("f", x, y), ("g", y, z), ("h", z, shift.apply_obj(x))))
    return Triangle(x, y, z, f, g, h, name=label)


def _build_subcategory(ws: Workspace, tok, body):
    (of, members), _ = body
    cat = _lookup(ws, "category", of)
    for i, member in enumerate(members):
        if any(member.value == prev.value for prev in members[:i]):
            raise _input_error(member, "duplicate member %r" % member.value)
    return Subcategory(cat, _objexpr(cat, members))


def _build_functor(ws: Workspace, tok, body):
    values, items = body
    src, tgt = _header(ws, "functor", values)
    field = src.field
    object_map = {}
    for item, g, names in items:
        if item.value == "object":
            _objexpr(src, [g])  # the line must name a generator of the source
            object_map[g.value] = _objexpr(tgt, names)
    for g in src.generators:
        if g not in object_map:
            raise _input_error(values[0], "functor %s: no image for %s" % (tok.value, g))
    cols = {}
    for item, head, morph in items:
        if item.value != "map":
            continue
        a, b, bname = (t.value for t in head)
        names = {n: k for k, n in enumerate(src.basis_names(a, b))}
        if bname not in names:
            raise _input_error(head[2], "unknown basis element %r of Hom(%s,%s)"
                               % (bname, a, b))
        cols.setdefault((a, b), {})[names[bname]] = _coords(tgt, object_map[a],
                                                            object_map[b], morph)
    hom_maps = {}
    for a in src.generators:
        for b in src.generators:
            d = src.hom_dim(a, b)
            if d == 0:
                continue
            rows = hom_dim_expr(tgt, object_map[a], object_map[b])
            given = cols.get((a, b), {})
            hom_maps[(a, b)] = Mat.from_columns(
                field, rows, [given.get(q, (field.zero,) * rows) for q in range(d)])
    return LinearFunctor(src, tgt, object_map, hom_maps, name=tok.value)


def _build_nattrans(ws: Workspace, tok, body):
    values, items = body
    from_f, to_f = _header(ws, "nattrans", values)
    _objexpr(from_f.source, [g for _, g, _ in items])  # each "at" names a generator
    given = {g.value: morph for _, g, morph in items}
    comps = {}
    for g in from_f.source.generators:
        x = (g,)
        comps[g] = _build_morphism(from_f.target, from_f.apply_obj(x),
                                   to_f.apply_obj(x), given.get(g, []))
    return NatTransform(from_f, to_f, comps, name=tok.value)


def _build_adjunction(ws: Workspace, tok, body):
    """The unit must run id => right * left and the counit left * right =>
    id; composites are cached, so functors are compared by identity."""
    values, _ = body
    left, right, unit, counit = _header(ws, "adjunction", values)
    for word, ref, nat, want in (
            ("unit", values[2], unit, (identity_functor(left.source),
                                       compose_functors(right, left))),
            ("counit", values[3], counit, (compose_functors(left, right),
                                           identity_functor(right.source)))):
        if nat.from_f is not want[0] or nat.to_f is not want[1]:
            raise _input_error(ref, "adjunction %s: %s %s runs %s => %s, not %s => %s" % (
                tok.value, word, ref.value,
                *(_ref(ws, "fexpr", f) for f in (nat.from_f, nat.to_f) + want)))
    return Adjunction(left, right, unit, counit, name=tok.value)


def _build_recollement(ws: Workspace, tok, refs):
    return Recollement(**{key: _lookup(ws, kind, refs[key])
                          for key, kind in REC_KEYS.items()})


def _build_triangulated(ws: Workspace, tok, body):
    values, items = body
    cat, shift, shift_inv = _header(ws, "triangulated", values)
    triangles = [_build_triangle(cat, shift, *item) for item in items]
    return TriangulatedPresentation(cat, shift, shift_inv, triangles, name=tok.value)


def _build_exact(ws: Workspace, tok, body):
    values, _ = body
    return ExactFunctorData(*_header(ws, "exact", values), name=tok.value)


def _build_mutation(ws: Workspace, tok, body):
    values, items = body
    tri, z, d = _header(ws, "mutation", values)
    blocks = {kind: {} for kind in BODY_ITEMS["mutation"]}
    for block, name, fields in items:
        blocks[block.value][name.value] = _build_triangle(tri.cat, tri.shift,
                                                          block, name, fields)
    fixed, cofixed = blocks.values()
    return MutationData(tri, z, d, fixed, cofixed, name=tok.value)


# ---------------------------------------------------------------------------
# Canonical writer


def _fmt_coeffs(field, names, vec) -> str:
    parts = []
    for n, c in zip(names, vec):
        if not field.is_zero(c):
            parts.append("%s %s" % (n, field.fmt(c)))
    return "{ %s }" % " ".join(parts) if parts else "{ }"


def _fmt_morph(cat, mor: Morphism) -> str:
    field = cat.field
    offsets, _ = block_offsets(cat, mor.source, mor.target)
    parts = []
    for i, t in enumerate(mor.target):
        for j, s in enumerate(mor.source):
            vec = mor.coords[offsets[i][j]:offsets[i][j] + cat.hom_dim(s, t)]
            if any(not field.is_zero(c) for c in vec):
                parts.append("(%d %d) %s"
                             % (i, j, _fmt_coeffs(field, cat.basis_names(s, t), vec)))
    return "{ %s }" % " ".join(parts) if parts else "{ }"


def _ref(ws: Workspace, kind, obj) -> str:
    """The text of a value of the given value kind that _lookup resolves to
    obj: a declared object by its name in the table of its kind, found by
    identity; a composite functor as "outer * inner" of declared functors."""
    if kind == "generators":
        return " ".join(obj)
    if kind == "nattrans_or_identity":
        if obj is None:
            return "identity"
        kind = "nattrans"
    for name, value in getattr(ws, _KINDS["functor" if kind == "fexpr" else kind][0]).items():
        if value is obj:
            return name
    if kind == "fexpr":
        if obj.source is obj.target and obj is identity_functor(obj.source):
            return "id " + _ref(ws, "category", obj.source)
        for outer_name, outer in ws.functors.items():
            for inner_name, inner in ws.functors.items():
                if (outer.target is obj.target and inner.source is obj.source
                        and inner.target is outer.source
                        and compose_functors(outer, inner) is obj):
                    return "%s * %s" % (outer_name, inner_name)
    raise ValueError("serialize: %s %r is not registered in the workspace" % (kind, obj))


def _decl(ws: Workspace, kind, name, obj, body=()):
    """The lines of a HEADERS declaration of obj: each header field names
    the object's attribute through _ref."""
    fields = ["%s %s" % (word, _ref(ws, vk, getattr(obj, attr)))
              for word, attr, vk in HEADERS[kind]]
    if kind not in BODY_ITEMS:
        return ["%s %s { %s }" % (kind, name, " ".join(fields))]
    return ["%s %s {" % (kind, name)] + ["  " + f for f in fields] + list(body) + ["}", ""]


def _write_triangle(cat, block, name, t: Triangle):
    lines = ["  %s %s {" % (block, name)]
    for word, attr, kind in TRIANGLE_BLOCKS[block][1]:
        value = getattr(t, attr)
        lines.append("    %s %s" % (word, obj_text(value) if kind == "obj"
                                     else _fmt_morph(cat, value)))
    return lines + ["  }"]


def _write_category(ws: Workspace, kind, name, cat):
    field = cat.field
    gi = {g: i for i, g in enumerate(cat.generators)}
    out = ["%s %s {" % (kind, name)]
    for g in cat.generators:
        out.append("  object %s" % g)
    for (a, b) in sorted(cat.hom_bases, key=lambda k: (gi[k[0]], gi[k[1]])):
        out.append("  hom %s %s { basis %s }" % (a, b, " ".join(cat.hom_bases[(a, b)])))
    for g in cat.generators:
        out.append("  identity %s %s"
                   % (g, _fmt_coeffs(field, cat.basis_names(g, g), cat.identities[g])))
    comp_lines = []
    for (a, b, c), table in cat.comp.items():
        for p, row in enumerate(table):
            for q, vec in enumerate(row):
                if any(not field.is_zero(x) for x in vec):
                    comp_lines.append(
                        ((gi[a], gi[b], gi[c], p, q),
                         "  compose (%s %s %s) (%s %s %s) %s"
                         % (b, c, cat.basis_names(b, c)[p],
                            a, b, cat.basis_names(a, b)[q],
                            _fmt_coeffs(field, cat.basis_names(a, c), vec))))
    out.extend(line for _, line in sorted(comp_lines))
    return out + ["}", ""]


def _write_functor(ws: Workspace, kind, name, f):
    body = ["  object %s -> %s" % (g, obj_text(f.object_map[g]))
            for g in f.source.generators]
    gi = {g: i for i, g in enumerate(f.source.generators)}
    for (a, b) in sorted(f.hom_maps, key=lambda k: (gi[k[0]], gi[k[1]])):
        mat = f.hom_maps[(a, b)]
        for q, bname in enumerate(f.source.basis_names(a, b)):
            col = mat.col(q)
            if all(f.target.field.is_zero(x) for x in col):
                continue
            mor = Morphism(f.target, f.object_map[a], f.object_map[b], col)
            body.append("  map (%s %s %s) -> %s" % (a, b, bname, _fmt_morph(f.target, mor)))
    return _decl(ws, kind, name, f, body)


def _write_nattrans(ws: Workspace, kind, name, nt):
    body = ["  at %s -> %s" % (g, _fmt_morph(nt.from_f.target, nt.components[g]))
            for g in nt.from_f.source.generators if not nt.components[g].is_zero()]
    return _decl(ws, kind, name, nt, body)


def _write_recollement(ws: Workspace, kind, name, r):
    return (["%s %s {" % (kind, name)]
            + ["  %s %s" % (key, _ref(ws, vk, getattr(r, key))) for key, vk in REC_KEYS.items()]
            + ["}", ""])


def _write_triangulated(ws: Workspace, kind, name, tri):
    block, = BODY_ITEMS[kind]
    body = [line for t in tri.triangles
            for line in _write_triangle(tri.cat, block, t.name, t)]
    return _decl(ws, kind, name, tri, body)


def _write_mutation(ws: Workspace, kind, name, m):
    cat = m.tri.cat
    body = []
    for block, triangles in zip(BODY_ITEMS[kind], (m.fixed, m.cofixed)):
        for g in sorted(triangles, key=cat.generators.index):
            body += _write_triangle(cat, block, g, triangles[g])
    return _decl(ws, kind, name, m, body)


def serialize(ws: Workspace) -> str:
    """Canonical text form; stable under parse-serialize round trips."""
    field = ws.field
    kind = "rationals" if field.characteristic == 0 else "prime %d" % field.characteristic
    out = ["rclkit workspace %d" % FORMAT_VERSION, "", "field { kind %s }" % kind, ""]
    for decl_kind, (attr, _, write) in _KINDS.items():
        table = getattr(ws, attr)
        for name in sorted(table):
            out += write(ws, decl_kind, name, table[name])
        if out[-1]:  # one-line declarations end their group with a blank line
            out.append("")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"


# kind -> (Workspace table, builder, writer(ws, kind, name, obj)), in dependency order
_KINDS = {
    "category": ("categories", _build_category, _write_category),
    "subcategory": ("subcategories", _build_subcategory, _decl),
    "functor": ("functors", _build_functor, _write_functor),
    "nattrans": ("nats", _build_nattrans, _write_nattrans),
    "adjunction": ("adjunctions", _build_adjunction, _decl),
    "recollement": ("recollements", _build_recollement, _write_recollement),
    "triangulated": ("triangulated", _build_triangulated, _write_triangulated),
    "exact": ("exactdata", _build_exact, _decl),
    "mutation": ("mutations", _build_mutation, _write_mutation),
}
