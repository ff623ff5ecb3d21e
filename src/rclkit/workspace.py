"""The declarative workspace format: parser, resolver and canonical writer.

Grammar (tokens: identifiers may contain dots, numbers are integers or
fractions like 3/4, comments start with '#'):

    file        := "rclkit" "workspace" INT decl*
    decl        := field | category | subcategory | functor | nattrans
                 | adjunction | recollement | triangulated | exact | mutation
    field       := "field" "{" "kind" ("rationals" | "prime" INT) "}"
    category    := "category" NAME "{" ("assume_local")? item* "}"
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

Declaration order is irrelevant; references are resolved in a second pass.
The writer emits a canonical form (sorted names, generator-order items,
nonzero coefficients only) so that serialize(parse(text)) is idempotent.
"""

from __future__ import annotations

import hashlib

from .adjunction import make_adjunction
from .category import (FinLinCategory, Morphism, ObjectExpr, Subcategory,
                       hom_dim_expr, unflatten)
from .errors import InputError
from .field import make_field
from .functor import (LinearFunctor, NatTransform, compose_functors,
                      identity_functor)
from .linalg import Mat
from .mutation import ExactFunctorData, MutationData
from .recollement import ADJUNCTION_SLOTS, FUNCTOR_SLOTS, PARTS, Recollement
from .triangulated import Triangle, TriangulatedPresentation

FORMAT_VERSION = 1

REC_KEYS = PARTS + tuple(FUNCTOR_SLOTS) + tuple(ADJUNCTION_SLOTS)


class Workspace:
    def __init__(self, field):
        self.field = field
        self.categories = {}
        self.subcategories = {}
        self.functors = {}
        self.nats = {}
        self.nat_exprs = {}       # name -> (from_expr, to_expr) as strings
        self.adjunctions = {}
        self.adj_refs = {}        # name -> (left, right, unit, counit) names
        self.recollements = {}
        self.rec_refs = {}        # name -> dict of slot name -> ref name
        self.triangulated = {}
        self.tri_refs = {}        # name -> (base, shift, shift_inv) names
        self.exactdata = {}
        self.exact_refs = {}      # name -> (functor, source_tri, target_tri, shift_iso)
        self.mutations = {}
        self.mutation_refs = {}   # name -> (ambient, z, d) names

    def digest(self) -> str:
        return "sha256:" + hashlib.sha256(serialize(self).encode("utf-8")).hexdigest()


class Diagnostic:
    def __init__(self, line, col, message):
        self.line, self.col, self.message = line, col, message

    def __str__(self):
        return "line %d, col %d: %s" % (self.line, self.col, self.message)


# ---------------------------------------------------------------------------
# Tokenizer

_PUNCT = ("->", "{", "}", "(", ")", "+", "*")


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind, self.value, self.line, self.col = kind, value, line, col

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.value, self.line, self.col)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(Token("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "{}()+*":
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < n and (text[i].isdigit() or text[i] == "/"):
                i += 1
            tokens.append(Token("number", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] in "._"):
                i += 1
            tokens.append(Token("ident", text[start:i], line, col))
            col += i - start
            continue
        raise InputError([Diagnostic(line, col, "unexpected character %r" % ch)])
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise InputError([Diagnostic(tok.line, tok.col, message)])

    def expect_ident(self, what="identifier") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            self.error("expected %s, got %r" % (what, tok.value or "end of file"), tok)
        return tok

    def expect_word(self, word):
        tok = self.next()
        if tok.kind != "ident" or tok.value != word:
            self.error("expected %r" % word, tok)
        return tok

    def expect_punct(self, value):
        tok = self.next()
        if tok.kind != "punct" or tok.value != value:
            self.error("expected %r" % value, tok)
        return tok

    def expect_number(self) -> Token:
        tok = self.next()
        if tok.kind != "number":
            self.error("expected a number", tok)
        return tok

    def expect_int(self) -> int:
        tok = self.expect_number()
        try:
            return int(tok.value)
        except ValueError:
            self.error("expected an integer, got %r" % tok.value, tok)

    def at_word(self, word) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == word

    def parse_coeffs(self):
        """{ name number ... } as an ordered list of (name, number-string)."""
        self.expect_punct("{")
        out = []
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            name = self.expect_ident("basis name")
            num = self.expect_number()
            out.append((name.value, num.value, name))
        self.expect_punct("}")
        return out

    def parse_objexpr(self):
        tok = self.peek()
        if tok.kind == "number" and tok.value == "0":
            self.next()
            return []
        names = [self.expect_ident("generator").value]
        while self.peek().kind == "punct" and self.peek().value == "+":
            self.next()
            names.append(self.expect_ident("generator").value)
        return names

    def parse_morph(self):
        """{ (i j) { coeffs } ... } as list of ((i, j), coeff list)."""
        self.expect_punct("{")
        out = []
        while not (self.peek().kind == "punct" and self.peek().value == "}"):
            self.expect_punct("(")
            i = self.expect_int()
            j = self.expect_int()
            self.expect_punct(")")
            out.append(((i, j), self.parse_coeffs()))
        self.expect_punct("}")
        return out

    def parse_fexpr(self):
        tok = self.expect_ident("functor expression")
        if tok.value == "id":
            cat = self.expect_ident("category name")
            return ("id", cat.value, tok)
        if self.peek().kind == "punct" and self.peek().value == "*":
            self.next()
            inner = self.expect_ident("functor name")
            return ("comp", tok.value, inner.value, tok)
        return ("plain", tok.value, tok)


def parse(text: str) -> Workspace:
    """Parse and cross-resolve a workspace file."""
    p = _Parser(_tokenize(text))
    p.expect_word("rclkit")
    p.expect_word("workspace")
    version = p.expect_int()
    if version != FORMAT_VERSION:
        p.error("unsupported format version %d" % version)

    decls = []
    while p.peek().kind != "eof":
        kw = p.expect_ident("declaration keyword")
        if kw.value == "field":
            p.expect_punct("{")
            p.expect_word("kind")
            kind = p.expect_ident("field kind")
            if kind.value == "rationals":
                decls.append(("field", None, {"kind": "rationals"}, kw))
            elif kind.value == "prime":
                pnum = p.expect_int()
                decls.append(("field", None, {"kind": "prime", "p": pnum}, kw))
            else:
                p.error("unknown field kind %r" % kind.value, kind)
            p.expect_punct("}")
        elif kw.value == "category":
            name = p.expect_ident("category name")
            p.expect_punct("{")
            body = {"objects": [], "homs": [], "identities": [], "composes": [],
                    "assume_local": False}
            while not (p.peek().kind == "punct" and p.peek().value == "}"):
                item = p.expect_ident("category item")
                if item.value == "assume_local":
                    body["assume_local"] = True
                elif item.value == "object":
                    body["objects"].append(p.expect_ident("generator").value)
                elif item.value == "hom":
                    a = p.expect_ident("generator").value
                    b = p.expect_ident("generator").value
                    p.expect_punct("{")
                    names = []
                    if p.at_word("basis"):
                        p.next()
                        while p.peek().kind == "ident":
                            names.append(p.next().value)
                    p.expect_punct("}")
                    body["homs"].append((a, b, names, item))
                elif item.value == "identity":
                    g = p.expect_ident("generator").value
                    body["identities"].append((g, p.parse_coeffs(), item))
                elif item.value == "compose":
                    p.expect_punct("(")
                    b1 = p.expect_ident().value
                    c1 = p.expect_ident().value
                    gname = p.expect_ident().value
                    p.expect_punct(")")
                    p.expect_punct("(")
                    a2 = p.expect_ident().value
                    b2 = p.expect_ident().value
                    fname = p.expect_ident().value
                    p.expect_punct(")")
                    coeffs = p.parse_coeffs()
                    body["composes"].append((b1, c1, gname, a2, b2, fname, coeffs, item))
                else:
                    p.error("unknown category item %r" % item.value, item)
            p.expect_punct("}")
            decls.append(("category", name.value, body, name))
        elif kw.value == "subcategory":
            name = p.expect_ident("subcategory name")
            p.expect_punct("{")
            p.expect_word("of")
            cat = p.expect_ident("category name")
            p.expect_word("members")
            members = []
            while p.peek().kind == "ident":
                members.append(p.next().value)
            p.expect_punct("}")
            decls.append(("subcategory", name.value,
                          {"of": cat.value, "members": members, "pos": cat}, name))
        elif kw.value == "functor":
            name = p.expect_ident("functor name")
            p.expect_punct("{")
            p.expect_word("source")
            src = p.expect_ident("category name")
            p.expect_word("target")
            tgt = p.expect_ident("category name")
            objects, maps = [], []
            while not (p.peek().kind == "punct" and p.peek().value == "}"):
                item = p.expect_ident("functor item")
                if item.value == "object":
                    g = p.expect_ident("generator").value
                    p.expect_punct("->")
                    objects.append((g, p.parse_objexpr(), item))
                elif item.value == "map":
                    p.expect_punct("(")
                    a = p.expect_ident().value
                    b = p.expect_ident().value
                    bname = p.expect_ident().value
                    p.expect_punct(")")
                    p.expect_punct("->")
                    maps.append((a, b, bname, p.parse_morph(), item))
                else:
                    p.error("unknown functor item %r" % item.value, item)
            p.expect_punct("}")
            decls.append(("functor", name.value,
                          {"source": src.value, "target": tgt.value,
                           "objects": objects, "maps": maps, "pos": src}, name))
        elif kw.value == "nattrans":
            name = p.expect_ident("nattrans name")
            p.expect_punct("{")
            p.expect_word("from")
            fe = p.parse_fexpr()
            p.expect_word("to")
            te = p.parse_fexpr()
            comps = []
            while not (p.peek().kind == "punct" and p.peek().value == "}"):
                p.expect_word("at")
                g = p.expect_ident("generator").value
                p.expect_punct("->")
                comps.append((g, p.parse_morph()))
            p.expect_punct("}")
            decls.append(("nattrans", name.value,
                          {"from": fe, "to": te, "components": comps}, name))
        elif kw.value == "adjunction":
            name = p.expect_ident("adjunction name")
            p.expect_punct("{")
            p.expect_word("left")
            left = p.expect_ident().value
            p.expect_word("right")
            right = p.expect_ident().value
            p.expect_word("unit")
            unit = p.expect_ident().value
            p.expect_word("counit")
            counit = p.expect_ident().value
            p.expect_punct("}")
            decls.append(("adjunction", name.value,
                          {"left": left, "right": right, "unit": unit,
                           "counit": counit}, name))
        elif kw.value == "recollement":
            name = p.expect_ident("recollement name")
            p.expect_punct("{")
            refs = {}
            while not (p.peek().kind == "punct" and p.peek().value == "}"):
                key = p.expect_ident("recollement key")
                if key.value not in REC_KEYS:
                    p.error("unknown recollement key %r" % key.value, key)
                refs[key.value] = p.expect_ident().value
            p.expect_punct("}")
            missing = [k for k in REC_KEYS if k not in refs]
            if missing:
                p.error("recollement %s missing keys: %s" % (name.value, missing), name)
            decls.append(("recollement", name.value, refs, name))
        elif kw.value == "triangulated":
            name = p.expect_ident("triangulated name")
            p.expect_punct("{")
            p.expect_word("base")
            base = p.expect_ident().value
            p.expect_word("shift")
            shift = p.expect_ident().value
            p.expect_word("shift_inv")
            shift_inv = p.expect_ident().value
            triangles = []
            while not (p.peek().kind == "punct" and p.peek().value == "}"):
                p.expect_word("triangle")
                tname = p.expect_ident("triangle name").value
                p.expect_punct("{")
                p.expect_word("x")
                x = p.parse_objexpr()
                p.expect_word("y")
                y = p.parse_objexpr()
                p.expect_word("z")
                z = p.parse_objexpr()
                p.expect_word("f")
                f = p.parse_morph()
                p.expect_word("g")
                g = p.parse_morph()
                p.expect_word("h")
                h = p.parse_morph()
                p.expect_punct("}")
                triangles.append((tname, x, y, z, f, g, h))
            p.expect_punct("}")
            decls.append(("triangulated", name.value,
                          {"base": base, "shift": shift, "shift_inv": shift_inv,
                           "triangles": triangles, "pos": name}, name))
        elif kw.value == "exact":
            name = p.expect_ident("exact-data name")
            p.expect_punct("{")
            p.expect_word("functor")
            fn = p.expect_ident().value
            p.expect_word("source_tri")
            st = p.expect_ident().value
            p.expect_word("target_tri")
            tt = p.expect_ident().value
            p.expect_word("shift_iso")
            si = p.expect_ident().value
            p.expect_punct("}")
            decls.append(("exact", name.value,
                          {"functor": fn, "source_tri": st, "target_tri": tt,
                           "shift_iso": si}, name))
        elif kw.value == "mutation":
            name = p.expect_ident("mutation name")
            p.expect_punct("{")
            p.expect_word("ambient")
            ambient = p.expect_ident().value
            p.expect_word("z")
            z = p.expect_ident().value
            p.expect_word("d")
            d = p.expect_ident().value
            fixed, cofixed = [], []
            while not (p.peek().kind == "punct" and p.peek().value == "}"):
                which = p.expect_ident("fixed or cofixed")
                if which.value == "fixed":
                    g = p.expect_ident("generator").value
                    p.expect_punct("{")
                    p.expect_word("dx")
                    dx = p.parse_objexpr()
                    p.expect_word("m")
                    mm = p.parse_objexpr()
                    p.expect_word("alpha")
                    alpha = p.parse_morph()
                    p.expect_word("beta")
                    beta = p.parse_morph()
                    p.expect_word("gamma")
                    gamma = p.parse_morph()
                    p.expect_punct("}")
                    fixed.append((g, dx, mm, alpha, beta, gamma))
                elif which.value == "cofixed":
                    g = p.expect_ident("generator").value
                    p.expect_punct("{")
                    p.expect_word("x")
                    x = p.parse_objexpr()
                    p.expect_word("dx")
                    dx = p.parse_objexpr()
                    p.expect_word("f")
                    f = p.parse_morph()
                    p.expect_word("g")
                    gm = p.parse_morph()
                    p.expect_word("h")
                    h = p.parse_morph()
                    p.expect_punct("}")
                    cofixed.append((g, x, dx, f, gm, h))
                else:
                    p.error("expected fixed or cofixed", which)
            p.expect_punct("}")
            decls.append(("mutation", name.value,
                          {"ambient": ambient, "z": z, "d": d,
                           "fixed": fixed, "cofixed": cofixed}, name))
        else:
            p.error("unknown declaration %r" % kw.value, kw)

    return _resolve(decls)


# ---------------------------------------------------------------------------
# Resolution


def _resolve(decls) -> Workspace:
    diags = []
    field = None
    for kind, name, body, tok in decls:
        if kind == "field":
            if field is not None:
                diags.append(Diagnostic(tok.line, tok.col, "duplicate field declaration"))
            field = make_field("rationals") if body["kind"] == "rationals" \
                else make_field("prime", body["p"])
    if field is None:
        field = make_field("rationals")
    ws = Workspace(field)

    def dup(table, name, tok, what):
        if name in table:
            diags.append(Diagnostic(tok.line, tok.col, "duplicate %s %r" % (what, name)))
            return True
        return False

    def fail(tok, msg):
        diags.append(Diagnostic(tok.line, tok.col, msg))

    def bail():
        if diags:
            raise InputError(diags)

    # Categories first.
    for kind, name, body, tok in decls:
        if kind != "category":
            continue
        if dup(ws.categories, name, tok, "category"):
            continue
        try:
            ws.categories[name] = _build_category(field, name, body)
        except InputError as exc:
            diags.extend(exc.diagnostics)
        except Exception as exc:  # presentation errors carry no position
            fail(tok, "category %s: %s" % (name, exc))
    bail()

    for kind, name, body, tok in decls:
        if kind != "subcategory":
            continue
        if dup(ws.subcategories, name, tok, "subcategory"):
            continue
        cat = ws.categories.get(body["of"])
        if cat is None:
            fail(body["pos"], "unknown category %r" % body["of"])
            continue
        try:
            ws.subcategories[name] = Subcategory(cat, body["members"])
        except Exception as exc:
            fail(tok, "subcategory %s: %s" % (name, exc))
    bail()

    for kind, name, body, tok in decls:
        if kind != "functor":
            continue
        if dup(ws.functors, name, tok, "functor"):
            continue
        src = ws.categories.get(body["source"])
        tgt = ws.categories.get(body["target"])
        if src is None or tgt is None:
            fail(body["pos"], "unknown category %r"
                 % (body["source"] if src is None else body["target"]))
            continue
        try:
            ws.functors[name] = _build_functor(name, src, tgt, body)
        except InputError as exc:
            diags.extend(exc.diagnostics)
        except Exception as exc:
            fail(tok, "functor %s: %s" % (name, exc))
    bail()

    for kind, name, body, tok in decls:
        if kind != "nattrans":
            continue
        if dup(ws.nats, name, tok, "nattrans"):
            continue
        try:
            from_f = _resolve_fexpr(ws, body["from"])
            to_f = _resolve_fexpr(ws, body["to"])
            comps = {}
            for g, morph in body["components"]:
                comps[g] = _build_morphism(from_f.target, field,
                                           from_f.apply_obj(ObjectExpr((g,))),
                                           to_f.apply_obj(ObjectExpr((g,))), morph)
            for g in from_f.source.generators:
                if g not in comps:
                    comps[g] = Morphism.zero(
                        from_f.target, from_f.apply_obj(ObjectExpr((g,))),
                        to_f.apply_obj(ObjectExpr((g,))))
            ws.nats[name] = NatTransform(from_f, to_f, comps, name=name)
            ws.nat_exprs[name] = (_fexpr_str(body["from"]), _fexpr_str(body["to"]))
        except InputError as exc:
            diags.extend(exc.diagnostics)
        except Exception as exc:
            fail(tok, "nattrans %s: %s" % (name, exc))
    bail()

    for kind, name, body, tok in decls:
        if kind != "adjunction":
            continue
        if dup(ws.adjunctions, name, tok, "adjunction"):
            continue
        try:
            left = ws.functors[body["left"]]
            right = ws.functors[body["right"]]
            unit = ws.nats[body["unit"]]
            counit = ws.nats[body["counit"]]
        except KeyError as exc:
            fail(tok, "adjunction %s: unknown reference %s" % (name, exc))
            continue
        try:
            ws.adjunctions[name] = make_adjunction(
                left, right, dict(unit.components), dict(counit.components),
                name=name)
            ws.adj_refs[name] = (body["left"], body["right"], body["unit"],
                                 body["counit"])
        except Exception as exc:
            fail(tok, "adjunction %s: %s" % (name, exc))
    bail()

    for kind, name, body, tok in decls:
        if kind != "recollement":
            continue
        if dup(ws.recollements, name, tok, "recollement"):
            continue
        try:
            refs = {k: table[body[k]]
                    for keys, table in ((PARTS, ws.categories),
                                        (FUNCTOR_SLOTS, ws.functors),
                                        (ADJUNCTION_SLOTS, ws.adjunctions))
                    for k in keys}
        except KeyError as exc:
            fail(tok, "recollement %s: unknown reference %s" % (name, exc))
            continue
        try:
            ws.recollements[name] = Recollement(**refs)
            ws.rec_refs[name] = dict(body)
        except Exception as exc:
            fail(tok, "recollement %s: %s" % (name, exc))
    bail()

    for kind, name, body, tok in decls:
        if kind != "triangulated":
            continue
        if dup(ws.triangulated, name, tok, "triangulated"):
            continue
        cat = ws.categories.get(body["base"])
        shift = ws.functors.get(body["shift"])
        shift_inv = ws.functors.get(body["shift_inv"])
        if cat is None or shift is None or shift_inv is None:
            fail(tok, "triangulated %s: unknown reference" % name)
            continue
        try:
            triangles = []
            for (tname, x, y, z, f, g, h) in body["triangles"]:
                xo, yo, zo = (_objexpr(cat, x), _objexpr(cat, y), _objexpr(cat, z))
                txo = shift.apply_obj(xo)
                triangles.append(Triangle(
                    xo, yo, zo,
                    _build_morphism(cat, field, xo, yo, f),
                    _build_morphism(cat, field, yo, zo, g),
                    _build_morphism(cat, field, zo, txo, h),
                    name=tname))
            ws.triangulated[name] = TriangulatedPresentation(
                cat, shift, shift_inv, triangles, name=name)
            ws.tri_refs[name] = (body["base"], body["shift"], body["shift_inv"])
        except Exception as exc:
            fail(tok, "triangulated %s: %s" % (name, exc))
    bail()

    for kind, name, body, tok in decls:
        if kind != "exact":
            continue
        if dup(ws.exactdata, name, tok, "exact"):
            continue
        functor = ws.functors.get(body["functor"])
        st = ws.triangulated.get(body["source_tri"])
        tt = ws.triangulated.get(body["target_tri"])
        if functor is None or st is None or tt is None:
            fail(tok, "exact %s: unknown reference" % name)
            continue
        shift_iso = None
        if body["shift_iso"] != "identity":
            shift_iso = ws.nats.get(body["shift_iso"])
            if shift_iso is None:
                fail(tok, "exact %s: unknown nattrans %r" % (name, body["shift_iso"]))
                continue
        ws.exactdata[name] = ExactFunctorData(functor, st, tt, shift_iso, name=name)
        ws.exact_refs[name] = (body["functor"], body["source_tri"],
                               body["target_tri"], body["shift_iso"])
    bail()

    for kind, name, body, tok in decls:
        if kind != "mutation":
            continue
        if dup(ws.mutations, name, tok, "mutation"):
            continue
        tri = ws.triangulated.get(body["ambient"])
        z = ws.subcategories.get(body["z"])
        d = ws.subcategories.get(body["d"])
        if tri is None or z is None or d is None:
            fail(tok, "mutation %s: unknown reference" % name)
            continue
        try:
            cat = tri.cat
            fixed = {}
            for (g, dx, mm, alpha, beta, gamma) in body["fixed"]:
                xo = ObjectExpr((g,))
                dxo, mo = _objexpr(cat, dx), _objexpr(cat, mm)
                txo = tri.shift.apply_obj(xo)
                fixed[g] = Triangle(
                    xo, dxo, mo,
                    _build_morphism(cat, field, xo, dxo, alpha),
                    _build_morphism(cat, field, dxo, mo, beta),
                    _build_morphism(cat, field, mo, txo, gamma),
                    name="fixed.%s" % g)
            cofixed = {}
            for (g, x, dx, f, gm, h) in body["cofixed"]:
                xo, dxo = _objexpr(cat, x), _objexpr(cat, dx)
                yo = ObjectExpr((g,))
                txo = tri.shift.apply_obj(xo)
                cofixed[g] = Triangle(
                    xo, dxo, yo,
                    _build_morphism(cat, field, xo, dxo, f),
                    _build_morphism(cat, field, dxo, yo, gm),
                    _build_morphism(cat, field, yo, txo, h),
                    name="cofixed.%s" % g)
            ws.mutations[name] = MutationData(tri, z, d, fixed, cofixed, name=name)
            ws.mutation_refs[name] = (body["ambient"], body["z"], body["d"])
        except Exception as exc:
            fail(tok, "mutation %s: %s" % (name, exc))
    bail()
    return ws


def _build_category(field, name, body):
    gens = body["objects"]
    gen_set = set(gens)
    hom_bases = {}
    for (a, b, names, tok) in body["homs"]:
        if a not in gen_set or b not in gen_set:
            raise InputError([Diagnostic(tok.line, tok.col,
                                         "hom pair (%s,%s): unknown generator" % (a, b))])
        hom_bases[(a, b)] = tuple(names)

    def basis_index(a, b):
        return {n: i for i, n in enumerate(hom_bases.get((a, b), ()))}

    def coeff_vec(a, b, coeffs):
        idx = basis_index(a, b)
        vec = [field.zero] * len(idx)
        for (bname, num, tok) in coeffs:
            if bname not in idx:
                raise InputError([Diagnostic(tok.line, tok.col,
                                             "unknown basis element %r of Hom(%s,%s)"
                                             % (bname, a, b))])
            vec[idx[bname]] = field.parse(num)
        return tuple(vec)

    identities = {}
    for (g, coeffs, tok) in body["identities"]:
        identities[g] = coeff_vec(g, g, coeffs)
    comp = {}
    for (b1, c1, gname, a2, b2, fname, coeffs, tok) in body["composes"]:
        if b1 != b2:
            raise InputError([Diagnostic(tok.line, tok.col,
                                         "composition middle objects differ: %s vs %s"
                                         % (b1, b2))])
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
            raise InputError([Diagnostic(tok.line, tok.col,
                                         "unknown basis element in composition")])
        comp[key][pidx][qidx] = coeff_vec(a, c, coeffs)
    return FinLinCategory(field, gens, hom_bases, comp, identities,
                          name=name, assume_local=body["assume_local"])


def _objexpr(cat, names) -> ObjectExpr:
    for n in names:
        if n not in set(cat.generators):
            raise InputError([Diagnostic(0, 0, "unknown generator %r in %s"
                                         % (n, cat.name))])
    return ObjectExpr(tuple(names))


def _build_morphism(cat, field, src: ObjectExpr, tgt: ObjectExpr, morph) -> Morphism:
    blocks = [[list((field.zero,) * cat.hom_dim(s, t)) for s in src.summands]
              for t in tgt.summands]
    for ((i, j), coeffs) in morph:
        if i >= len(tgt.summands) or j >= len(src.summands):
            raise InputError([Diagnostic(0, 0,
                                         "block (%d,%d) outside morphism shape" % (i, j))])
        a, b = src.summands[j], tgt.summands[i]
        names = {n: k for k, n in enumerate(cat.basis_names(a, b))}
        for (bname, num, tok) in coeffs:
            if bname not in names:
                raise InputError([Diagnostic(tok.line, tok.col,
                                             "unknown basis element %r of Hom(%s,%s)"
                                             % (bname, a, b))])
            blocks[i][j][names[bname]] = field.parse(num)
    return Morphism(cat, src, tgt, [[tuple(v) for v in row] for row in blocks])


def _build_functor(name, src, tgt, body):
    field = src.field
    object_map = {}
    for (g, names, tok) in body["objects"]:
        object_map[g] = _objexpr(tgt, names)
    for g in src.generators:
        if g not in object_map:
            raise InputError([Diagnostic(body["pos"].line, body["pos"].col,
                                         "functor %s: no image for %s" % (name, g))])
    cols = {}
    for (a, b, bname, morph, tok) in body["maps"]:
        names = {n: k for k, n in enumerate(src.basis_names(a, b))}
        if bname not in names:
            raise InputError([Diagnostic(tok.line, tok.col,
                                         "unknown basis element %r of Hom(%s,%s)"
                                         % (bname, a, b))])
        mor = _build_morphism(tgt, field, object_map[a], object_map[b], morph)
        cols.setdefault((a, b), {})[names[bname]] = mor.flatten()
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
    return LinearFunctor(src, tgt, object_map, hom_maps, name=name)


def _resolve_fexpr(ws: Workspace, fe) -> LinearFunctor:
    if fe[0] == "id":
        cat = ws.categories.get(fe[1])
        if cat is None:
            raise InputError([Diagnostic(fe[2].line, fe[2].col,
                                         "unknown category %r" % fe[1])])
        return identity_functor(cat)
    if fe[0] == "plain":
        f = ws.functors.get(fe[1])
        if f is None:
            raise InputError([Diagnostic(fe[2].line, fe[2].col,
                                         "unknown functor %r" % fe[1])])
        return f
    outer = ws.functors.get(fe[1])
    inner = ws.functors.get(fe[2])
    if outer is None or inner is None:
        raise InputError([Diagnostic(fe[3].line, fe[3].col,
                                     "unknown functor in composition")])
    return compose_functors(outer, inner)


def _fexpr_str(fe) -> str:
    if fe[0] == "id":
        return "id %s" % fe[1]
    if fe[0] == "plain":
        return fe[1]
    return "%s * %s" % (fe[1], fe[2])


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
    parts = []
    for i, t in enumerate(mor.target.summands):
        for j, s in enumerate(mor.source.summands):
            vec = mor.blocks[i][j]
            if any(not field.is_zero(c) for c in vec):
                parts.append("(%d %d) %s"
                             % (i, j, _fmt_coeffs(field, cat.basis_names(s, t), vec)))
    return "{ %s }" % " ".join(parts) if parts else "{ }"


def _fmt_objexpr(obj: ObjectExpr) -> str:
    return "+".join(obj.summands) if obj.summands else "0"


def serialize(ws: Workspace) -> str:
    """Canonical text form; stable under parse-serialize round trips."""
    field = ws.field
    out = ["rclkit workspace %d" % FORMAT_VERSION, ""]
    if field.characteristic == 0:
        out.append("field { kind rationals }")
    else:
        out.append("field { kind prime %d }" % field.characteristic)
    out.append("")

    for name in sorted(ws.categories):
        cat = ws.categories[name]
        gi = {g: i for i, g in enumerate(cat.generators)}
        out.append("category %s {" % name)
        if cat.assume_local:
            out.append("  assume_local")
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
        for _, line in sorted(comp_lines):
            out.append(line)
        out.append("}")
        out.append("")

    for name in sorted(ws.subcategories):
        sub = ws.subcategories[name]
        cat_name = next(n for n, c in ws.categories.items() if c is sub.parent)
        out.append("subcategory %s { of %s members %s }"
                   % (name, cat_name, " ".join(sub.members)))
    if ws.subcategories:
        out.append("")

    for name in sorted(ws.functors):
        f = ws.functors[name]
        src_name = next(n for n, c in ws.categories.items() if c is f.source)
        tgt_name = next(n for n, c in ws.categories.items() if c is f.target)
        out.append("functor %s {" % name)
        out.append("  source %s" % src_name)
        out.append("  target %s" % tgt_name)
        for g in f.source.generators:
            out.append("  object %s -> %s" % (g, _fmt_objexpr(f.object_map[g])))
        gi = {g: i for i, g in enumerate(f.source.generators)}
        for (a, b) in sorted(f.hom_maps, key=lambda k: (gi[k[0]], gi[k[1]])):
            mat = f.hom_maps[(a, b)]
            for q, bname in enumerate(f.source.basis_names(a, b)):
                col = mat.col(q)
                if all(field.is_zero(x) for x in col):
                    continue
                mor = unflatten(f.target, f.object_map[a], f.object_map[b], col)
                out.append("  map (%s %s %s) -> %s" % (a, b, bname, _fmt_morph(f.target, mor)))
        out.append("}")
        out.append("")

    for name in sorted(ws.nats):
        nt = ws.nats[name]
        fe, te = ws.nat_exprs[name]
        out.append("nattrans %s {" % name)
        out.append("  from %s" % fe)
        out.append("  to %s" % te)
        for g in nt.from_f.source.generators:
            comp = nt.components[g]
            if comp.is_zero():
                continue
            out.append("  at %s -> %s" % (g, _fmt_morph(nt.from_f.target, comp)))
        out.append("}")
        out.append("")

    for name in sorted(ws.adjunctions):
        left, right, unit, counit = ws.adj_refs[name]
        out.append("adjunction %s { left %s right %s unit %s counit %s }"
                   % (name, left, right, unit, counit))
    if ws.adjunctions:
        out.append("")

    for name in sorted(ws.recollements):
        refs = ws.rec_refs[name]
        out.append("recollement %s {" % name)
        for key in REC_KEYS:
            out.append("  %s %s" % (key, refs[key]))
        out.append("}")
        out.append("")

    for name in sorted(ws.triangulated):
        tri = ws.triangulated[name]
        base, shift, shift_inv = ws.tri_refs[name]
        out.append("triangulated %s {" % name)
        out.append("  base %s" % base)
        out.append("  shift %s" % shift)
        out.append("  shift_inv %s" % shift_inv)
        for t in tri.triangles:
            out.append("  triangle %s {" % t.name)
            out.append("    x %s" % _fmt_objexpr(t.x))
            out.append("    y %s" % _fmt_objexpr(t.y))
            out.append("    z %s" % _fmt_objexpr(t.z))
            out.append("    f %s" % _fmt_morph(tri.cat, t.f))
            out.append("    g %s" % _fmt_morph(tri.cat, t.g))
            out.append("    h %s" % _fmt_morph(tri.cat, t.h))
            out.append("  }")
        out.append("}")
        out.append("")

    for name in sorted(ws.exactdata):
        fn, st, tt, si = ws.exact_refs[name]
        out.append("exact %s { functor %s source_tri %s target_tri %s shift_iso %s }"
                   % (name, fn, st, tt, si))
    if ws.exactdata:
        out.append("")

    for name in sorted(ws.mutations):
        m = ws.mutations[name]
        ambient, z, d = ws.mutation_refs[name]
        cat = m.tri.cat
        out.append("mutation %s {" % name)
        out.append("  ambient %s" % ambient)
        out.append("  z %s" % z)
        out.append("  d %s" % d)
        for g in sorted(m.fixed, key=lambda g: cat.generators.index(g)):
            t = m.fixed[g]
            out.append("  fixed %s {" % g)
            out.append("    dx %s" % _fmt_objexpr(t.y))
            out.append("    m %s" % _fmt_objexpr(t.z))
            out.append("    alpha %s" % _fmt_morph(cat, t.f))
            out.append("    beta %s" % _fmt_morph(cat, t.g))
            out.append("    gamma %s" % _fmt_morph(cat, t.h))
            out.append("  }")
        for g in sorted(m.cofixed, key=lambda g: cat.generators.index(g)):
            t = m.cofixed[g]
            out.append("  cofixed %s {" % g)
            out.append("    x %s" % _fmt_objexpr(t.x))
            out.append("    dx %s" % _fmt_objexpr(t.y))
            out.append("    f %s" % _fmt_morph(cat, t.f))
            out.append("    g %s" % _fmt_morph(cat, t.g))
            out.append("    h %s" % _fmt_morph(cat, t.h))
            out.append("  }")
        out.append("}")
        out.append("")

    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"
