"""Input generator: the `.rcl` texts every workload runs on.

The m-copy products of the stable category of k[x]/(x^3) are assembled here
from the fixture generator's building blocks, so the size family needs no
change to the package.  m = 1 is the same presentation as the shipped
fix_stab3 with every generator renamed C1.<g>.  fix_a2 and fix_prod come
from the package's own fixture functions; every text is produced by `serialize`.
"""

from __future__ import annotations

from rclkit.category import Subcategory
from rclkit.field import QQ, PrimeField, is_prime
from rclkit.fixture_gen import (_component_category, _component_shift,
                                _embed_triangle, _stable_category,
                                _stable_triangles, _shift_functors,
                                _StableCore, build_fix_a2, build_fix_prod)
from rclkit.mutation import MutationData
from rclkit.triangulated import TriangulatedPresentation
from rclkit.workspace import Workspace, parse, serialize

# Primes a GF(p) workload may draw from.
GFP_PRIMES = tuple(p for p in range(101, 998) if is_prime(p))


def build_stab_product(m, field=QQ) -> Workspace:
    """m copies of stable k[x]/(x^3), with D = add(M2) in every copy.

    Each copy carries the triangles of fix_stab3 and the same fixed
    approximation triangles (M1 by t1, M2 by t3), so the mutation pair is
    the componentwise product of m copies of fix_stab3's.
    """
    core = _StableCore(field)
    prefixes = tuple("C%d." % i for i in range(1, m + 1))
    cat = _component_category(field, core, prefixes, "C")
    shift, shift_inv = _component_shift(field, core, cat, prefixes, "TC")
    base = _stable_category(field, core, name="_core")
    core_triangles = _stable_triangles(field, core, base,
                                       _shift_functors(field, core, base)[0])
    triangles, fixed = [], {}
    for i, p in enumerate(prefixes, start=1):
        embedded = {t.name: _embed_triangle(cat, shift, t, p, "c%d_%s" % (i, t.name))
                    for t in core_triangles}
        triangles.extend(embedded.values())
        fixed[p + "M1"] = embedded["t1"]
        fixed[p + "M2"] = embedded["t3"]
    tri = TriangulatedPresentation(cat, shift, shift_inv, triangles, name="TC")

    ws = Workspace(field)
    ws.categories["C"] = cat
    ws.functors["TC"] = shift
    ws.functors["TCinv"] = shift_inv
    ws.triangulated["TC"] = tri
    ws.tri_refs["TC"] = ("C", "TC", "TCinv")
    ws.subcategories["Zall"] = Subcategory(cat, list(cat.generators))
    ws.subcategories["D"] = Subcategory(cat, [p + "M2" for p in prefixes])
    ws.mutations["MU"] = MutationData(tri, ws.subcategories["Zall"],
                                      ws.subcategories["D"], fixed, name="MU")
    ws.mutation_refs["MU"] = ("TC", "Zall", "D")
    return ws


def workspace_text(name, p=0):
    """Canonical text of a named input, "stab<m>", "fix_a2" or "fix_prod",
    over QQ (p = 0) or GF(p)."""
    field = QQ if p == 0 else PrimeField(p)
    if name.startswith("stab"):
        return serialize(build_stab_product(int(name[4:]), field))
    if name == "fix_a2":
        return serialize(build_fix_a2(field))
    if name == "fix_prod":
        return serialize(build_fix_prod(field))
    raise ValueError("unknown input %r" % name)


def check_round_trip(name, text):
    """Raise unless the text survives parse -> serialize unchanged."""
    if serialize(parse(text)) != text:
        raise ValueError("generated %s does not round-trip through parse" % name)
