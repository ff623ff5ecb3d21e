import hashlib
from importlib import resources

import pytest

from rclkit.category import validate_category
from rclkit.functor import compose_functors, is_identity_functor, validate_functor
from rclkit.fixture_gen import BUILDERS, _Rep, _StableCore, _cyclic, _hom_basis, _module_iso
from rclkit.field import QQ, PrimeField
from rclkit.linalg import Mat, invert, rank
from rclkit.workspace import serialize

from oracles import brute_force_rep_maps, intertwines

# sha256 of serialize(build(GF(p))): the shipped files pin only QQ, so these
# pin the text of every regeneration over a prime field.
GFP_DIGESTS = {
    ("fix_a2", 2): "34bc6988438af4af48f1f84de6dbdee8fdda883b1d1a1f73386649205f0727a1",
    ("fix_a2", 3): "45e2286ad67c5622c9aab48789553f21b4621ab27fd6f6d546cea63db359bf76",
    ("fix_a2", 5): "53f5607dedec0f3b640f0d4dad40ece4e5b6530434f8ebc98bd695a8cfc2d88b",
    ("fix_a2", 101): "1c7790b929f769ba2d1d5b4e174cf835a4b1d9970b189cce6579e8135a11c3aa",
    ("fix_stab3", 2): "01ac2ecd1c43eb697b1a6c2faa6394a5e3e823e659c8aa6adeed933ac2fb17f9",
    ("fix_stab3", 3): "8e0da0a9e276ae00e0d0c83d4ecf9aeab93ea11d22b34aed9950b77ae76f27de",
    ("fix_stab3", 5): "1066ca9e55e916bd1aaa109a4f1b8ff471529c3c3cb97af6b30351cb94d73d47",
    ("fix_stab3", 101): "5cfcf947fa9c6ac4e64bf2993e84fbda12bc90ff3893e03c7d1b22675de51852",
    ("fix_prod", 2): "27907aa148a7e4e5cd75295c12528169a42589cb166f38f602c5d586d6c34fd9",
    ("fix_prod", 3): "c044cf5370012ea9ea3547e31bff8b33fcd7cab23bbfee9f4452b6b550da6905",
    ("fix_prod", 5): "e1e29a9cf145856efc0137a95c1653212a049785bea51d5d540e6aeafb418037",
    ("fix_prod", 101): "5f735c63a1d422e3555951e9ca08c7c8e9912debdd914293399f8979f5a4f7ed",
}


def test_shipped_fixtures_match_regeneration(fixture_dir):
    """The shipped files are exactly what the oracle script produces."""
    pkg_fixtures = resources.files("rclkit") / "fixtures"
    for name in ("fix_a2.rcl", "fix_stab3.rcl", "fix_prod.rcl"):
        shipped = (pkg_fixtures / name).read_text()
        regen = (fixture_dir / name).read_text()
        assert shipped == regen, name


@pytest.mark.parametrize("name,p", sorted(GFP_DIGESTS))
def test_gfp_regeneration_is_pinned(name, p):
    text = serialize(BUILDERS[name](PrimeField(p)))
    assert hashlib.sha256(text.encode()).hexdigest() == GFP_DIGESTS[(name, p)]


def test_stable_core_dimensions():
    core = _StableCore(QQ)
    for a in core.gens:
        for b in core.gens:
            assert len(core.stable_basis[(a, b)]) == 1, (a, b)


def test_stable_core_composites_vanish():
    """Socle then projection is zero on the nose; projection then socle is
    multiplication by the radical generator, zero in the stable quotient."""
    core = _StableCore(QQ)
    sp = core.pi_model.mul(core.sigma_model)
    assert sp.is_zero()
    ps = core.sigma_model.mul(core.pi_model)
    assert not ps.is_zero()
    assert all(x == 0 for x in core.stable_coords("M2", "M2", ps))


def test_stable_shift_is_involution_on_objects():
    core = _StableCore(QQ)
    assert core.shift_obj == {"M1": "M2", "M2": "M1"}


def test_shift_functors_strictly_inverse(ws_stab3):
    t = ws_stab3.functors["T"]
    tinv = ws_stab3.functors["Tinv"]
    assert is_identity_functor(compose_functors(t, tinv))
    assert is_identity_functor(compose_functors(tinv, t))
    assert validate_functor(t).ok_all


def test_connecting_maps_nonzero():
    core = _StableCore(QQ)
    assert any(x != 0 for x in core.stable_coords("M1", "M2", core.h1))
    assert any(x != 0 for x in core.stable_coords("M1", "M1", core.h2))
    # the second connecting class is invertible: it identifies M1 with the
    # shift of the approximating generator
    assert invert(core.h2) is not None


def test_stable_category_validates():
    core = _StableCore(QQ)
    from rclkit.fixture_gen import _stable_category
    cat = _stable_category(QQ, core)
    assert validate_category(cat).ok_all


def a2_models(F):
    """S1, S2 and P1 as representations of the quiver 1 -> 2."""
    def rep(d1, d2, arrow):
        return _Rep(F, (d1, d2), ((0, 1, Mat(F, d2, d1, arrow)),))
    return {"S1": rep(1, 0, []), "S2": rep(0, 1, [[]]), "P1": rep(1, 1, [[F.one]])}


def module_models(F):
    """M1, M2 and the free module of k[x]/(x^3), on the one-loop quiver."""
    return {"M1": _cyclic(F, 1), "M2": _cyclic(F, 2), "free": _cyclic(F, 3)}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("models", [a2_models, module_models])
def test_hom_basis_against_enumeration(models, p):
    """The solver's basis is independent and spans every intertwiner:
    p^(basis size) of them."""
    F = PrimeField(p)
    reps = models(F)
    for a, src in reps.items():
        for b, tgt in reps.items():
            basis = _hom_basis(src, tgt)
            assert p ** len(basis) == len(brute_force_rep_maps(src, tgt, p)), (a, b)
            assert all(intertwines(src, tgt, mor) for mor in basis), (a, b)
            flats = [[x for m in mor for row in m.data for x in row] for mor in basis]
            assert not basis or rank(Mat.from_rows(F, flats)) == len(basis), (a, b)


def test_module_iso_refuses_a_non_square_hom_block():
    reps = module_models(QQ)
    assert _module_iso(reps["M1"], reps["M2"]) is None


def test_module_iso_refuses_a_vanishing_determinant():
    """Every map k[x]/(x^2) -> k^2 with x = 0 kills x, so none is invertible."""
    reps = module_models(QQ)
    trivial = _Rep(QQ, (2,), ((0, 0, Mat.zeros(QQ, 2, 2)),))
    assert _module_iso(reps["M2"], trivial) is None
    assert _module_iso(reps["M2"], reps["M2"]) is not None
