"""Golden certificates: the seven README example commands, the restrict,
left-quotient and quotient pipelines, and `validate` on the all-kinds
workspace must reproduce the stored `--out` certificate byte for byte, with
the same exit code.

The files under tests/golden/ pin every verdict, witness and search count
(e.g. "every commuting square completes (total dimension 175)"), so a
change that means to keep the engine's behaviour must leave them
byte-identical.  The same fixtures
generated over GF(5) and GF(101) must give the QQ exit code and certificate
on those commands and on the checks that read locality and isomorphism
classes, apart from the digest of the input.
"""

from pathlib import Path

import pytest

from rclkit.cli import main
from rclkit.field import PrimeField
from rclkit.fixture_gen import build_fix_a2, build_fix_prod, build_fix_stab3
from rclkit.workspace import serialize

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "rclkit" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("check-recollement", ["check-recollement", "fix_a2.rcl"], 0),
    ("quotient-recollement-s2",
     ["quotient-recollement", "fix_a2.rcl", "--x", "S2"], 0),
    ("quotient-recollement-s1-s2-p1",
     ["quotient-recollement", "fix_a2.rcl", "--x", "S1,S2,P1"], 1),
    ("lift", ["lift", "fix_a2.rcl", "--xp", "V", "--xpp", "ModKR:"], 0),
    ("triangulate-quotient", ["triangulate-quotient", "fix_stab3.rcl"], 0),
    ("tri-recollement-c1-m2",
     ["tri-recollement", "fix_prod.rcl", "--d", "C1.M2"], 0),
    ("tri-recollement-c2-m2",
     ["tri-recollement", "fix_prod.rcl", "--d", "C2.M2"], 1),
    ("restrict-s2", ["restrict", "fix_a2.rcl", "--x", "S2"], 0),
    # The witness "j_lo(j_up(P1)) contains S1" pins the order in which the
    # four closure hypotheses are checked.
    ("restrict-p1", ["restrict", "fix_a2.rcl", "--x", "P1"], 1),
    ("left-quotient-v", ["left-quotient", "fix_a2.rcl", "--xp", "V"], 0),
    ("quotient-a2-s2", ["quotient", "fix_a2.rcl", "--x", "S2"], 0),
    ("quotient-prod-c1-m2", ["quotient", "fix_prod.rcl", "--x", "C1.M2"], 0),
    # Pins both failing exact-functor checks of the non-identity shift_iso
    # and the two witnesses of nattrans.tw.naturality.
    ("validate-all-kinds", ["validate", "workspace-all-kinds.rcl"], 1),
]


def _input(name):
    """A bundled fixture, or a workspace stored beside the certificates."""
    return GOLDEN / name if (GOLDEN / name).exists() else FIXTURES / name


@pytest.mark.parametrize("name,args,code", CASES, ids=[c[0] for c in CASES])
def test_golden_certificate(name, args, code, tmp_path, capsys):
    out = tmp_path / (name + ".cert")
    argv = [args[0], str(_input(args[1]))] + args[2:] + ["--out", str(out)]
    assert main(argv) == code
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / (name + ".cert")).read_bytes()


# Jobs whose certificate must not depend on the field: the golden commands,
# validate on each fixture, and the iso-closed reading of r3, which reads
# the isomorphism classes of generators.
CROSS_FIELD = [c[1] for c in CASES if (FIXTURES / c[1][1]).exists()] + [
    ["validate", "fix_a2.rcl"],
    ["validate", "fix_prod.rcl"],
    ["validate", "fix_stab3.rcl"],
    ["check-recollement", "fix_a2.rcl", "--semantics", "iso"],
    ["check-recollement", "fix_prod.rcl", "--semantics", "iso"],
    ["restrict", "fix_a2.rcl", "--x", "S1,S2,P1", "--semantics", "iso"],
]


@pytest.fixture(scope="module")
def prime_fixtures(tmp_path_factory):
    """p -> a directory holding the three fixtures generated over GF(p)."""
    dirs = {}
    for p in (5, 101):
        dirs[p] = tmp_path_factory.mktemp("gf%d" % p)
        for name, build in (("fix_a2", build_fix_a2), ("fix_prod", build_fix_prod),
                            ("fix_stab3", build_fix_stab3)):
            (dirs[p] / (name + ".rcl")).write_text(serialize(build(PrimeField(p))))
    return dirs


def _certificate(directory, args, out, capsys):
    """(exit code, certificate lines but meta.input-digest)."""
    code = main([args[0], str(directory / args[1])] + args[2:] + ["--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().splitlines()
    return code, [line for line in lines if not line.startswith("meta.input-digest ")]


@pytest.mark.parametrize("p", [5, 101])
@pytest.mark.parametrize("args", CROSS_FIELD, ids=[" ".join(a) for a in CROSS_FIELD])
def test_certificate_agrees_across_fields(args, p, prime_fixtures, tmp_path, capsys):
    """Over GF(5) and GF(101) the same presentations give the QQ exit code
    and certificate, apart from the digest of the input text."""
    want = _certificate(FIXTURES, args, tmp_path / "qq.cert", capsys)
    assert _certificate(prime_fixtures[p], args, tmp_path / "gfp.cert", capsys) == want
