"""Golden certificates: the seven README example commands, plus the restrict
and left-quotient pipelines, must reproduce the stored `--out` certificate
byte for byte, with the same exit code.

The files under tests/golden/ pin every verdict, witness and search count
(e.g. "552 commuting squares completed"), so a change that means to keep
the engine's behaviour must leave them byte-identical.
"""

from pathlib import Path

import pytest

from rclkit.cli import main

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
]


@pytest.mark.parametrize("name,args,code", CASES, ids=[c[0] for c in CASES])
def test_golden_certificate(name, args, code, tmp_path, capsys):
    out = tmp_path / (name + ".cert")
    argv = [args[0], str(FIXTURES / args[1])] + args[2:] + ["--out", str(out)]
    assert main(argv) == code
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / (name + ".cert")).read_bytes()
