"""Job lists of the three workloads and the answer key they are checked
against.

Every verdict in the key comes from a written source, never from a run of
the code under test:

README   the README's example commands and their documented exit codes;
A2       acceptance test 2: on fix_a2, restriction passes exactly for the
         empty subcategory, {S2} and everything (the other subsets break a
         closure hypothesis, which the CLI reports as a failed check);
A3       acceptance test 3: under strict semantics the quotient diagram is a
         recollement iff X lies in Ker j^*, which is {S2} on fix_a2 and
         {C1.M1, C1.M2} on fix_prod; on fix_a2 the iso-closed reading
         passes for X = everything;
A5       acceptance test 5: on fix_a2, lifting (V, 0) and the closed-part
         quotients by 0 and by {V} pass;
A7       acceptance test 7: tri-recollement on fix_prod passes with
         D = {C1.M2} and fails with D = {C2.M2};
PRODUCT  the componentwise-product rule: an m-copy product passes iff every
         copy passes (each copy of stab<m> is fix_stab3, see gen.py);
FIELDS   agreement across fields: a verdict over GF(p) is the verdict over
         QQ of the same presentation.

Three one-step consequences of these sources are used, each named in the
entry it decides:
- a strict pass implies an iso-closed pass (if Im i_lo equals Ker j^*, so do
  their isomorphism closures);
- C/[0] is C, so the recollement passes iff its quotient by X = 0 does (A3);
- left-quotient by X' is the quotient diagram by X = i_lo(X'), and on
  fix_prod i_lo(X') lies in {C1.M1, C1.M2} (A3).
Jobs no source decides are not drawn: for example `quotient`, `restrict` on
fix_prod, and the iso-closed reading of a subset that fails under strict.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

import gen

WORKLOADS = ("tri-qq", "tri-gfp", "additive")

# Jobs per fixture in one pass of the additive workload.  fix_prod jobs take
# about three times as long as fix_a2 jobs; drawing a fixed number from each
# keeps a pass's cost independent of the seed, and the 1:2 split puts the
# median job inside the fix_prod group rather than in the gap between the
# two groups.
ADDITIVE_JOBS = {"fix_a2": 70, "fix_prod": 140}

# One job: the CLI command on the named input, with CLI options as a sorted
# tuple of (option, value) pairs.
Job = namedtuple("Job", "input command options")

# Per fixture: the middle, left and right categories and their generators,
# and Ker j^* (A3).
FIXTURES = {
    "fix_a2": {"middle": ("A2", ("S1", "S2", "P1")),
               "left": ("ModKL", ("V",)),
               "right": ("ModKR", ("W",)),
               "ker": {"S2"}},
    "fix_prod": {"middle": ("C", ("C1.M1", "C1.M2", "C2.M1", "C2.M2")),
                 "left": ("CL", ("L.M1", "L.M2")),
                 "right": ("CR", ("R.M1", "R.M2")),
                 "ker": {"C1.M1", "C1.M2"}},
}

# Closed-part inclusion i_lo on fix_prod's generators: L.g -> C1.g.
PROD_I_LO = {"L.M1": "C1.M1", "L.M2": "C1.M2"}

PASS, FAIL = "pass", "fail"


def job_id(job):
    opts = " ".join("--%s %s" % kv for kv in job.options)
    return ("%s %s %s" % (job.command, job.input, opts)).strip()


def _subsets(gens):
    return [c for k in range(len(gens) + 1) for c in itertools.combinations(gens, k)]


def _subcat_arg(cat, members):
    """CLI form of a subcategory; the empty one needs the category name."""
    return ",".join(members) if members else cat + ":"


def _members(arg):
    names = arg.rpartition(":")[2]
    return frozenset(s for s in names.split(",") if s)


def expected(job):
    """(verdict, source) for a job, or None if no source decides it."""
    opts = dict(job.options)
    sem = opts.get("semantics", "strict")
    iso = sem == "iso"
    via_iso = " + strict pass implies iso-closed pass" if iso else ""
    name, cmd = job.input, job.command

    if name.startswith("stab"):
        if cmd == "triangulate-quotient" and not opts:
            return PASS, "README (fix_stab3 = stab1) + PRODUCT + FIELDS"
        return None
    if cmd == "tri-recollement" and name == "fix_prod" and sem == "strict":
        verdict = {"C1.M2": PASS, "C2.M2": FAIL}.get(opts.get("d"))
        return (verdict, "README + A7 + FIELDS") if verdict else None

    fx = FIXTURES.get(name)
    if fx is None:
        return None
    ker = fx["ker"]
    if cmd == "validate" and name == "fix_a2" and not opts:
        return PASS, ("README: check-recollement fix_a2 exits 0, so the "
                      "categories, functors and adjunctions it is built on are valid")
    if cmd == "check-recollement" and set(opts) == {"semantics"}:
        src = "README" if name == "fix_a2" else "A3 at X = 0 (C/[0] = C)"
        return PASS, src + via_iso
    if cmd == "quotient-recollement" and set(opts) == {"semantics", "x"}:
        x = _members(opts["x"])
        if x <= ker:
            return PASS, "A3" + via_iso
        if not iso:
            return FAIL, "A3"
        if name == "fix_a2" and x == set(fx["middle"][1]):
            return PASS, "A3 (iso-closed reading, X = everything)"
        return None
    if cmd == "restrict" and name == "fix_a2" and set(opts) == {"semantics", "x"}:
        x = _members(opts["x"])
        if x in (frozenset(), {"S2"}, {"S1", "S2", "P1"}):
            return PASS, "A2" + via_iso
        return (FAIL, "A2") if not iso else None
    if cmd == "lift" and name == "fix_a2" and set(opts) == {"semantics", "xp", "xpp"}:
        if _members(opts["xp"]) == {"V"} and not _members(opts["xpp"]):
            return PASS, "README + A5" + via_iso
        return None
    if cmd == "left-quotient" and set(opts) == {"semantics", "xp"}:
        if name == "fix_a2":
            return PASS, "A5" + via_iso
        image = {PROD_I_LO[g] for g in _members(opts["xp"])}
        if image <= ker:
            return PASS, "A3 at X = i_lo(X')" + via_iso
    return None


def additive_cross():
    """Every command, fixture, subcategory argument and semantics the
    additive draw is made from, before the key filters it."""
    jobs = [Job("fix_a2", "validate", ())]
    for name, fx in FIXTURES.items():
        mid_cat, mid = fx["middle"]
        left_cat, left = fx["left"]
        right_cat, right = fx["right"]
        for sem in ("strict", "iso"):
            s = (("semantics", sem),)
            jobs.append(Job(name, "check-recollement", s))
            for cmd in ("quotient", "quotient-recollement", "restrict"):
                for x in _subsets(mid):
                    jobs.append(Job(name, cmd, s + (("x", _subcat_arg(mid_cat, x)),)))
            for xp in _subsets(left):
                xp_arg = _subcat_arg(left_cat, xp)
                jobs.append(Job(name, "left-quotient", s + (("xp", xp_arg),)))
                for xpp in _subsets(right):
                    jobs.append(Job(name, "lift", s + (("xp", xp_arg),
                                                       ("xpp", _subcat_arg(right_cat, xpp)))))
    return jobs


def additive_pool():
    """The jobs of the cross that the key decides."""
    return [j for j in additive_cross() if expected(j) is not None]


TRI_JOBS = (
    Job("stab1", "triangulate-quotient", ()),
    Job("stab2", "triangulate-quotient", ()),
    Job("stab3", "triangulate-quotient", ()),
    Job("fix_prod", "tri-recollement", (("d", "C1.M2"),)),
    Job("fix_prod", "tri-recollement", (("d", "C2.M2"),)),
)


def draw(workload, seed):
    """(field characteristic, job list) of a workload; 0 stands for QQ."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload in ("tri-qq", "tri-gfp"):
        p = rng.choice(gen.GFP_PRIMES) if workload == "tri-gfp" else 0
        jobs = list(TRI_JOBS)
        rng.shuffle(jobs)
        return p, jobs
    if workload == "additive":
        pool = additive_pool()
        jobs = []
        for name, count in ADDITIVE_JOBS.items():
            group = [j for j in pool if j.input == name]
            jobs.extend(rng.choice(group) for _ in range(count))
        rng.shuffle(jobs)
        return 0, jobs
    raise ValueError("unknown workload %r" % workload)
