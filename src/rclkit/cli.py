"""Command-line driver: runs the pipelines on a workspace file and emits a
deterministic certificate.

    rclkit <command> <workspace-file> [--x <gens>] [--xp <gens>] [--xpp <gens>]
           [--d <gens>] [--semantics strict|iso] [--name <decl>]
           [--out <path>] [--format text|structured]

Subcategory arguments are comma-separated generator names; the owning
category is inferred (or written explicitly as "CAT:g1,g2", which also
allows the empty subcategory "CAT:").  Exit codes: 0 all checks passed,
1 some check failed, 2 unreadable or unresolvable input (or an unwritable
--out path), 3 internal inconsistency, 4 unexpected internal error (one
line on stderr).
"""

from __future__ import annotations

import sys

from .adjunction import validate_adjunction
from .category import Subcategory, validate_category
from .errors import InconsistentDataError, InputError, PreconditionError
from .functor import validate_functor, validate_nat
from .mutation import (MutationData, check_mutation_pair,
                       triangulated_quotient_recollement,
                       verify_quotient_triangulation)
from .quotient import build_quotient, induce_adjunction, induce_functor
from .recollement import (FUNCTOR_SLOTS, check_recollement, lift_subcategory_pair,
                          quotient_by_left_subcategory, quotient_recollement,
                          restrict_to_subcategory)
from .report import Certificate, Report
from .workspace import Diagnostic, parse

COMMANDS = ("validate", "check-recollement", "quotient", "induce", "restrict",
            "lift", "left-quotient", "quotient-recollement", "mutation-check",
            "triangulate-quotient", "tri-recollement")


def _load(path: str):
    """Parse the file as UTF-8 with universal newlines, as text-mode open reads it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(["cannot read %s: %s" % (path, exc)])
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _newlines(data[:exc.start].decode("utf-8")).split("\n")
        raise InputError([Diagnostic(len(lines), len(lines[-1]) + 1,
                                     "invalid UTF-8 byte 0x%02x" % data[exc.start])])
    return parse(_newlines(text))


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _resolve_subcat(ws, arg: str, expect_cat=None) -> Subcategory:
    """Resolve "g1,g2" or "CAT:g1,g2" (the latter may be empty)."""
    arg = (arg or "").strip()
    if ":" in arg:
        cat_name, _, rest = arg.partition(":")
        cat = ws.categories.get(cat_name)
        if cat is None:
            raise InputError(["unknown category %r" % cat_name])
        names = [s for s in rest.split(",") if s]
        unknown = [s for s in names if s not in cat.generators]
        if unknown:
            raise InputError(["category %s has no generator %s"
                              % (cat_name, ",".join(unknown))])
    else:
        names = [s for s in arg.split(",") if s]
        if not names:
            if expect_cat is not None:
                return Subcategory(expect_cat, [])
            raise InputError(["empty subcategory needs an explicit category, "
                              "e.g. CAT:"])
        owners = [c for c in ws.categories.values()
                  if set(names) <= set(c.generators)]
        if not owners:
            raise InputError(["no category contains all of %s" % ",".join(names)])
        if len(owners) > 1:
            raise InputError(["generators %s are ambiguous; qualify as CAT:..."
                              % ",".join(names)])
        cat = owners[0]
    repeated = [s for i, s in enumerate(names) if s in names[:i]]
    if repeated:
        raise InputError(["duplicate member %r in subcategory %r" % (repeated[0], arg)])
    if expect_cat is not None and cat is not expect_cat:
        raise InputError(["subcategory %r does not live in the expected "
                          "category %s" % (arg, expect_cat.name)])
    return Subcategory(cat, names)


def _require(options, key, command):
    value = options.get(key)
    if value is None:
        raise InputError(["%s requires --%s" % (command, key)])
    return value


def _pick(table, kind, name=None):
    if name is not None:
        if name not in table:
            raise InputError(["unknown %s %r" % (kind, name)])
        return name, table[name]
    if len(table) == 1:
        return next(iter(table.items()))
    if not table:
        raise InputError(["workspace declares no %s" % kind])
    raise InputError(["multiple %ss declared (%s); choose one with --name"
                      % (kind, ",".join(sorted(table)))])


def _with_d(ws, m, options):
    """m, or m with its approximating subcategory replaced by --d."""
    if not options.get("d"):
        return m
    d = _resolve_subcat(ws, options["d"], m.tri.cat)
    return MutationData(m.tri, m.z, d, m.fixed, m.cofixed, name=m.name)


def _validate_all(ws) -> Report:
    rep = Report()
    for prefix, table, validate in (
            ("category", ws.categories, validate_category),
            ("functor", ws.functors, validate_functor),
            ("nattrans", ws.nats, validate_nat),
            ("adjunction", ws.adjunctions, validate_adjunction),
            ("triangulated", ws.triangulated, lambda tri: tri.validate()),
            ("exactdata", ws.exactdata, lambda e: e.validate()),
            ("mutation", ws.mutations, check_mutation_pair)):
        for name in sorted(table):
            rep.merge(validate(table[name]), prefix="%s.%s." % (prefix, name))
    return rep


def _tri_bundle(ws, rec_name, rec):
    def tri_for(cat, label):
        hits = [t for t in ws.triangulated.values() if t.cat is cat]
        if len(hits) != 1:
            raise InputError(["need exactly one triangulated presentation over "
                              "the %s category of %s" % (label, rec_name)])
        return hits[0]

    tris = {"left": tri_for(rec.left, "left"),
            "mid": tri_for(rec.middle, "middle"),
            "right": tri_for(rec.right, "right")}
    exact = {}
    for slot in FUNCTOR_SLOTS:
        f = getattr(rec, slot)
        hits = [e for e in ws.exactdata.values() if e.functor is f]
        if len(hits) != 1:
            raise InputError(["need exactly one exact declaration for functor "
                              "slot %s" % slot])
        exact[slot] = hits[0]
    muts = [m for m in ws.mutations.values() if m.tri is tris["mid"]]
    if len(muts) != 1:
        raise InputError(["need exactly one mutation declaration over the "
                          "middle presentation"])
    return tris, exact, muts[0]


def run_command(command, ws, options) -> Certificate:
    semantics = {"strict": "strict", "iso": "iso-closed",
                 "iso-closed": "iso-closed"}[options.get("semantics", "strict")]
    cert = Certificate(command, digest=ws.digest, semantics=semantics)
    for key in ("x", "xp", "xpp", "d", "name"):
        if options.get(key):
            cert.set("input.%s" % key, options[key])
    rep = Report()
    try:
        if command == "validate":
            rep = _validate_all(ws)

        elif command == "check-recollement":
            _, rec = _pick(ws.recollements, "recollement", options.get("name"))
            rep = check_recollement(rec, semantics)

        elif command == "quotient":
            x = _resolve_subcat(ws, _require(options, "x", command))
            q = build_quotient(x.parent, x)
            # A parent that breaks a law shows here, not as a quotient fault.
            rep.merge(validate_category(x.parent), prefix="parent.")
            rep.merge(q.validate())
            cert.set("result.survivors", ",".join(q.survivors) or "(zero)")
            for a in q.survivors:
                for b in q.survivors:
                    d = q.presentation.hom_dim(a, b)
                    if d:
                        cert.set("result.hom-dim.%s.%s" % (a, b), str(d))

        elif command == "induce":
            name = options.get("name")
            if name in ws.adjunctions:
                adj = ws.adjunctions[name]
                x = _resolve_subcat(ws, _require(options, "x", command),
                                    adj.left.source)
                xp = _resolve_subcat(ws, _require(options, "xp", command),
                                     adj.left.target)
                q_src = build_quotient(adj.left.source, x)
                q_tgt = build_quotient(adj.left.target, xp)
                induced, rep = induce_adjunction(adj, q_src, q_tgt)
                rep.merge(validate_adjunction(induced), prefix="induced.")
            else:
                if name not in ws.functors:
                    raise InputError(["--name must be a declared functor or "
                                      "adjunction"])
                f = ws.functors[name]
                x = _resolve_subcat(ws, _require(options, "x", command), f.source)
                xp = _resolve_subcat(ws, _require(options, "xp", command), f.target)
                q_src = build_quotient(f.source, x)
                q_tgt = build_quotient(f.target, xp)
                tilde = induce_functor(f, q_src, q_tgt)
                rep = validate_functor(tilde)

        elif command == "restrict":
            _, rec = _pick(ws.recollements, "recollement", options.get("name"))
            x = _resolve_subcat(ws, _require(options, "x", command), rec.middle)
            _, rep = restrict_to_subcategory(rec, x, semantics)

        elif command == "lift":
            _, rec = _pick(ws.recollements, "recollement", options.get("name"))
            xp = _resolve_subcat(ws, _require(options, "xp", command), rec.left)
            xpp = _resolve_subcat(ws, _require(options, "xpp", command), rec.right)
            x, _, rep = lift_subcategory_pair(rec, xp, xpp, semantics)
            cert.set("result.lifted-subcategory", ",".join(x.members) or "(zero)")

        elif command == "left-quotient":
            _, rec = _pick(ws.recollements, "recollement", options.get("name"))
            xp = _resolve_subcat(ws, _require(options, "xp", command), rec.left)
            _, rep = quotient_by_left_subcategory(rec, xp, semantics)

        elif command == "quotient-recollement":
            _, rec = _pick(ws.recollements, "recollement", options.get("name"))
            x = _resolve_subcat(ws, _require(options, "x", command), rec.middle)
            _, rep = quotient_recollement(rec, x, semantics)

        elif command == "mutation-check":
            _, m = _pick(ws.mutations, "mutation", options.get("name"))
            rep = check_mutation_pair(_with_d(ws, m, options))

        elif command == "triangulate-quotient":
            _, m = _pick(ws.mutations, "mutation", options.get("name"))
            m = _with_d(ws, m, options)
            rep = check_mutation_pair(m)
            if rep.ok_all:
                rep.merge(verify_quotient_triangulation(m), prefix="triangulation.")

        elif command == "tri-recollement":
            rec_name, rec = _pick(ws.recollements, "recollement", options.get("name"))
            tris, exact, m = _tri_bundle(ws, rec_name, rec)
            m = _with_d(ws, m, options)
            _, rep = triangulated_quotient_recollement(rec, tris, exact, m, semantics)
        else:
            raise InputError(["unknown command %r" % command])
    except PreconditionError as exc:
        rep.fail("precondition", "%s%s" % (exc, (": " + exc.witness)
                                           if exc.witness else ""))
    cert.finalize(rep)
    return cert


def main(argv=None) -> int:
    import argparse  # only the command line needs it; importing rclkit.cli stays light

    ap = argparse.ArgumentParser(
        prog="rclkit",
        description="Machine-check recollement and mutation-pair constructions "
                    "on finitely presented additive categories.")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("workspace", help="workspace file (.rcl)")
    ap.add_argument("--x", help="middle subcategory: comma-separated generators")
    ap.add_argument("--xp", help="left subcategory")
    ap.add_argument("--xpp", help="right subcategory")
    ap.add_argument("--d", help="approximating subcategory")
    ap.add_argument("--semantics", choices=("strict", "iso"), default="strict")
    ap.add_argument("--name", help="declaration to operate on, when ambiguous")
    ap.add_argument("--out", help="write the structured certificate to this path")
    ap.add_argument("--format", choices=("text", "structured"), default="text",
                    dest="fmt", help="stdout format")
    args = ap.parse_args(argv)

    try:
        ws = _load(args.workspace)
        cert = run_command(args.command, ws, {
            "x": args.x, "xp": args.xp, "xpp": args.xpp, "d": args.d,
            "semantics": args.semantics, "name": args.name})
    except InputError as exc:
        for diag in exc.diagnostics:
            print("error: %s" % diag, file=sys.stderr)
        return 2
    except InconsistentDataError as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(cert.render())
        except OSError as exc:
            print("error: cannot write %s: %s" % (args.out, exc), file=sys.stderr)
            return 2
    if args.fmt == "structured":
        sys.stdout.write(cert.render())
    else:
        sys.stdout.write(cert.render_text())
    return 0 if cert.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
