"""Validation reports and machine-readable certificates.

A Report is an ordered list of (key, status, witness) entries.  A check
records its failures with `fail` and then concludes with `close`, the only
way a pass is recorded, so no check decides by hand that it passed.  A
Certificate wraps a report with tool metadata and renders to a canonical
sorted-key text form, so byte-identical inputs yield byte-identical
certificates.
"""

from __future__ import annotations

PASS = "pass"
FAIL = "fail"
INFO = "info"
NOT_CHECKED = "not-checked"


class Entry:
    __slots__ = ("key", "status", "witness")

    def __init__(self, key: str, status: str, witness: str = ""):
        self.key = key
        self.status = status
        self.witness = witness

    def __repr__(self):
        w = " (%s)" % self.witness if self.witness else ""
        return "%s: %s%s" % (self.key, self.status, w)


class Report:
    def __init__(self):
        self.entries = []

    def add(self, key: str, status: str, witness: str = ""):
        self.entries.append(Entry(key, status, witness))

    def fail(self, key: str, witness: str = ""):
        self.add(key, FAIL, witness)

    def info(self, key: str, witness: str = ""):
        self.add(key, INFO, witness)

    def not_checked(self, key: str, witness: str = ""):
        self.add(key, NOT_CHECKED, witness)

    def close(self, key: str, undecided: str = "", witness: str = ""):
        """Conclude the check key, whose failures are already recorded under
        key or key.sub: nothing more when one is, else not-checked with the
        reason when the check was undecided, else pass with the witness.
        This is the only way a pass is recorded."""
        if self.has_failures(key):
            return
        if undecided:
            self.not_checked(key, undecided)
        else:
            self.add(key, PASS, witness)

    def record(self, key: str, sub: "Report"):
        """sub's failures under key, then `close(key)`: one pass entry only
        when nothing under key failed, sub's checks included."""
        for e in sub.failures():
            self.fail("%s.%s" % (key, e.key), e.witness)
        self.close(key)

    def merge(self, other: "Report", prefix: str = ""):
        for e in other.entries:
            key = prefix + e.key if prefix else e.key
            self.entries.append(Entry(key, e.status, e.witness))

    def has_failures(self, key: str = "") -> bool:
        """Whether a failure is recorded under key or under key.sub; any
        failure when key is empty."""
        sub = key + "."
        return any(e.status == FAIL and (not key or e.key == key or e.key.startswith(sub))
                   for e in self.entries)

    @property
    def ok_all(self) -> bool:
        return not self.has_failures()

    def failures(self):
        return [e for e in self.entries if e.status == FAIL]

    def summary(self) -> str:
        n_fail = len(self.failures())
        n = len(self.entries)
        return "%d checks, %d failed" % (n, n_fail)

    def __repr__(self):
        return "Report(%s)" % self.summary()


TOOL_VERSION = "0.1.0"


class Certificate:
    """Flat key/value record, rendered with lexicographically sorted keys."""

    def __init__(self, command: str, digest: str = "", semantics: str = ""):
        self.fields = {
            "meta.tool": "rclkit",
            "meta.version": TOOL_VERSION,
            "meta.command": command,
        }
        if digest:
            self.fields["meta.input-digest"] = digest
        if semantics:
            self.fields["meta.r3-semantics"] = semantics

    def set(self, key: str, value: str):
        self.fields[key] = str(value)

    def finalize(self, rep: Report):
        """Record the entries of rep under check.<key>, then the verdict.  A
        key recorded more than once keeps every witness, joined in report
        order with "; ", and is `fail` when any of its entries failed."""
        status, witnesses = {}, {}
        for e in rep.entries:
            key = "check." + e.key
            if status.get(key) != FAIL:
                status[key] = e.status
            if e.witness:
                witnesses.setdefault(key, []).append(e.witness)
        for key, value in status.items():
            self.fields[key + ".status"] = value
        for key, texts in witnesses.items():
            self.fields[key + ".witness"] = "; ".join(texts)
        unchecked = [key for key, value in status.items() if value == NOT_CHECKED]
        self.fields["result.failed-checks"] = str(len(rep.failures()))
        self.fields["result.verdict"] = PASS if rep.ok_all else FAIL
        if unchecked:
            self.fields["result.unchecked"] = ",".join(sorted(unchecked))

    @property
    def passed(self) -> bool:
        return self.fields.get("result.verdict") == PASS

    def render(self) -> str:
        lines = []
        for key in sorted(self.fields):
            value = self.fields[key].replace("\n", " ")
            lines.append("%s = %s" % (key, value))
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        """Human summary: failures and verdict first, then the detail."""
        out = []
        verdict = self.fields.get("result.verdict", "?")
        out.append("[%s] %s" % (verdict.upper(), self.fields.get("meta.command", "")))
        for key in sorted(self.fields):
            if key.endswith(".status") and self.fields[key] == FAIL:
                wkey = key[:-len(".status")] + ".witness"
                w = self.fields.get(wkey, "")
                out.append("  FAIL %s%s" % (key[:-len(".status")], (": " + w) if w else ""))
        out.append("  (%s checks recorded)" % sum(1 for k in self.fields if k.endswith(".status")))
        return "\n".join(out) + "\n"
