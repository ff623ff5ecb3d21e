"""Exception hierarchy shared across the package."""


class RclkitError(Exception):
    pass


class PresentationError(RclkitError):
    """Structurally ill-formed presentation data."""


class InputError(RclkitError):
    """Unreadable or unresolvable workspace input (CLI exit code 2)."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class PreconditionError(RclkitError):
    """A stated hypothesis of an operation fails; carries the witness."""

    def __init__(self, message: str, witness: str = ""):
        self.witness = witness
        super().__init__(message)


class UndecidedError(RclkitError):
    """A search could neither find its object nor prove that none exists;
    the check that asked records not-checked with this reason."""


class InconsistentDataError(RclkitError):
    """Input passed local checks but a guaranteed construction failed
    (CLI exit code 3)."""
