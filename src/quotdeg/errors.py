"""Exceptions shared across the package, and `confirm`, the one two-route check."""


class RingMismatchError(ValueError):
    """Operands live in different rings."""


class DomainError(ValueError):
    """Arguments outside an operation's stated domain."""


class CrossCheckError(RuntimeError):
    """Two supposedly equal computation routes disagreed.

    Raised by every dual-route operation (degree pipelines, coefficient
    sums, localisation draws).  It signals a convention corruption, not a
    bad input, so callers should abort rather than retry.  One raised by
    `confirm` keeps `routes`, `values` (got, want) and `instance`.
    """

    routes = None

    def to_json(self) -> dict:
        """The routes, both values and the instance as strings, or {}."""
        if self.routes is None:
            return {}
        values = [_text(value) for value in self.values]
        instance = {key: _text(value) for key, value in self.instance.items()}
        return {"routes": self.routes, "values": values, "instance": instance}


def _text(value) -> str:
    """A list, a tuple or a polynomial's coefficients in brackets, else `str`."""
    entries = getattr(value, "coefficients", value)
    if isinstance(entries, (list, tuple)):
        return "[" + ", ".join(map(str, entries)) + "]"
    return str(value)


def confirm(got, want, routes: str, **instance):
    """Return `got` if it equals `want`, the value of a second route; else raise
    a `CrossCheckError` naming both.  Nothing is formatted unless they differ."""
    if got != want:
        where = ", ".join(f"{key}={_text(value)}" for key, value in instance.items())
        at = f" at {where}" if where else ""
        error = CrossCheckError(f"{routes}{at}: {_text(got)} != {_text(want)}")
        error.routes, error.values, error.instance = routes, (got, want), instance
        raise error
    return got
