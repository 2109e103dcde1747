"""The JSON form of every result: one encoder for reports and CLI bodies.

Tuples and lists print as lists, vertex sets as sorted lists, profiles in
their text form (`Profile.format`), and a `Report` as its `as_dict()`.
This module imports nothing from the package, since the result classes
import it.
"""

from __future__ import annotations

from dataclasses import fields


class Report:
    """Base of the result dataclasses: `as_dict` holds every field that is
    not None, plus `ok` on classes that define that property."""

    def as_dict(self) -> dict:
        out = {
            f.name: jsonable(value)
            for f in fields(self)
            if (value := getattr(self, f.name)) is not None
        }
        if hasattr(type(self), "ok"):
            out["ok"] = self.ok
        return out


class VerificationReport(Report):
    """Base of the bounded verification reports (`MedianVerificationReport`,
    `BenzenoidReport`, `L6Report`): each check only adds to `failures`, and
    the report holds iff none was added."""

    @property
    def ok(self) -> bool:
        return not self.failures


def jsonable(x):
    """A copy of x that `json.dumps` encodes as the reports print it."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (tuple, list)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if isinstance(x, Report):
        return x.as_dict()
    return x.format()  # a Profile, the one remaining value type
