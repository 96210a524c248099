"""Enumeration budgets, overridable through environment variables."""

import os

from .errors import ToolkitError

_DEFAULTS = {
    "RELPOLY_ASSIGNMENT_BUDGET": 10**8,   # assignments enumerated by count_satisfying
    "RELPOLY_TUPLE_BUDGET": 10**7,        # candidate tuples |A|^p per interpretation
    "RELPOLY_DNF_BUDGET": 10**5,          # literal instances in a DNF expansion
    "RELPOLY_BASIS_BUDGET": 10**6,        # intermediate terms in the hom-basis pipeline
    "RELPOLY_SEARCH_BUDGET": 10**8,       # candidate images tried by one hom/inj/ind count
}


def get(name: str) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return _DEFAULTS[name]
    if not (raw.isascii() and raw.isdigit()):
        raise ToolkitError(f"{name} must be a non-negative integer, got {raw!r}")
    return int(raw)


def assignment_budget() -> int:
    return get("RELPOLY_ASSIGNMENT_BUDGET")


def tuple_budget() -> int:
    return get("RELPOLY_TUPLE_BUDGET")


def dnf_budget() -> int:
    return get("RELPOLY_DNF_BUDGET")


def basis_budget() -> int:
    return get("RELPOLY_BASIS_BUDGET")


def search_budget() -> int:
    return get("RELPOLY_SEARCH_BUDGET")
