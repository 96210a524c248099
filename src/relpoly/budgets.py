"""Enumeration budgets, overridable through environment variables."""

import os

from .errors import BudgetError, ToolkitError

_DEFAULTS = {
    "RELPOLY_ASSIGNMENT_BUDGET": 10**8,   # assignments enumerated by count_satisfying
    "RELPOLY_TUPLE_BUDGET": 10**7,        # candidate tuples |A|^p per interpretation
    "RELPOLY_DNF_BUDGET": 10**5,          # literals of the johnson/cliqueIntersection formula
    "RELPOLY_BASIS_BUDGET": 10**6,        # partitions, diagrams and quotients of a hom basis
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


def charge_tuples(count: int, what: str) -> None:
    """Refuse to build `count` of `what` (tuples, or vertices and tuples)
    past the tuple budget, before any of them is built."""
    limit = tuple_budget()
    if count > limit:
        raise BudgetError(f"{count} {what} exceed the tuple budget of {limit}")


def dnf_budget() -> int:
    return get("RELPOLY_DNF_BUDGET")


def basis_budget() -> int:
    return get("RELPOLY_BASIS_BUDGET")


def search_budget() -> int:
    return get("RELPOLY_SEARCH_BUDGET")
