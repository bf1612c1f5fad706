"""Exception types and the shared enumeration budget."""

# Exhaustive suites refuse to run above this many primary tuples unless
# the caller raises the cap or switches to sampled mode.
DEFAULT_BUDGET = 10**6


class GeometryError(Exception):
    pass


class DimensionMismatch(GeometryError):
    pass


class EnumerationTooLarge(GeometryError):
    pass


class DegenerateAtlas(GeometryError):
    pass


class DegenerateForm(GeometryError):
    pass


class NotCompatible(GeometryError):
    pass


class InvalidSubspace(GeometryError):
    pass


def check_budget(size: int, budget: int, what: str) -> None:
    if size > budget:
        raise EnumerationTooLarge(f"{what}: {size} exceeds budget {budget}")
