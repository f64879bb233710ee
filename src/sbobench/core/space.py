"""Mixed search spaces: variables, conditionality, points and sampling.

A search space is an ordered collection of continuous, integer and
categorical variables.  A point is the plain tuple of its values, in
the space's declaration order.  A variable may be conditional on a
categorical parent taking one specific category; inactive variables
still carry a value in every point, and activity is computed by the
space from those values, not stored.  Categorical values are handled
ordinally (by index) wherever a numeric view is needed.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

CONTINUOUS = "continuous"
INTEGER = "integer"
CATEGORICAL = "categorical"

_KINDS = (CONTINUOUS, INTEGER, CATEGORICAL)


@dataclass(frozen=True)
class Condition:
    """Activation rule: active iff ``parent`` takes ``category``."""

    parent: str
    category: str


@dataclass(frozen=True)
class VariableSpec:
    """One variable of a search space.

    :param name: unique identifier within the space
    :param kind: ``continuous``, ``integer`` or ``categorical``
    :param lower: inclusive lower bound (continuous / integer)
    :param upper: inclusive upper bound (continuous / integer)
    :param categories: ordered category labels (categorical)
    :param condition: optional activation rule tied to a categorical parent
    """

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    categories: tuple[str, ...] | None = None
    condition: Condition | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.lower is not None or self.upper is not None:
                raise ValueError(f"{self.name}: categorical variables take no bounds")
            if self.categories is None:
                raise ValueError(f"{self.name}: categorical variable needs categories")
            cats = tuple(str(c) for c in self.categories)
            if len(cats) < 2:
                raise ValueError(f"{self.name}: need at least two categories")
            if len(set(cats)) != len(cats):
                raise ValueError(f"{self.name}: duplicate categories")
            object.__setattr__(self, "categories", cats)
        else:
            if self.categories is not None:
                raise ValueError(f"{self.name}: only categorical variables take categories")
            if self.lower is None or self.upper is None:
                raise ValueError(f"{self.name}: bounds are required")
            lo, hi = float(self.lower), float(self.upper)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"{self.name}: bounds must be finite")
            if lo >= hi:
                raise ValueError(f"{self.name}: lower bound must be below upper bound")
            if self.kind == INTEGER and (lo != int(lo) or hi != int(hi)):
                raise ValueError(f"{self.name}: integer bounds must be whole numbers")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)


@dataclass(frozen=True)
class SearchSpace:
    """Ordered, validated collection of :class:`VariableSpec`."""

    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        variables = tuple(self.variables)
        if not variables:
            raise ValueError("a search space needs at least one variable")
        object.__setattr__(self, "variables", variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        by_name = {v.name: v for v in variables}
        for v in variables:
            if v.condition is None:
                continue
            parent = by_name.get(v.condition.parent)
            if parent is None:
                raise ValueError(f"{v.name}: condition parent {v.condition.parent!r} does not exist")
            if parent.kind != CATEGORICAL:
                raise ValueError(f"{v.name}: condition parent {parent.name!r} is not categorical")
            if v.condition.category not in parent.categories:
                raise ValueError(
                    f"{v.name}: condition category {v.condition.category!r} "
                    f"is not a category of {parent.name!r}"
                )
        # Reject circular conditions by walking each parent chain.
        for v in variables:
            seen = {v.name}
            cur = v
            while cur.condition is not None:
                nxt = by_name[cur.condition.parent]
                if nxt.name in seen:
                    raise ValueError(f"circular condition involving {nxt.name!r}")
                seen.add(nxt.name)
                cur = nxt

    @property
    def dimension(self) -> int:
        return len(self.variables)

    @cached_property
    def _index(self) -> dict:
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def _topo_order(self) -> tuple:
        """Declaration-stable order with parents before children."""
        placed: list[int] = []
        done = set()
        remaining = list(range(len(self.variables)))
        while remaining:
            for i in remaining:
                v = self.variables[i]
                if v.condition is None or v.condition.parent in done:
                    placed.append(i)
                    done.add(v.name)
                    remaining.remove(i)
                    break
            else:  # pragma: no cover - unreachable after acyclicity check
                raise ValueError("conditions are not acyclic")
        return tuple(placed)

    @cached_property
    def _conditions(self) -> tuple:
        """(child, parent, category) per conditional variable, parents before children."""
        return tuple(
            (i, self._index[cond.parent], cond.category)
            for i in self._topo_order
            if (cond := self.variables[i].condition) is not None
        )

    @cached_property
    def _draw_plan(self) -> tuple:
        """One ``(continuous, lower, size, domains)`` draw per run of like variables.

        The runs split ``_topo_order`` into maximal stretches of continuous
        variables and of integer-or-categorical ones.  A continuous run is
        ``lower + size * rng.random(k)``, with ``size`` its widths; any
        other run is one ``rng.integers(0, size)`` call whose draws index
        each variable's ``domains`` entry (``range(lower, upper + 1)`` or
        its categories), ``size`` being the domains' lengths.
        """
        plan = []
        for continuous, run in itertools.groupby(
            (self.variables[i] for i in self._topo_order), key=lambda v: v.kind == CONTINUOUS
        ):
            run = tuple(run)
            if continuous:
                lower = np.array([v.lower for v in run])
                size = np.array([v.upper for v in run]) - lower
                if not np.isfinite(size).all():  # as rng.uniform(lower, upper) refuses
                    raise OverflowError("high - low range exceeds valid bounds")
                plan.append((True, lower, size, None))
            else:
                domains = tuple(
                    v.categories if v.kind == CATEGORICAL
                    else range(int(v.lower), int(v.upper) + 1)
                    for v in run
                )
                plan.append((False, None, np.array([len(d) for d in domains], dtype=np.int64),
                             domains))
        return tuple(plan)

    @cached_property
    def _from_topo_order(self) -> tuple | None:
        """Where each declared variable sits in ``_topo_order``; None when they agree."""
        order = self._topo_order
        if order == tuple(range(len(order))):
            return None
        position = [0] * len(order)
        for k, i in enumerate(order):
            position[i] = k
        return tuple(position)

    @cached_property
    def _checks(self) -> tuple:
        """``(name, kind, lower, upper, categories)`` per variable, for :func:`validate_point`;
        ``categories`` is a frozenset, or None for a numeric variable."""
        return tuple((v.name, v.kind, v.lower, v.upper,
                      None if v.categories is None else frozenset(v.categories))
                     for v in self.variables)

    def index(self, name: str) -> int:
        return self._index[name]

    def activity(self, values: Sequence) -> tuple:
        """Activity flags implied by the conditional rules for ``values``."""
        active = [True] * len(self.variables)
        for i, p, category in self._conditions:
            active[i] = active[p] and values[p] == category
        return tuple(active)

    def make_point(self, values: Mapping[str, object]) -> tuple:
        """Build a point, the tuple of its values in declaration order, from a mapping.

        Values are coerced to their storage types (float / int / str).
        Bounds are not checked here -- that is :func:`validate_point`'s job.
        """
        missing = [v.name for v in self.variables if v.name not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        extra = [k for k in values if k not in self._index]
        if extra:
            raise ValueError(f"unknown variables {extra}")
        row = []
        for v in self.variables:
            raw = values[v.name]
            if v.kind == CONTINUOUS:
                row.append(float(raw))
            elif v.kind == INTEGER:
                if float(raw) != int(raw):
                    raise ValueError(f"{v.name}: integer variable got non-integral {raw!r}")
                row.append(int(raw))
            else:
                row.append(str(raw))
        return tuple(row)

    def as_mapping(self, point: tuple) -> dict:
        return {v.name: point[i] for i, v in enumerate(self.variables)}


def validate_point(space: SearchSpace, point: tuple) -> str | None:
    """Check a point against a space.

    Returns ``None`` when every value fits its variable's type and domain,
    otherwise a message naming the first offending variable.
    Bounds are compared exactly, so an ``int`` too large for a float is
    out of bounds rather than an error.
    """
    n = len(space.variables)
    if len(point) != n:
        return f"point has {len(point)} values for a {n}-variable space"
    for val, (name, kind, lower, upper, categories) in zip(point, space._checks):
        if kind == CONTINUOUS:
            if (isinstance(val, bool) or not isinstance(val, (int, float))
                    or (isinstance(val, float) and not math.isfinite(val))):
                return f"{name} is not a finite number"
            if not (lower <= val <= upper):
                return f"{name} out of bounds"
        elif kind == INTEGER:
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                return f"{name} is not an integer"
            if not (lower <= int(val) <= upper):
                return f"{name} out of bounds"
        elif not (isinstance(val, str) and val in categories):  # a list is not hashable
            return f"{name} is not a valid category"
    return None


def sample_uniform(space: SearchSpace, rng: np.random.Generator) -> tuple:
    """Draw one point uniformly, each variable over its own domain.

    Variables are drawn in dependency order (parents before children,
    declaration order otherwise) so the stream layout is documented and
    reproducible.  Conditional variables are sampled whether or not they
    end up active.

    Each run of like variables in that order is one generator call (see
    ``SearchSpace._draw_plan``).  An array call consumes the stream
    element by element exactly as one scalar call per variable would,
    so the values and the generator's final state are those of
    ``rng.uniform(lower, upper)`` per continuous variable (which is
    ``lower + (upper - lower) * rng.random()``),
    ``rng.integers(lower, upper + 1)`` per integer one (``lower`` plus a
    draw that depends only on the range's length) and
    ``rng.integers(0, len(categories))`` per categorical one.
    """
    drawn: list = []
    for continuous, lower, size, domains in space._draw_plan:
        if continuous:
            drawn += (lower + size * rng.random(len(size))).tolist()
        else:
            drawn += map(operator.getitem, domains, rng.integers(0, size).tolist())
    position = space._from_topo_order
    return tuple(drawn) if position is None else tuple([drawn[k] for k in position])


def variable_to_jsonable(v: VariableSpec) -> dict:
    out: dict = {"name": v.name, "kind": v.kind}
    if v.kind == CATEGORICAL:
        out["categories"] = list(v.categories)
    else:
        out["lower"] = v.lower
        out["upper"] = v.upper
    if v.condition is not None:
        out["condition"] = {"parent": v.condition.parent, "category": v.condition.category}
    return out


def variable_from_jsonable(data: Mapping) -> VariableSpec:
    cond = data.get("condition")
    return VariableSpec(
        name=data["name"],
        kind=data["kind"],
        lower=data.get("lower"),
        upper=data.get("upper"),
        categories=tuple(data["categories"]) if "categories" in data else None,
        condition=Condition(cond["parent"], cond["category"]) if cond else None,
    )


def space_to_jsonable(space: SearchSpace) -> list:
    return [variable_to_jsonable(v) for v in space.variables]


def space_from_jsonable(data: Sequence[Mapping]) -> SearchSpace:
    return SearchSpace(tuple(variable_from_jsonable(d) for d in data))
