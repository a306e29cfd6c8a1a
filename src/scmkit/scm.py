"""Discrete structural causal models with exact enumeration.

A model is a DAG plus, per node, a finite value domain and a
conditional probability table over the parent configurations.  The
table row is the distribution of the node's structural function
applied to an independent uniform, so any two mechanisms inducing the
same rows are interchangeable blueprints for the same joint law.

The joint distribution is enumerated exactly in topological order;
interventions replace a mechanism by a point mass and cut the incoming
edges; sampling realizes each row through the generalized inverse CDF
driven by one uniform stream per node.

Probabilities may be floats or ``fractions.Fraction`` values; all exact
operations (joint, restrict, conditional independence) preserve whichever
arithmetic the tables carry.  A ``Fraction`` joint holds integer numerators
over one denominator, divided only where a probability leaves the table.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
from collections.abc import ItemsView, Mapping, ValuesView
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    CyclicGraphError,
    InvalidArgumentError,
    Record,
    ResourceLimitError,
    ZeroProbabilityError,
)
from .exogenous import DigitStream, uniform_list, uniforms_at
from .graph import Dag, topological_order

# Conditioning events with less mass than this are treated as impossible.
POSITIVITY_CUTOFF = 1e-15

MAX_JOINT_CONFIGS = 10_000_000

# `scm_to_json` writes `meta` back through the recursive `_canonical`, two
# frames a level; a `meta` loaded or written may nest this many levels,
# which fit well inside the default recursion limit of 1,000 frames.
MAX_META_DEPTH = 100

# Samples of fewer draws than this skip numpy: its import costs more than
# hashing them one digit at a time.  Once numpy is loaded, joints of this
# many configurations or more are worked with it too.
_STDLIB_DRAWS = 4096

# A joint loads numpy only from this many configurations on: below
# it, a one-shot command pays more for the import (about 0.2 s) than the
# kernels save.  Both paths give the same values.
_NUMPY_JOINT = 1 << 19

# `_slice` and `joint_distribution` keep the slice plans (`_plan`) of this
# many grids, pins and axes lists, the most recently used: the bench's
# library mix reads about 280.  Worst-case bytes are in `_plan`.
_SLICE_PLANS = 512

# `_slice` keeps the code arrays (`_array_plan`) of this many numpy slices,
# the most recently used, for joints of fewer than `_ARRAY_PLAN_CELLS`
# cells.  Worst-case bytes are in `_array_plan`.
_ARRAY_PLANS = 32
_ARRAY_PLAN_CELLS = 1 << 18


class Domain(Record):
    __slots__ = ("node", "values")

    def __init__(self, node, values: tuple):
        if not values:
            raise InvalidArgumentError(f"empty domain for {node!r}")
        if len(set(values)) != len(values):
            raise InvalidArgumentError(f"duplicate values in domain of {node!r}")
        # Row keys, flags and reports name a value by its `str`, so two
        # values of one spelling could not be told apart.
        spelled = {}
        for v in values:
            if str(v) in spelled:
                raise InvalidArgumentError(
                    f"node {node!r}: domain values {spelled[str(v)]!r} and {v!r} are both "
                    f"written {str(v)!r}"
                )
            spelled[str(v)] = v
        Record.__init__(self, node, values)

    def index(self, value) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise InvalidArgumentError(f"{value!r} not in domain of {self.node!r}") from None


class Cpt(Record):
    """One node's mechanism: parent configuration -> distribution row.

    `table` maps a tuple of parent values (in `parents` order) to a
    probability sequence.  Every row is a distribution, checked here once:
    its entries are numbers (bools included), finite (an int or Fraction
    past the float range is not) and nonnegative, and their sum is 1 within
    1e-12.  The table is read, never changed, once the Cpt is built: the
    check does not run again, so a row written into `table` afterwards
    gives undefined results.
    """

    __slots__ = ("node", "parents", "table")

    def __init__(self, node, parents: tuple, table: dict):
        for cfg, row in table.items():
            _check_row(node, cfg, row)
        Record.__init__(self, node, parents, table)


def _check_row(node, cfg, row) -> None:
    """Refuses a row that is not a distribution."""
    try:
        finite = _finite(row)
    except TypeError:  # `math.isfinite` of a str, None, a list, ...
        raise InvalidArgumentError(
            f"{node!r}: row {_key(cfg)!r} has an entry that is not a number") from None
    if not finite:
        raise InvalidArgumentError(f"{node!r}: row {_key(cfg)!r} has a non-finite probability")
    if min(row, default=0) < 0:
        raise InvalidArgumentError(f"{node!r}: row {_key(cfg)!r} has a negative probability")
    total = _float(sum(row))
    if abs(total - 1.0) > 1e-12:
        raise InvalidArgumentError(f"{node!r}: row {_key(cfg)!r} sums to {total!r}, not 1")


def _check_key(node, parents, values, cfg) -> None:
    """Refuses a row key that is not a configuration of the parents, whose
    domains' values are `values` (collections, one per parent)."""
    if not isinstance(cfg, tuple) or len(cfg) != len(values):
        raise InvalidArgumentError(f"{node!r}: row key {_key(cfg)!r} has wrong arity")
    for v, vals, p in zip(cfg, values, parents):
        if v not in vals:
            raise InvalidArgumentError(f"{node!r}: key value {v!r} not in domain of {p!r}")


def _check_length(node, cfg, row, k: int) -> None:
    """Refuses a row of other than k entries."""
    if len(row) != k:
        raise InvalidArgumentError(f"{node!r}: row {_key(cfg)!r} has length {len(row)}, not {k}")


def _key(cfg) -> str:
    """A row key as the model file spells it: the parent values joined by '|'."""
    return "|".join(map(str, cfg)) if isinstance(cfg, tuple) else str(cfg)


def _fmt_stratum(given: Mapping) -> str:
    return ", ".join(f"{k}={given[k]!r}" for k in sorted(given))


class Intervention(Record, frozen=False):
    __slots__ = ("assignments",)

    def __init__(self, assignments: dict):
        Record.__init__(self, assignments)  # node -> forced value


class Scm:
    """DAG + domains + tables, checked once when built and read-only after.

    Every node has a domain and a table keyed to it, and every domain and
    table belongs to a node.  A table's parents are the node's graph
    parents, each named once; each row key is a configuration of their
    values, and each row holds one entry per value of the node, its `Cpt`
    having checked that the row is a distribution.  A table may lack rows,
    and the graph may have a cycle: `validate_scm` names both.  `domains`
    and `cpts` are read-only views.
    """

    def __init__(self, dag: Dag, domains: dict, cpts: dict, meta: dict | None = None):
        self.dag = dag
        self.domains = MappingProxyType(dict(domains))
        self.cpts = MappingProxyType(dict(cpts))
        self.meta = dict(meta or {})
        for problem, names in (
            ("node {!r} has no domain", dag.nodes - self.domains.keys()),
            ("node {!r} has no table", dag.nodes - self.cpts.keys()),
            ("domain for unknown node {!r}", self.domains.keys() - dag.nodes),
            ("table for unknown node {!r}", self.cpts.keys() - dag.nodes),
        ):
            if names:
                raise InvalidArgumentError(problem.format(min(names, key=str)))
        for node, cpt in self.cpts.items():
            if cpt.node != node:
                raise InvalidArgumentError(f"table keyed to {cpt.node!r} stored under {node!r}")
            parents = dag.parents(node)
            if set(cpt.parents) != set(parents):
                raise InvalidArgumentError(
                    f"{node!r}: table parents {list(cpt.parents)} != graph parents {list(parents)}")
            if len(cpt.parents) != len(parents):
                raise InvalidArgumentError(f"{node!r}: duplicate parent in table")
            values = [self.domains[p].values for p in cpt.parents]
            k = len(self.domains[node].values)
            table = cpt.table
            # Keys that are the first len(table) configurations (a full table's
            # are all of them) pass as one set; other tables, and rows of the
            # wrong length, are checked row by row, naming the first fault.
            if (set(map(len, table.values())) != {k}
                    or table.keys() != set(itertools.islice(itertools.product(*values), len(table)))):
                values = list(map(set, values))
                for cfg, row in table.items():
                    _check_key(node, cpt.parents, values, cfg)
                    _check_length(node, cfg, row, k)

    def __reduce__(self):
        # The read-only views do not pickle; the rebuilt model is checked anew.
        return Scm, (self.dag, dict(self.domains), dict(self.cpts), self.meta)


class JointTable:
    """Exact joint law over the nodes in `order`, stored densely.

    `masses` is one flat list over every configuration, row-major in
    `order` (the last node varies fastest): node j takes the values
    `values[j]`, and the configuration with value codes (c_0, ..., c_n-1)
    sits at sum(c_j * strides[j]).  The law's configurations, its keys, are
    the positions `keys`, in that order; when `keys` is None they are the
    positions of nonzero mass, in row-major order, and `zeros` says whether
    any mass is zero.  `probs` reads the law as {configuration: probability}:
    the masses themselves when `scale` is None, else Fraction(mass, scale),
    the masses being integer numerators over that one denominator.

    Every sum over a table adds its masses one at a time in scan order,
    never pairwise, so a float law is the same to the last bit whether it
    was summed in plain Python or with numpy; `joint_distribution` leaves
    the float64 or int64 array of the masses it built with numpy in `_array`
    and no list: `masses` is then made from it the first time it is read
    (by `probs`, `==` or `repr`), while `_slice`, and so every formula,
    reads only the array.

    `JointTable(order, probs)` builds a table from such a mapping, keeping
    its keys and their order.
    """

    def __init__(self, order, probs: Mapping):
        order = tuple(order)
        values = tuple(tuple(dict.fromkeys(cfg[j] for cfg in probs)) for j in range(len(order)))
        self._set(order, values, [0] * math.prod(map(len, values)), [])
        for cfg, p in probs.items():
            pos = self._position(cfg)
            self.masses[pos] = p
            self.keys.append(pos)
        self._keyset = set(self.keys)

    @classmethod
    def _dense(cls, order, values, masses, keys=None, zeros=True, scale=None) -> "JointTable":
        table = cls.__new__(cls)
        table._set(order, values, masses, keys, zeros, scale)
        return table

    def _set(self, order, values, masses, keys, zeros=True, scale=None):
        if masses is not None:
            self.masses = masses
        self.order, self.values, self.keys = order, values, keys
        self.zeros, self.scale = zeros, scale
        self.sizes = tuple(map(len, values))
        self.strides = tuple(math.prod(self.sizes[j + 1:]) for j in range(len(order)))
        self._keyset = None if keys is None else set(keys)
        self._size = None
        self._lookups = self._array = None

    @functools.cached_property
    def masses(self) -> list:
        """The flat list of a joint built with only its `_array`, made on
        first read and kept: Python floats from float64, ints from int64."""
        return self._array.tolist()

    def index(self, node) -> int:
        try:
            return self.order.index(node)
        except ValueError:
            raise InvalidArgumentError(f"{node!r} not in joint table") from None

    @property
    def probs(self) -> "_Probs":
        return _Probs(self)

    def __eq__(self, other):
        if not isinstance(other, JointTable):
            return NotImplemented
        return self.order == other.order and self.probs == other.probs

    def __repr__(self):
        return f"JointTable({self.order!r}, {self.probs!r})"

    def _position(self, cfg) -> int:
        """Flat position of a configuration tuple; KeyError off the grid."""
        if self._lookups is None:
            self._lookups = [{v: c for c, v in enumerate(vals)} for vals in self.values]
        if not isinstance(cfg, tuple) or len(cfg) != len(self.order):
            raise KeyError(cfg)
        return sum(map(operator.mul, map(dict.__getitem__, self._lookups, cfg), self.strides))


class _Probs(Mapping):
    """Read-only {configuration tuple: probability} view of a JointTable."""

    __slots__ = ("_table",)

    def __init__(self, table: JointTable):
        self._table = table

    def __len__(self):
        t = self._table
        if t._size is None:
            n = len(t.masses)
            t._size = len(t.keys) if t.keys is not None else n - (t.masses.count(0) if t.zeros else 0)
        return t._size

    def __getitem__(self, cfg):
        t = self._table
        pos = t._position(cfg)
        if pos in t._keyset if t.keys is not None else t.masses[pos] != 0:
            return t.masses[pos] if t.scale is None else Fraction(t.masses[pos], t.scale)
        raise KeyError(cfg)

    def __iter__(self):
        t = self._table
        configs = itertools.product(*t.values)
        if t.keys is None:
            return itertools.compress(configs, t.masses)
        return map(list(configs).__getitem__, t.keys)

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def _masses(self):
        t = self._table
        if t.keys is None:
            return _unscaled(t, itertools.compress(t.masses, t.masses))
        return _unscaled(t, map(t.masses.__getitem__, t.keys))

    def __repr__(self):
        return repr(dict(self.items()))


def _unscaled(joint: JointTable, masses):
    """The probabilities that the joint's stored `masses` stand for."""
    return masses if joint.scale is None else map(Fraction, masses, itertools.repeat(joint.scale))


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._masses())


class _Values(ValuesView):
    def __iter__(self):
        return self._mapping._masses()


class Dataset(Record, frozen=False):
    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple, rows: list):
        Record.__init__(self, columns, rows)  # rows: value tuples in collection order

    def column(self, name) -> list:
        try:
            i = self.columns.index(name)
        except ValueError:
            raise InvalidArgumentError(f"unknown column {name!r}") from None
        return [row[i] for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def to_csv(self) -> str:
        """Comma-separated text: a header of the columns, then one line per row."""
        return "".join(",".join(map(str, line)) + "\n" for line in [self.columns, *self.rows])

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    @staticmethod
    def read_csv(path) -> "Dataset":
        """Load a comma-separated file; header row names the columns.

        Values are parsed as int when possible, then as a finite float, and
        kept as strings otherwise.
        """
        lines = [ln for ln in _read_text(path).split("\n") if ln.strip()]
        if not lines:
            raise InvalidArgumentError(f"{path}: empty file")
        columns = tuple(lines[0].split(","))
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(columns):
                raise InvalidArgumentError(f"{path}: row width {len(parts)} != {len(columns)}")
            rows.append(tuple(_auto_value(part, path) for part in parts))
        return Dataset(columns, rows)


def _auto_value(text, path):
    try:
        return int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            return text
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{path}: non-finite value {text!r}")
    return value


def validate_scm(scm: Scm) -> list[str]:
    """The faults construction leaves, as human-readable strings; [] when
    sound: a directed cycle, named by a witness, and each table that lacks
    rows, which the joint allows where no mass reaches."""
    problems: list[str] = []
    try:
        topological_order(scm.dag)
    except CyclicGraphError as exc:
        problems.append(str(exc))
    for node in sorted(scm.dag.nodes, key=str):
        cpt = scm.cpts[node]
        expected = math.prod(len(scm.domains[p].values) for p in cpt.parents)
        if len(cpt.table) != expected:
            problems.append(f"{node!r}: table has {len(cpt.table)} rows, expected {expected}")
    return problems


def _float(p) -> float:
    """`float(p)`, or an infinity of p's sign for an int or Fraction past
    the float range."""
    try:
        return float(p)
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _finite(values) -> bool:
    """Whether every value is finite; an int or Fraction past the float
    range is not, as for `_float`."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def joint_distribution(scm: Scm) -> JointTable:
    """Exact joint law over all nodes, enumerated in topological order.

    The masses grow row-major one node at a time: every configuration of the
    nodes so far is multiplied by its row of the node's table, found from
    the parents' value codes in mixed radix, as `_realize` finds it; while
    the nodes so far have fewer than `_STDLIB_DRAWS` configurations, those
    codes are read from `_plan`, kept by the nodes' sizes and the parents'
    axes, never by values.  A table may lack a row only where no
    configuration with mass reaches it.  A joint of `_STDLIB_DRAWS`
    configurations or more, once numpy is loaded, or of `_NUMPY_JOINT` or
    more, is multiplied out in numpy, with the same IEEE product in every
    float cell while no entry exceeds 1 and integer numerators in int64
    while no mass or sum of masses can reach 2**53; such a joint keeps
    only that array, `_array`, until its `masses` list is first read.
    """
    order = topological_order(scm.dag)
    values = tuple(scm.domains[n].values for n in order)
    sizes = tuple(map(len, values))
    cells = math.prod(sizes)
    if cells > MAX_JOINT_CONFIGS:
        raise ResourceLimitError(f"state space exceeds {MAX_JOINT_CONFIGS} configurations")
    axis = {n: j for j, n in enumerate(order)}
    lcms = _lcms(scm, order)
    fast = cells >= (_STDLIB_DRAWS if "numpy" in sys.modules else _NUMPY_JOINT)
    # A product of nonzero factors that underflows to 0 would blur which
    # configurations are keys.  `floor` bounds every product from below;
    # once it reaches 0, `alive` (0/1 per configuration) tracks the keys
    # instead.  Integer rows never underflow, and no entry exceeds 1 by
    # more than the row check's 1e-12, so no product overflows.  For
    # integer numerators, `bound` is the product of each node's largest row
    # sum (at least 1), which bounds every entry, mass and sum of masses:
    # below 2**53, int64 products and float64 sums of them are exact.
    masses, alive, floor, zeros, bound = [1], None, 1, False, 1
    for j, node in enumerate(order):
        cpt = scm.cpts[node]
        parents = [axis[p] for p in cpt.parents]
        configs = list(itertools.product(*(values[a] for a in parents)))
        rows = [cpt.table.get(cfg) for cfg in configs]
        at = None
        if None in rows:
            at = _layout(sizes[:j], {}, parents)[0]
            for m, r in zip(masses if alive is None else alive, at):
                if m and rows[r] is None:
                    raise _missing_row(cpt, configs[r])
        k = sizes[j]
        rows = [(0,) * k if row is None else row for row in rows]
        if lcms is not None:
            rows = [[p.numerator * (lcms[j] // p.denominator) for p in row] for row in rows]
        entries = list(itertools.chain.from_iterable(rows))
        zeros = zeros or 0 in entries
        if lcms is None:
            floor *= min(filter(None, entries), default=1)
            if alive is None and not floor > 0:
                alive = [1 if m else 0 for m in masses]
        elif fast:
            bound *= max(1, *map(sum, rows))
        # Float masses become a numpy array at the first node of float
        # entries: from there on every nonzero mass is a float in plain
        # Python too, and an int entry p multiplies as float(p) on both
        # paths.  Integer numerators take numpy while `bound` < 2**53.
        if fast and alive is None and (bound < 2**53 if lcms else set(map(type, entries)) <= (
                {float} if isinstance(masses, list) else {float, int})):
            import numpy as np

            dtype = float if lcms is None else np.int64
            # The node's table, its parent axes in grid order, broadcast
            # over the grid of the nodes so far.
            table = np.asarray(rows, dtype=dtype).reshape([sizes[a] for a in parents] + [k])
            table = table.transpose([*sorted(range(len(parents)), key=parents.__getitem__), -1])
            table = table.reshape([sizes[a] if a in parents else 1 for a in range(j)] + [k])
            masses = (np.asarray(masses, dtype=dtype).reshape(sizes[:j] + (1,)) * table).ravel()
            continue
        if not isinstance(masses, list):
            masses = masses.tolist()
        at = at or _layout(sizes[:j], {}, parents)[0]
        if alive is None:
            # A structural zero stays 0 without a multiplication.
            masses = [m * p if m and p else 0 for m, r in zip(masses, at) for p in rows[r]]
        else:
            masses = [m * p for m, r in zip(masses, at) for p in rows[r]]
            alive = [a * (p != 0) for a, r in zip(alive, at) for p in rows[r]]
    keys = None if alive is None else list(itertools.compress(itertools.count(), alive))
    scale = None if lcms is None else math.prod(lcms)
    if isinstance(masses, list):
        return JointTable._dense(tuple(order), values, masses, keys, zeros, scale)
    joint = JointTable._dense(tuple(order), values, None, None, zeros, scale)
    joint._array, joint._size = masses, np.count_nonzero(masses)
    return joint


def _lcms(scm: Scm, order) -> list | None:
    """Per node of `order`, the lcm of its entries' denominators, by which
    `joint_distribution` scales its rows to integers, when every entry is an
    int or a Fraction and some node's nonzero entries are all Fractions, so
    that every nonzero product is a Fraction; else None."""
    lcms, exact = [], False
    for node in order:
        entries = []
        for row in scm.cpts[node].table.values():
            for p in row:
                if not isinstance(p, (int, Fraction)):
                    return None
                entries.append(p)
        exact = exact or not any(p for p in entries if not isinstance(p, Fraction))
        lcms.append(math.lcm(*(p.denominator for p in entries)))
    return lcms if exact else None


def _radix(sizes, axes) -> list:
    """Per-axis offsets of the mixed-radix code of `axes` (in that order):
    value code c of axis a adds offsets[a][c]; other axes add 0."""
    weight, r = [0] * len(sizes), 1
    for a in reversed(axes):
        weight[a] += r
        r *= sizes[a]
    return [range(0, k * w, w) if w else (0,) * k for k, w in zip(sizes, weight)]


def _codes(offsets, base: int = 0) -> list:
    """base plus one offset per axis, at every row-major position of the
    grid whose axis i has the len(offsets[i]) values."""
    codes = [base]
    for steps in reversed(offsets):
        if any(steps):
            shifted = (map(operator.add, codes, itertools.repeat(d)) for d in steps)
            codes = list(itertools.chain.from_iterable(shifted))
        else:
            codes *= len(steps)
    return codes


def _grid(sizes, fixed: dict, axes) -> list:
    """The row-major code on `axes` of every position, in row-major order,
    of the slice of the grid where each axis of `fixed` {axis: code} takes
    its code.  On every axis in order, the codes are the flat positions."""
    offsets = _radix(sizes, axes)
    base = sum(offsets[a][c] for a, c in fixed.items())
    return _codes([offs for a, offs in enumerate(offsets) if a not in fixed], base)


@functools.lru_cache(maxsize=_SLICE_PLANS)
def _plan(sizes: tuple, fixed: tuple, axes: tuple) -> tuple:
    """A slice plan: `_grid(sizes, dict(fixed), axes)` and its distinct
    codes in the order of their first appearance, both as tuples.

    A plan is kept by grid sizes, pins ((axis, code) pairs) and axes, never
    by domain values: 0, 0.0 and False hash alike, so a plan keyed by
    values would give one domain's keys another's types.  `_layout` asks
    only for grids of fewer than `_STDLIB_DRAWS` cells, and the
    `_SLICE_PLANS` most recently used plans are kept.  A plan holds at most
    4,095 codes and 4,095 first appearances: two tuples of 8-byte slots
    and up to 4,095 int objects of 28 bytes, about 180 KB, so all plans
    take at most about 92 MB; the bench's library mix keeps about 0.4 MB.
    Plans are shared between calls, and every caller only reads them."""
    codes = tuple(_grid(sizes, dict(fixed), axes))
    return codes, tuple(dict.fromkeys(codes))


def _layout(sizes: tuple, fixed: dict, axes) -> tuple:
    """`_plan` of a grid of fewer than `_STDLIB_DRAWS` cells; else the
    slice's codes, computed anew, and None for their order."""
    if math.prod(sizes) < _STDLIB_DRAWS:
        return _plan(sizes, tuple(fixed.items()), tuple(axes))
    return _grid(sizes, fixed, axes), None


@functools.lru_cache(maxsize=_ARRAY_PLANS)
def _array_plan(sizes: tuple, fixed: tuple, axes: tuple) -> tuple:
    """`_plan` for numpy: `_grid(sizes, dict(fixed), axes)`, and the
    row-major codes of the free axes among `axes` in grid order, which are
    the slice's distinct codes in the order of their first appearance when
    none of its masses is zero; both read-only arrays of the smallest
    unsigned type that holds every code on `axes`.

    Kept, like `_plan`, by grid sizes, pins and axes; `_slice` asks only for
    joints of fewer than `_ARRAY_PLAN_CELLS` cells (and calls `__wrapped__`
    for larger ones), and the `_ARRAY_PLANS` most recently used plans are
    kept.  A code is below the cell count, so a plan holds at most two
    arrays of 262,143 codes of 4 bytes, 2 MiB, and all plans take at most
    64 MiB; the bench's library mix keeps about 0.4 MB in 15 to 19 plans.
    Every caller only reads them."""
    import numpy as np

    offsets = _radix(sizes, axes)
    base = sum(offsets[a][c] for a, c in fixed)
    dtype = np.min_scalar_type(math.prod(sizes[a] for a in axes) - 1)

    def codes(over):
        # Each axis adds its offsets along its own dimension of the grid.
        shape = [sizes[a] for a in over]
        steps = (np.reshape(offsets[a], [-1 if a == b else 1 for b in over])
                 for a in over if any(offsets[a]))
        grid = np.broadcast_to(sum(steps, base), shape).astype(dtype).ravel()
        grid.flags.writeable = False
        return grid

    pinned = dict(fixed)
    free = [a for a in range(len(sizes)) if a not in pinned]
    return codes(free), codes([a for a in free if any(offsets[a])])


def _slice(joint: JointTable, fixed: dict, axes_lists) -> tuple:
    """The masses of the joint's keys whose value codes match `fixed`
    ({axis: code}; a code of None matches nothing), in key order; for each
    list of axes the row-major code of every such key's values on those
    axes, fixed axes included; and for each list its distinct codes in the
    order of their first appearance, or None where `_sums` must find them.

    Codes and orders come from plans kept by `joint.sizes`, pins and axes,
    never by values, which 0, 0.0 and False share: a joint with an
    `_array` is sliced in numpy and reads its code arrays from
    `_array_plan` (the `_ARRAY_PLANS` most recent, for fewer than
    `_ARRAY_PLAN_CELLS` cells); any other grid of fewer than
    `_STDLIB_DRAWS` cells reads its codes, a pinned slice its flat
    positions, from `_plan` (the `_SLICE_PLANS` most recent).  Orders are
    given only for a joint without zeros.  The codes and orders returned may
    be those shared tuples and read-only arrays: callers only read them."""
    if None in fixed.values():
        return [], [[] for _ in axes_lists], [() for _ in axes_lists]
    sizes, unknown = joint.sizes, [None] * len(axes_lists)
    if joint._array is not None:
        cells = tuple(fixed.get(a, slice(None)) for a in range(len(sizes)))
        masses = joint._array.reshape(sizes)[cells].ravel()
        plan = _array_plan if joint._array.size < _ARRAY_PLAN_CELLS else _array_plan.__wrapped__
        pins = tuple(fixed.items())
        codes, orders = zip(*[plan(sizes, pins, tuple(axes)) for axes in axes_lists])
        if joint.zeros:
            keep = masses != 0
            return masses[keep], [cs[keep] for cs in codes], unknown
        return masses, codes, orders
    if joint.keys is not None:
        keys = joint.keys
        if fixed:
            # A key is in the slice when its code on the pinned axes is theirs.
            on, want = _layout(sizes, {}, fixed)[0], 0
            for a, c in fixed.items():
                want = want * sizes[a] + c
            keys = [pos for pos in keys if on[pos] == want]
        codes = [list(map(_layout(sizes, {}, axes)[0].__getitem__, keys)) for axes in axes_lists]
        return list(map(joint.masses.__getitem__, keys)), codes, unknown
    # Only the matching positions are visited: the grid of the free axes,
    # each fixed axis adding its value's offset to every code.
    codes, orders = zip(*[_layout(sizes, fixed, axes) for axes in axes_lists])
    masses = joint.masses
    if fixed:
        masses = list(map(masses.__getitem__, _layout(sizes, fixed, range(len(sizes)))[0]))
    if joint.zeros:
        codes = [list(itertools.compress(cs, masses)) for cs in codes]
        return list(itertools.compress(masses, masses)), codes, unknown
    return masses, codes, orders


def _sums(codes, masses, size: int, order=None) -> dict:
    """{code: total mass}: masses added one at a time in scan order, codes
    in the order of their first appearance, which `order` gives when
    `_slice` read it from a plan (`_plan` for lists, `_array_plan` for
    arrays; read, never changed).  numpy's `bincount` adds arrays in that
    same order, so both paths give the same floats, and the same ints for
    int64 masses, whose sums stay below 2**53.  Without an `order`, an
    array's is found by a scan (`np.minimum.at`)."""
    if isinstance(masses, list):
        acc = [0] * size
        for c, p in zip(codes, masses):
            acc[c] += p
        return {c: acc[c] for c in (dict.fromkeys(codes) if order is None else order)}
    import numpy as np

    acc = np.bincount(codes, weights=masses, minlength=size)
    if order is None:
        # Each code's first scan position; a code that never appears sorts last.
        first = np.full(size, len(codes))
        np.minimum.at(first, codes, np.arange(len(codes)))
        order = first.argsort()[:np.count_nonzero(first < len(codes))]
    acc = acc[order]
    if masses.dtype == np.int64:
        acc = acc.astype(np.int64)
    return dict(zip(order.tolist(), acc.tolist()))


def restrict(joint: JointTable, targets, given: dict | None = None) -> JointTable:
    """Exact conditional law of `targets` given a partial configuration.

    The conditioning mass, like each cell, is summed one mass at a time in
    scan order (`cumsum` on numpy), never pairwise."""
    given = given or {}
    if isinstance(targets, str):
        targets = (targets,)
    elif isinstance(targets, (set, frozenset)):
        targets = tuple(sorted(targets, key=str))
    else:
        targets = tuple(targets)
    _require_distinct(targets, tuple(given))
    target_axes = [joint.index(n) for n in targets]
    masses, (codes,), (order,) = _slice(joint, _fixed(joint, given), [target_axes])
    if isinstance(masses, list):
        mass = functools.reduce(operator.add, masses, 0)
    else:
        mass = masses.cumsum()[-1].item() if len(masses) else 0
    scale = joint.scale
    if float(mass if scale is None else Fraction(mass, scale)) <= POSITIVITY_CUTOFF:
        raise ZeroProbabilityError(f"conditioning event {given!r} has probability 0")
    values = tuple(joint.values[a] for a in target_axes)
    probs = [0] * math.prod(map(len, values))
    sums = _sums(codes, masses, len(probs), order)
    divide = operator.truediv if scale is None else Fraction
    for c, m in sums.items():
        probs[c] = divide(m, mass)
    return JointTable._dense(targets, values, probs, list(sums))


def _require_distinct(targets: tuple, given: tuple) -> None:
    """Refuses a node named twice in the targets, in the given nodes or in both."""
    if len(set(targets + given)) == len(targets) + len(given):
        return
    for nodes, what in ((targets, "targets"), (given, "conditioning nodes")):
        for i, node in enumerate(nodes):
            if node in nodes[:i]:
                raise InvalidArgumentError(f"{node!r} repeated in {what}")
    raise InvalidArgumentError("targets and conditioning nodes must be disjoint")


def _fixed(joint: JointTable, pins: dict) -> dict:
    """{axis: value code} of a partial configuration {node: value}; a value
    outside its node's domain gets None, which matches no key."""
    fixed = {}
    for node, value in pins.items():
        a = joint.index(node)
        fixed[a] = joint.values[a].index(value) if value in joint.values[a] else None
    return fixed


def _marginals(joint: JointTable, *node_tuples, numerators: bool = False, pins=None) -> list:
    """Unnormalized masses {configuration: mass} of each node tuple; with
    `numerators`, the masses of a `Fraction` joint stay integer numerators
    over its `scale`.  `pins`, one partial configuration {node: value} per
    tuple, keeps only the slice of the joint where those nodes take those
    values.  Tuples with equal pins share one `_slice` pass over their
    slice, so without pins every tuple comes from one pass over the joint.

    Masses accumulate in joint order and keys appear in the order of their
    first configuration, exactly as `restrict` sums them; a slice's masses
    are the same masses in the same order, so a pinned table is the
    unpinned one's matching keys.

    On small grids `_slice` reads each tuple's codes and key order from a
    plan (`_plan`, at most `_SLICE_PLANS` kept) keyed by grid sizes, pins
    and axes, and only reads it; the configurations are built from the
    joint's own values on every call, since 0, 0.0 and False hash alike.
    Each returned table is a new dict.
    """
    axes = [[joint.index(n) for n in nodes] for nodes in node_tuples]
    pins = pins or [{}] * len(axes)
    groups: dict = {}  # frozen pins (() for none) -> positions of the tuples that have them
    for i, p in enumerate(pins):
        groups.setdefault(frozenset(p.items()) if p else (), []).append(i)
    tables = [None] * len(axes)
    for where in groups.values():
        p = pins[where[0]]
        masses, codes, orders = _slice(joint, _fixed(joint, p) if p else {}, [axes[i] for i in where])
        for i, cs, order in zip(where, codes, orders):
            configs = list(itertools.product(*(joint.values[a] for a in axes[i])))
            sums = _sums(cs, masses, len(configs), order)
            totals = sums.values() if numerators else _unscaled(joint, sums.values())
            tables[i] = dict(zip(map(configs.__getitem__, sums), totals))
    return tables


def conditional_laws(joint: JointTable, targets: tuple, given_nodes: tuple) -> dict:
    """P(targets | given) for every configuration of the given nodes.

    Returns {given_cfg: {target_cfg: probability}} from one scan of the
    joint.  Each law equals, value for value and in the same key order,
    what `restrict(joint, targets, dict(zip(given_nodes, given_cfg)))`
    returns; strata with mass at or below POSITIVITY_CUTOFF are left out.
    """
    return _conditional_laws(joint, [(tuple(targets), tuple(given_nodes))])[0][0]


def _conditional_laws(joint: JointTable, pairs, support=()) -> tuple:
    """`conditional_laws` for each (targets, given) or (targets, given,
    pins) pair, and the sorted values the joint's keys give each node in
    `support`, all from one `_marginals` call over the distinct given and
    given + targets tuples.  A pair's `pins` {node: value} hold some of its
    given nodes at one value each: its laws are then the unpinned laws of
    those strata alone, summed and divided over that slice of the joint;
    `_marginals` reads each distinct set of pins' slice in one pass.  A
    support is read from unpinned tuples only."""
    tuples: dict = {}  # (nodes, frozen pins) -> pins, in the order asked
    factors = []
    for targets, given, *pins in pairs:
        _require_distinct(targets, given)
        pins = pins[0] if pins else {}
        if pins and not pins.keys() <= set(given):
            raise InvalidArgumentError("only conditioning nodes can be pinned")
        pinned = frozenset(pins.items()) if pins else ()
        g, cells = (given, pinned), (given + targets, pinned)
        factors.append((g, cells, len(given)))
        tuples.setdefault(g, pins)
        tuples.setdefault(cells, pins)
    tables = dict(zip(tuples, _marginals(
        joint, *(nodes for nodes, _ in tuples), numerators=True, pins=list(tuples.values()))))
    laws = [_divide(tables[g], tables[cells], k, joint.scale) for g, cells, k in factors]
    values = []
    for n in support:
        nodes = next((nodes for nodes, pinned in tuples if not pinned and n in nodes), None)
        if nodes is None:
            raise InvalidArgumentError(f"support node {n!r} is in no unpinned factor")
        values.append(_sorted({key[nodes.index(n)] for key in tables[nodes, ()]}))
    return laws, values


def _divide(masses: dict, cells: dict, k: int, scale=None) -> dict:
    """{given: {target: cell mass / given mass}} from masses keyed by the
    given configuration and cells keyed by it plus the target's; strata
    at or below POSITIVITY_CUTOFF are left out.  With a `scale`, masses
    and cells are integer numerators over it, each divided once as
    Fraction(cell, given)."""
    laws: dict = {
        g: {} for g, mass in masses.items()
        if float(mass if scale is None else Fraction(mass, scale)) > POSITIVITY_CUTOFF
    }
    divide = operator.truediv if scale is None else Fraction
    for key, mass in cells.items():
        law = laws.get(key[:k])
        if law is not None:
            law[key[k:]] = divide(mass, masses[key[:k]])
    return laws


def _sorted(values) -> list:
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=str)


def intervene(scm: Scm, iv: Intervention) -> Scm:
    """Mutilated model: forced nodes become parentless point masses."""
    for node, value in iv.assignments.items():
        if node not in scm.dag.nodes:
            raise InvalidArgumentError(f"unknown intervention target {node!r}")
        scm.domains[node].index(value)  # raises when out of domain
    targets = set(iv.assignments)
    edges = {(u, v) for u, v in scm.dag.edges if v not in targets}
    dag = Dag(scm.dag.nodes, edges)
    cpts = dict(scm.cpts)
    for node, value in iv.assignments.items():
        values = scm.domains[node].values
        row = tuple(1 if v == value else 0 for v in values)
        cpts[node] = Cpt(node, (), {(): row})
    return Scm(dag, scm.domains, cpts, scm.meta)


def sample(scm: Scm, source: DigitStream, n: int) -> Dataset:
    """n rows drawn mechanism-by-mechanism, one uniform stream per node.

    Row i consumes draw i of each node's stream, so extending n keeps
    the earlier rows unchanged.
    """
    if n < 0:
        raise InvalidArgumentError(f"sample size must be >= 0, got {n}")
    order = topological_order(scm.dag)
    columns = _realize(scm, order, source, 0, n)
    return Dataset(tuple(order), list(zip(*(columns[nd] for nd in order))))


def _realize(scm: Scm, order, source: DigitStream, start: int, count: int) -> dict:
    """Rows start .. start+count-1 of every node, as {node: list of values}.

    Node j of the topological `order` maps draw u of diagonal row j+1 to
    min{x : F(x) >= u} at its realized parents: parent codes index a
    cumulative table (one row per configuration, in itertools.product order)
    in mixed radix, and the count of thresholds below u, bar the last, is
    searchsorted(side="left") capped at the top value.  Fewer than
    `_STDLIB_DRAWS` draws are counted in plain Python, more with numpy;
    both give the same codes.
    """
    small = count * len(order) < _STDLIB_DRAWS
    if not small:
        import numpy as np

    codes: dict = {}
    for j, node in enumerate(order):
        cpt = scm.cpts[node]
        configs = list(itertools.product(*(scm.domains[p].values for p in cpt.parents)))
        try:
            rows = [cpt.table[cfg] for cfg in configs]
        except KeyError as exc:
            raise _missing_row(cpt, exc.args[0]) from None
        radix = [(len(scm.domains[p].values), codes[p]) for p in cpt.parents]
        if small:
            cum = [list(itertools.accumulate(map(float, row)))[:-1] for row in rows]
            index = [0] * count
            for k, parent in radix:
                index = [i * k + c for i, c in zip(index, parent)]
            u = uniform_list(source, j + 1, start, count)
            codes[node] = [sum(t < x for t in cum[i]) for i, x in zip(index, u)]
        else:
            cum = np.cumsum(np.asarray(rows, dtype=float), axis=1)
            index = 0
            for k, parent in radix:
                index = index * k + parent
            u = uniforms_at(source, j + 1, start, count)
            codes[node] = np.count_nonzero(cum[index, :-1] < u[:, None], axis=1)
    if not small:
        codes = {node: c.tolist() for node, c in codes.items()}
    return {node: list(map(scm.domains[node].values.__getitem__, codes[node])) for node in order}


def _missing_row(cpt: Cpt, cfg: tuple) -> InvalidArgumentError:
    return InvalidArgumentError(
        f"{cpt.node!r}: table lacks the row for parents {list(cpt.parents)} = {list(cfg)}"
    )


def cond_independent(joint: JointTable, a, b, c, tol: float = 1e-12):
    """Whether A and B are independent given C, with the worst deviation.

    Checks |P(a,b|c) - P(a|c)P(b|c)| <= tol over every c with positive
    probability; returns (verdict, max deviation).
    """
    a, b, c = (tuple(sorted(s, key=str)) for s in (a, b, c))
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise InvalidArgumentError("node sets must be pairwise disjoint")
    if not a or not b:
        return True, 0.0
    return _ci_verdict(*_conditional_laws(joint, [(a + b, c), (a, c), (b, c)])[0], tol)


def _ci_verdict(ab: dict, pa: dict, pb: dict, tol: float) -> tuple:
    """`cond_independent`'s answer from the laws (a + b | c), (a | c), (b | c)."""
    worst = 0.0
    for c_cfg, law_ab in ab.items():
        for a_cfg, p_a in pa[c_cfg].items():
            for b_cfg, p_b in pb[c_cfg].items():
                p_ab = law_ab.get(a_cfg + b_cfg, 0)
                dev = abs(float(p_ab) - float(p_a) * float(p_b))
                worst = max(worst, dev)
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# Model file format

def _format_number(x) -> str:
    return f"{float(x):.17g}"


def _canonical(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float) and not math.isfinite(obj):
        raise InvalidArgumentError(f"cannot serialize non-finite number {obj!r}")
    if isinstance(obj, (float, Fraction)):
        return _format_number(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {_canonical(v)}" for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_canonical(v) for v in obj) + "]"
    raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")


def scm_to_json(scm: Scm) -> str:
    """Canonical text form; identical models serialize byte-identically."""
    _check_meta_depth(scm.meta)
    nodes = []
    for node in sorted(scm.dag.nodes, key=str):
        dom = scm.domains[node]
        cpt = scm.cpts[node]
        for v in dom.values:
            if isinstance(v, str) and ("|" in v or v == ""):
                raise InvalidArgumentError(
                    f"domain value {v!r} of {node!r} cannot appear in a row key"
                )
        # A key part is spelled as the loader reads the domain value back:
        # the float 0.0 is written 0 and read as the integer 0.
        table = {
            "|".join(str(json.loads(_canonical(v))) for v in cfg): [float(p) for p in row]
            for cfg, row in cpt.table.items()
        }
        nodes.append(
            {
                "id": str(node),
                "domain": list(dom.values),
                "parents": [str(p) for p in cpt.parents],
                "table": table,
            }
        )
    return _canonical({"meta": scm.meta, "nodes": nodes}) + "\n"


def _field(obj, name: str, kind: type, where: str, default=None):
    """obj[name], of type `kind`; required unless a default is given."""
    if not isinstance(obj, dict) or (name not in obj and default is None):
        raise InvalidArgumentError(f"{where} lacks a {name!r} field")
    value = obj.get(name, default)
    if not isinstance(value, kind):
        raise InvalidArgumentError(
            f"{where}: {name!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _check_meta_depth(meta: dict) -> None:
    """Refuse a `meta` nested deeper than `scm_to_json` can write back."""
    level, containers = 0, [meta]
    while containers:
        level += 1
        if level > MAX_META_DEPTH:
            raise InvalidArgumentError(f"model document: 'meta' nests deeper than {MAX_META_DEPTH} levels")
        containers = [v for c in containers for v in (c.values() if isinstance(c, dict) else c)
                      if isinstance(v, (dict, list, tuple))]


def scm_from_dict(doc: dict) -> Scm:
    entries = _field(doc, "nodes", list, "model document")
    meta = _field(doc, "meta", dict, "model document", {})
    _check_meta_depth(meta)
    domains, cpts, edges, ids = {}, {}, set(), []
    for i, entry in enumerate(entries):
        node = _field(entry, "id", str, f"node entry {i}")
        for name, kind in (("domain", list), ("parents", list), ("table", dict)):
            _field(entry, name, kind, f"node {node!r}")
        if any(isinstance(v, (list, dict)) for v in entry["domain"]):
            raise InvalidArgumentError(f"node {node!r}: domain values must be scalars")
        ids.append(node)
        domains[node] = Domain(node, tuple(entry["domain"]))
    for entry in entries:
        node = entry["id"]
        parents = tuple(entry["parents"])
        for p in parents:
            if not isinstance(p, str) or p not in domains:
                raise InvalidArgumentError(f"{node!r} lists unknown parent {p!r}")
            edges.add((p, node))
        values = [domains[p].values for p in parents]
        lookups = [{str(v): v for v in vals} for vals in values]
        table = {}
        # Each row is checked as it is read, by the checks `Cpt` and `Scm`
        # make, so that a document with several faults names its first.
        for key, row in entry["table"].items():
            # A part that names no value of its parent stays text (as do
            # parts past the parents), which `_check_key` refuses.
            parts = [] if key == "" else key.split("|")
            cfg = tuple(map(dict.get, lookups + [{}] * len(parts), parts, parts))
            _check_key(node, parents, values, cfg)
            if not isinstance(row, list) or not all(type(p) in (int, float) for p in row):
                raise InvalidArgumentError(f"{node!r}: row {key!r} must be a list of numbers")
            _check_length(node, cfg, row, len(domains[node].values))
            # An integer past the float range counts as infinite.
            table[cfg] = tuple(float(p) if abs(p) < 1e308 else math.inf for p in row)
            _check_row(node, cfg, table[cfg])
        cpts[node] = Cpt(node, parents, table)
    if len(set(ids)) != len(ids):
        raise InvalidArgumentError("duplicate node ids in model document")
    return Scm(Dag(ids, edges), domains, cpts, meta)


def scm_from_json(text: str) -> Scm:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an int too long
        raise InvalidArgumentError(f"model is not valid JSON: {exc}") from None
    return scm_from_dict(doc)


def save_model(scm: Scm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scm_to_json(scm))


def load_model(path) -> Scm:
    return scm_from_json(_read_text(path))


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path}: {exc}") from None
