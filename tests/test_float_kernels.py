"""Joints give the same laws on numpy as in plain Python.

A joint of `scm._STDLIB_DRAWS` configurations or more (once numpy is
loaded; else `scm._NUMPY_JOINT`) is multiplied out and summed in numpy:
float masses in float64, and the integer numerators of a `Fraction` joint
in int64 for as long as no mass or sum of masses can reach 2**53.
Patching both cutoffs to 0 sends every such joint there and patching them
to 1 << 62 sends none, so every law, formula result and error can be
compared between the two paths: the same values to the last bit, in the
same key order, with the same Python number types.
"""

import functools
import math
import operator
import random
from collections.abc import Mapping
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scmkit import scm as scm_module
from scmkit.errors import InvalidArgumentError, Record, ScmError
from scmkit.graph import Dag
from scmkit.identify import adjust
from scmkit.scm import (
    Cpt,
    Domain,
    JointTable,
    Scm,
    _marginals,
    cond_independent,
    conditional_laws,
    joint_distribution,
    restrict,
)

from structures import fill, sparse_model, with_tables
from test_scans import CALLS, exact
from test_scm import _forced

CUTOFFS = {"numpy": 0, "python": 1 << 62}


def joint_on(path: str, scm: Scm) -> JointTable:
    """`joint_distribution` forced onto one path; the scans of the table
    follow the path it was built on."""
    with mock.patch.object(scm_module, "_STDLIB_DRAWS", CUTOFFS[path]), \
            mock.patch.object(scm_module, "_NUMPY_JOINT", CUTOFFS[path]):
        return joint_distribution(scm)


def typed(obj):
    """`obj` spelled out with the type of every number, key and record, in
    key order, so that equal spellings mean bit-identical results."""
    if isinstance(obj, JointTable):
        return "JointTable", typed(obj.order), typed(obj.probs)
    if isinstance(obj, Mapping):
        return [(typed(k), typed(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return type(obj).__name__, [typed(x) for x in obj]
    if isinstance(obj, Record):
        return type(obj).__name__, typed(obj._astuple())
    return type(obj).__name__, repr(obj)


def outcome(call, *args):
    """The typed result of call(*args), or the error it raised."""
    try:
        return typed(call(*args))
    except ScmError as exc:
        return type(exc).__name__, str(exc)


def same_on_both_paths(scm: Scm, *calls) -> JointTable:
    """Assert that the joint and each call on it agree across the paths;
    return the numpy path's joint."""
    joints = {path: joint_on(path, scm) for path in CUTOFFS}
    assert typed(joints["numpy"]) == typed(joints["python"])
    assert joints["python"]._array is None
    for call in calls:
        assert outcome(call, joints["numpy"]) == outcome(call, joints["python"])
    return joints["numpy"]


def numerator_bound(scm: Scm) -> int:
    """The product over the nodes of the largest row sum (at least 1) of a
    `Fraction` model's tables, each scaled to integers by the lcm of its
    denominators: below 2**53 the joint's numerators stay on int64."""
    bound = 1
    for cpt in scm.cpts.values():
        lcm = math.lcm(*(p.denominator for row in cpt.table.values() for p in row))
        bound *= max(1, *(int(sum(row) * lcm) for row in cpt.table.values()))
    return bound


def float_entries(scm: Scm) -> bool:
    """Whether some entry of the model's tables is a float: its joint is then
    a float joint, which goes to numpy whatever its entries' size."""
    return any(isinstance(p, float) for cpt in scm.cpts.values() for row in cpt.table.values() for p in row)


def one_hot(scm: Scm) -> Scm:
    """The model with each row replaced by the int point mass on its
    largest entry: an all-int model."""
    cpts = {
        n: Cpt(n, cpt.parents, {
            cfg: tuple(int(i == row.index(max(row))) for i in range(len(row)))
            for cfg, row in cpt.table.items()
        })
        for n, cpt in scm.cpts.items()
    }
    return Scm(scm.dag, scm.domains, cpts)


def mixed(scm: Scm) -> Scm:
    """The model with its first node's rows made Fractions, the others
    float: a joint that starts as Fractions and turns float."""
    first = sorted(scm.dag.nodes)[0]
    return with_tables(scm, exact(scm).cpts[first])


def underflowing(scm: Scm) -> Scm:
    """The model with one entry of every row set to 1e-200: products of
    three such entries underflow to 0."""
    tiny = 1e-200
    cpts = {
        n: Cpt(n, cpt.parents, {
            cfg: (tiny,) + tuple((1 - tiny) / (len(row) - 1) for _ in row[1:]) if len(row) > 1 else row
            for cfg, row in cpt.table.items()
        })
        for n, cpt in scm.cpts.items()
    }
    return Scm(scm.dag, scm.domains, cpts)


KINDS = {
    "float": lambda seed: sparse_model(seed),
    "forced": lambda seed: _forced(sparse_model(seed), seed % 6, seed % 3),
    "all-int": lambda seed: one_hot(sparse_model(seed)),
    "fraction": lambda seed: sparse_model(seed, exact=True),
    "mixed": lambda seed: mixed(sparse_model(seed)),
    "underflow": lambda seed: underflowing(sparse_model(seed)),
}


class TestLaws:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(KINDS)), seed=st.integers(0, 2**20), data=st.data())
    def test_every_law_is_the_same_on_both_paths(self, kind, seed, data):
        scm = KINDS[kind](seed)
        order = sorted(scm.dag.nodes)
        perm = data.draw(st.permutations(order))
        k = data.draw(st.integers(1, len(order) - 1))
        targets, rest = tuple(perm[:k]), tuple(perm[k:])
        given = {n: data.draw(st.sampled_from(scm.domains[n].values)) for n in rest[:2]}
        a, b, c = perm[0], perm[-1], tuple(perm[1:2])
        t, r = data.draw(st.sampled_from(order)), data.draw(st.sampled_from(order))
        z = tuple(p for p in scm.cpts[t].parents if p != r)
        t_val = data.draw(st.sampled_from(scm.domains[t].values))
        joint = same_on_both_paths(
            scm,
            lambda j: restrict(j, targets),
            lambda j: restrict(j, targets, given),
            lambda j: _marginals(j, targets, rest, targets + rest),
            lambda j: _marginals(j, rest, numerators=True),
            lambda j: conditional_laws(j, targets, rest),
            lambda j: cond_independent(j, {a}, {b}, set(c)),
            lambda j: adjust(j, t, t_val, r, z),
        )
        # Float joints reach numpy, and exact ones too while their bound
        # allows; all-int joints and an underflowing product keep the
        # plain-Python path, which tracks the keys.
        if kind in ("float", "forced"):
            assert joint._array is not None
        if kind == "fraction":
            on_int64 = joint._array is not None and joint._array.dtype == np.int64
            assert on_int64 == (numerator_bound(scm) < 2**53)
        if kind == "all-int" or joint.keys is not None:
            assert joint._array is None

    def test_an_underflowed_product_stays_on_the_python_path(self):
        tiny = 1e-200
        dag = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        row = (tiny, 1 - tiny)
        scm = Scm(dag, {n: Domain(n, (0, 1)) for n in "ABC"},
                  {"A": Cpt("A", (), {(): row}),
                   "B": Cpt("B", ("A",), {(0,): row, (1,): row}),
                   "C": Cpt("C", ("B",), {(0,): row, (1,): row})})
        joint = same_on_both_paths(scm, lambda j: restrict(j, ("C",)),
                                   lambda j: _marginals(j, ("A", "C")))
        assert joint._array is None
        assert joint.keys is not None and joint.probs[(0, 0, 0)] == 0.0

    def test_wide_magnitudes_are_summed_in_order_not_pairwise(self):
        # 4,096 masses over 60 decades: numpy's pairwise np.sum differs from
        # the sequential sum in the last bits, and every law must not.
        rng = random.Random(11)
        n = 4096
        weights = [10.0 ** (-60 * rng.random()) for _ in range(n)]
        total = functools.reduce(operator.add, weights)
        dag = Dag(["A", "B"], [("A", "B")])
        rows = {(i,): (q, 1 - q) for i, q in enumerate(rng.random() for _ in range(n))}
        scm = Scm(dag, {"A": Domain("A", tuple(range(n))), "B": Domain("B", (0, 1))},
                  {"A": Cpt("A", (), {(): tuple(w / total for w in weights)}),
                   "B": Cpt("B", ("A",), rows)})
        joint = same_on_both_paths(
            scm,
            lambda j: _marginals(j, ("B",), ("B", "A")),
            lambda j: restrict(j, ("B",)),
            lambda j: restrict(j, ("A",), {"B": 1}),
            lambda j: conditional_laws(j, ("A",), ("B",)),
        )
        assert joint._array is not None
        cells = [p for (a, b), p in joint.probs.items() if b == 0]
        sequential = functools.reduce(operator.add, cells)
        assert _marginals(joint, ("B",))[0][(0,)] == sequential
        assert float(np.sum(np.array(cells))) != sequential


    @pytest.mark.parametrize("a, total", [(1e200, "6.399999999999997e+201"), (1e308, "inf")],
                             ids=["product", "sum"])
    def test_rows_whose_products_could_overflow_are_refused(self, a, total):
        # A row of 64 entries of 1e200 or 1e308 would take a joint's
        # products or sums past the float range; refusing it keeps them finite.
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("A", (), {(): (a,) * 64})
        assert str(info.value) == f"'A': row '' sums to {total}, not 1"

    def test_an_infinite_mass_cannot_meet_a_zero_entry(self):
        # With these rows B's products would overflow to inf, and inf times
        # C's zero entries is nan; the rows are refused instead.
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("A", (), {(): (1e300, 1e300)})
        assert str(info.value) == "'A': row '' sums to 2e+300, not 1"
        with pytest.raises(InvalidArgumentError) as info:
            Cpt("B", ("A",), {(0,): (1e300, 0), (1,): (1e300, 0)})
        assert str(info.value) == "'B': row '0' sums to 1e+300, not 1"

    def test_an_entry_an_ulp_past_1_takes_numpy_with_the_same_bits(self):
        # Rows renormalized in floats can hold 1.0000000000000002; its sum
        # is within the row check's 1e-12 of 1.
        past = 1.0000000000000002
        dag = Dag(["A", "B"], [("A", "B")])
        scm = Scm(dag, {"A": Domain("A", tuple(range(64))), "B": Domain("B", tuple(range(64)))},
                  {"A": Cpt("A", (), {(): (past,) + (0.0,) * 63}),
                   "B": Cpt("B", ("A",), {(i,): (0.0,) * i + (past,) + (0.0,) * (63 - i)
                                          for i in range(64)})})
        joint = same_on_both_paths(scm, lambda j: restrict(j, ("B",)),
                                   lambda j: _marginals(j, ("A", "B")))
        assert joint._array is not None
        assert dict(joint.probs) == {(0, 0): past * past}


# Every formula of test_scans.CALLS on tables refilled from a seed, in
# float, with zero cells, under an intervention and in Fractions.
VARIANTS = ("float", "zeros", "forced", "fraction")


def variant(model: Scm, name: str, seed: int) -> Scm:
    sizes = {n: len(d.values) for n, d in model.domains.items()}
    scm = fill(model.dag, seed, sizes, floor=0.0 if name == "zeros" else 0.05)
    if name == "zeros":
        # Zero the smaller entry of each row whose weights were drawn below 0.3.
        scm = with_tables(scm, *(
            Cpt(n, cpt.parents, {
                cfg: tuple(0.0 if p == min(row) else p / (1 - min(row)) for p in row)
                if min(row) < 0.3 else row
                for cfg, row in cpt.table.items()
            })
            for n, cpt in scm.cpts.items()
        ))
    if name == "forced":
        return _forced(scm, seed % len(scm.dag.nodes), seed % 2)
    return exact(scm) if name == "fraction" else scm


class TestFormulas:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(list(CALLS)), kind=st.sampled_from(VARIANTS),
           seed=st.integers(0, 2**20))
    def test_every_formula_is_the_same_on_both_paths(self, name, kind, seed):
        model, call = CALLS[name]
        scm = variant(model, kind, seed)
        joint = same_on_both_paths(scm, call)
        # Rows renormalized in floats ("zeros") can hold an entry an ulp past
        # 1, and go to numpy all the same.
        on_numpy = float_entries(scm) or numerator_bound(scm) < 2**53
        assert (joint._array is not None) == on_numpy

    @pytest.mark.parametrize("name", list(CALLS))
    def test_every_catalog_call_is_the_same_on_both_paths(self, name):
        model, call = CALLS[name]
        same_on_both_paths(model, call)


def test_fraction_entries_keep_their_exact_joint():
    # The Fractions of floats have denominators of 2**50 and more: their
    # numerators pass the int64 bound at the first node.
    scm = exact(fill(Dag(["A", "B"], [("A", "B")]), 3, {"A": 64, "B": 64}))
    assert numerator_bound(scm) >= 2**53
    joint = same_on_both_paths(scm, lambda j: restrict(j, ("B",)))
    assert joint._array is None and isinstance(joint.scale, int)
    assert {type(p) for p in joint.probs.values()} == {Fraction}


def fraction_chain(rows: list) -> Scm:
    """A chain N0 -> N1 -> ... whose node i has every row `rows[i]`."""
    names = [f"N{i}" for i in range(len(rows))]
    cpts = {"N0": Cpt("N0", (), {(): rows[0]})}
    for parent, node, up, row in zip(names, names[1:], rows, rows[1:]):
        cpts[node] = Cpt(node, (parent,), {(v,): row for v in range(len(up))})
    domains = {n: Domain(n, tuple(range(len(row)))) for n, row in zip(names, rows)}
    return Scm(Dag(names, list(zip(names, names[1:]))), domains, cpts)


def int64_arrays(scm: Scm) -> list:
    """Every int64 array `np.asarray` made while the joint was built on the
    numpy path."""
    made = []

    def record(*args, **kwargs):
        array = asarray(*args, **kwargs)
        if array.dtype == np.int64:
            made.append(array)
        return array

    asarray = np.asarray
    with mock.patch.object(np, "asarray", record):
        joint_on("numpy", scm)
    return made


SMALL = tuple(Fraction(i + 1, 10) for i in range(4))


def test_a_joint_leaves_int64_at_the_node_whose_bound_passes_2_53():
    # N0-N2 have scale 10 and N3 a scale past 2**50, so the bound passes
    # 2**53 at N3; N4 and N5 follow on the plain-Python path.
    big = 2**50 + 1
    wide = (Fraction(1, big), Fraction(2, big), Fraction(3, big), 1 - Fraction(6, big))
    scm = fraction_chain([SMALL] * 3 + [wide] + [SMALL] * 2)
    assert math.prod(len(d.values) for d in scm.domains.values()) == scm_module._STDLIB_DRAWS
    joint = same_on_both_paths(
        scm,
        lambda j: restrict(j, ("N5",), {"N0": 1}),
        lambda j: _marginals(j, ("N2", "N4"), numerators=True),
        lambda j: conditional_laws(j, ("N5",), ("N3",)),
    )
    assert joint._array is None and joint.scale == 10**5 * big
    made = int64_arrays(scm)
    # The table and the masses of each of N0-N2, the last masses over 4**2
    # configurations.
    assert len(made) == 6 and max(a.size for a in made) == 16
    assert max(int(a.max()) for a in made) < 2**53


@pytest.mark.parametrize("rows", [
    [(Fraction(2**20),) * 16] * 3,
    [(Fraction(2**20),) * 16, (Fraction(0),) * 16, (Fraction(2**70),) * 16],
], ids=["past-1", "zero-then-huge"])
def test_rows_summing_past_1_are_refused(rows):
    # These rows have scale 1 and sum far past 1 (or to 0), so N2's masses,
    # or N2's 2**70 entries after N1's all-zero rows, would near the int64
    # range; refusing them keeps the int64 bound a product of row sums near 1.
    with pytest.raises(InvalidArgumentError) as info:
        fraction_chain(rows)
    assert str(info.value) == "'N0': row '' sums to 16777216.0, not 1"
    for i, row in enumerate(rows[1:], 1):
        with pytest.raises(InvalidArgumentError) as info:
            Cpt(f"N{i}", (f"N{i - 1}",), {(0,): row})
        assert str(info.value) == f"'N{i}': row '0' sums to {float(sum(row))!r}, not 1"
