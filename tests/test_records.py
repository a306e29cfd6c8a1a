"""The value records every module returns: one contract for all of them.

Each record is a class with named fields, built positionally or by
keyword.  Two records are equal when they are of the same class and their
field tuples are equal; a comparison with any other type is left to the
other operand.  A frozen record hashes as its field tuple and refuses
assignment; a mutable one is unhashable.  `repr` reads
``Name(field=value, ...)``, and pickle and deepcopy give back an equal
record of the same class.  Construction runs each record's checks, whose
messages are pinned below.
"""

import copy
import importlib
import math
import pickle
import pkgutil

import numpy as np
import pytest

import scmkit
from scmkit.casecontrol import CaseControlSample
from scmkit.diagnostics import HomogeneityReport, SplitStratum, StratumReport
from scmkit.docalc import NodePartition, RuleVerdict
from scmkit.errors import CyclicGraphError, InvalidArgumentError, Record
from scmkit.estimands import IvResult, OddsRatioReport
from scmkit.examples import _BY_NAME, ExampleSpec, _case_control_pop, _Entry, _unit_open
from scmkit.gaussian import GaussianLaw, LinearGaussianScm
from scmkit.graph import BackdoorReport, Dag, Path, PathVerdict, check_backdoor
from scmkit.identify import EffectReport, FrontdoorReport, PropensityTable
from scmkit.scm import Cpt, Dataset, Domain, Intervention

PATH = Path(("T", "X", "R"), ("backward", "forward"))
CHAIN = Dag(["A", "B"], [("A", "B")])

# (class, field names, a valid argument tuple, a valid tuple that differs,
#  frozen, hashable).  Arguments are given in the type the record stores,
# so the repr of each argument is the repr of the field.
RECORDS = [
    (Domain, ("node", "values"), ("X", (0, 1)), ("X", (0, 1, 2)), True, True),
    (Cpt, ("node", "parents", "table"), ("X", (), {(): (0.5, 0.5)}),
     ("X", (), {(): (0.25, 0.75)}), True, False),
    (Intervention, ("assignments",), ({"T": 1},), ({"T": 0},), False, False),
    (Dataset, ("columns", "rows"), (("X", "T"), [(0, 1), (1, 1)]),
     (("X", "T"), [(0, 1)]), False, False),
    (Path, ("nodes", "directions"), (("T", "X", "R"), ("backward", "forward")),
     (("T", "R"), ("backward",)), True, True),
    (PathVerdict, ("path", "verdict", "witness"), (PATH, "satisfies-(i)", "X"),
     (PATH, "violates", None), True, True),
    (BackdoorReport, ("valid", "verdicts", "warnings"),
     (True, [PathVerdict(PATH, "satisfies-(i)", "X")], ["note"]), (False, [], []), False, False),
    (EffectReport,
     ("estimand", "treatment", "treatment_values", "response", "distributions", "ate", "citation"),
     ("adjust", "T", (0, 1), "R", {0: {1: 1.0}, 1: {1: 1.0}}, 0.0, "eq. 1"),
     ("adjust", "T", (0, 1), "R", {0: {1: 1.0}, 1: {1: 1.0}}, 0.5, "eq. 1"), True, False),
    (PropensityTable, ("x_nodes", "t_node", "t_values", "rows"),
     (("X",), "T", (0, 1), {(0,): (0.5, 0.5)}), (("X",), "T", (0, 1), {(0,): (0.25, 0.75)}),
     True, False),
    (FrontdoorReport, ("effect", "intermediate"), ({(0, 1): 0.5}, {(0, 1): 0.25}),
     ({(0, 1): 0.5}, {(0, 1): 0.75}), True, False),
    (IvResult,
     ("theta", "numerator", "denominator", "valid", "thetas", "weights", "first_stage",
      "reduced_form"),
     (2.0, 1.0, 0.5, True, (2.0,), (1.0,), 0.5, 1.0), (2.0, 1.0, 0.5, True, None, None, None, None),
     True, True),
    (OddsRatioReport, ("per_x", "overall", "warnings"),
     ({0: {"p": 0.5, "q": 0.25, "ratio_exposure_odds": 3.0}}, 3.0, ("sparse",)),
     ({}, None, ()), True, False),
    (CaseControlSample, ("rows", "indices", "roles"),
     (((0, 1, 1), (0, 0, 0)), (4, 7), ("case", "control")),
     (((1, 1, 1), (1, 0, 0)), (4, 7), ("case", "control")), True, True),
    (NodePartition, ("w", "x", "y", "z"),
     (frozenset({"W"}), frozenset({"X"}), frozenset({"Y"}), frozenset()),
     (frozenset(), frozenset({"X"}), frozenset({"Y"}), frozenset()), True, True),
    (RuleVerdict,
     ("rule", "condition", "condition_holds", "condition_deviation", "identity_deviation", "tol",
      "passed"),
     (2, "(Y ⊥ Z | X, W)", True, 0.0, 1e-15, 1e-9, True),
     (2, "(Y ⊥ Z | X, W)", False, 0.5, 0.25, 1e-9, False), True, True),
    (SplitStratum, ("key", "indices", "blocks", "group_count", "too_small"),
     (((0,), 1), (0, 1, 2, 3), ((0, 1), (2, 3)), 1, False),
     (((0,), None), (0, 1, 2, 3), ((0, 1), (2, 3)), 1, False), True, True),
    (StratumReport,
     ("key", "compares", "pair", "left_counts", "right_counts", "statistic", "pvalue"),
     (((0,), 1), "responses", (0, 1), {0: 3, 1: 2}, {0: 1, 1: 4}, 1.5, 0.25),
     (((0,), 1), "responses", (0, 1), {0: 3, 1: 2}, {0: 1, 1: 4}, 1.5, 0.5), True, False),
    (HomogeneityReport,
     ("reports", "pvalues", "uniformity_statistic", "uniformity_pvalue", "threshold", "alarm",
      "warnings"),
     ((), (), None, None, 0.01, False, ("no tests",)), ((), (), 0.5, 0.75, 0.01, False, ()),
     True, True),
    (_Entry, ("name", "summary", "parameters", "citation", "builder"),
     ("pop", "A population.", (("p", _unit_open, 0.5, "a rate"),), "eq. 9", _case_control_pop),
     ("pop", "A population.", (), "eq. 9", _case_control_pop), True, True),
    (ExampleSpec, ("name", "params", "seed"), ("fig1", {"floor": 0.1}, 3),
     ("fig1", {}, 4), True, False),
    (LinearGaussianScm, ("dag", "intercepts", "coefficients", "noise_vars"),
     (CHAIN, {"A": 0.0, "B": 1.0}, {"A": {}, "B": {"A": 2.0}}, {"A": 1.0, "B": 0.5}),
     (CHAIN, {"A": 0.0, "B": 1.0}, {"A": {}, "B": {"A": 3.0}}, {"A": 1.0, "B": 0.5}),
     True, False),
    (GaussianLaw, ("order", "mean", "covariance"),
     (("A",), np.array([1.0]), np.array([[2.0]])), (("B",), np.array([1.0]), np.array([[2.0]])),
     True, False),
]

IDS = [cls.__qualname__ for cls, *_ in RECORDS]


def test_every_record_class_is_listed():
    assert len(RECORDS) == 22
    assert len(set(IDS)) == 22


def test_every_record_class_of_the_package_is_listed():
    for module in pkgutil.iter_modules(scmkit.__path__):
        importlib.import_module(f"scmkit.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.split(".")[0] == "scmkit":
                found.add(cls)
    assert found == {cls for cls, *_ in RECORDS}


@pytest.mark.parametrize("cls, names, args, other, frozen, hashable", RECORDS, ids=IDS)
class TestRecordContract:
    def test_positional_and_keyword_construction_agree(self, cls, names, args, other, frozen,
                                                       hashable):
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        for name, value in zip(names, args):
            assert getattr(by_position, name) is value
            assert getattr(by_keyword, name) is value
        assert by_position == by_keyword

    def test_equality_needs_the_same_class_and_equal_fields(self, cls, names, args, other, frozen,
                                                            hashable):
        record = cls(*args)
        assert record == cls(*args)
        assert not record != cls(*args)
        assert record != cls(*other)
        assert not record == cls(*other)
        assert record != args
        assert record != object()
        assert record.__eq__(args) is NotImplemented
        assert record.__eq__(object()) is NotImplemented

    def test_hash_is_the_field_tuple_or_the_record_is_unhashable(self, cls, names, args, other,
                                                                 frozen, hashable):
        record = cls(*args)
        if hashable:
            assert hash(record) == hash(args)
            assert hash(record) == hash(cls(*args))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        if not frozen:
            assert cls.__hash__ is None

    def test_repr_names_every_field(self, cls, names, args, other, frozen, hashable):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
        assert repr(cls(*args)) == f"{cls.__qualname__}({fields})"

    def test_frozen_fields_refuse_assignment(self, cls, names, args, other, frozen, hashable):
        record = cls(*args)
        for name, value in zip(names, other):
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(record, name, value)
                with pytest.raises(AttributeError):
                    delattr(record, name)
                assert getattr(record, name) is args[names.index(name)]
            else:
                setattr(record, name, value)
                assert getattr(record, name) is value
        if not frozen:
            assert record == cls(*other)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips(self, cls, names, args, other, frozen, hashable, protocol):
        record = cls(*args)
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls
        assert back == record
        assert repr(back) == repr(record)
        if frozen:
            with pytest.raises(AttributeError):
                setattr(back, names[0], other[0])

    def test_deepcopy_round_trips(self, cls, names, args, other, frozen, hashable):
        record = cls(*args)
        for twin in (copy.deepcopy(record), copy.copy(record)):
            assert type(twin) is cls
            assert twin == record
            assert repr(twin) == repr(record)


class TestDefaults:
    def test_trailing_fields_take_their_defaults(self):
        assert PathVerdict(PATH, "violates").witness is None
        assert IvResult(2.0, 1.0, 0.5, True) == IvResult(2.0, 1.0, 0.5, True, None, None, None,
                                                         None)
        assert OddsRatioReport({}, None).warnings == ()
        assert HomogeneityReport((), (), None, None, 0.01, False).warnings == ()
        assert ExampleSpec("fig1") == ExampleSpec("fig1", {}, 0)

    def test_mutable_defaults_are_fresh_per_record(self):
        a, b = BackdoorReport(True, []), BackdoorReport(True, [])
        assert a.warnings == [] and a.warnings is not b.warnings
        a.warnings.append("note")
        assert b.warnings == []
        assert ExampleSpec("fig1").params == {}
        assert ExampleSpec("fig1").params is not ExampleSpec("fig1").params

    def test_the_walk_shares_no_warning_list(self):
        reports = [check_backdoor(CHAIN, "A", "B", ()) for _ in range(2)]
        assert reports[0].warnings is not reports[1].warnings


class TestCoercions:
    def test_node_partition_stores_frozensets(self):
        part = NodePartition({"W"}, ["X"], ("Y",), set())
        assert part == NodePartition(*map(frozenset, ({"W"}, {"X"}, {"Y"}, set())))
        assert all(type(getattr(part, n)) is frozenset for n in "wxyz")
        assert hash(part) == hash((frozenset({"W"}), frozenset({"X"}), frozenset({"Y"}),
                                   frozenset()))

    def test_gaussian_law_stores_a_tuple_and_float_arrays(self):
        law = GaussianLaw(["A", "B"], [1, 2], [[1, 0], [0, 1]])
        assert law.order == ("A", "B")
        assert law.mean.dtype == float and law.covariance.dtype == float
        assert law.mean.tolist() == [1.0, 2.0]

    def test_gaussian_law_scale_is_an_argument_not_a_field(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-6]])
        with pytest.raises(InvalidArgumentError, match="positive semidefinite"):
            GaussianLaw(("A", "B"), np.zeros(2), cov)
        law = GaussianLaw(("A", "B"), np.zeros(2), cov, np.array([1e4, 1e4]))
        assert "_scale" not in repr(law)
        back = pickle.loads(pickle.dumps(law))
        assert back.order == law.order
        assert np.array_equal(back.covariance, cov)


def _ccs(rows, indices, roles):
    return lambda: CaseControlSample(rows, indices, roles)


def _lgs(intercepts, coefficients, noise_vars, dag=CHAIN):
    """A linear-Gaussian model over A -> B whose faults all sit at one node,
    so the message does not depend on the order the nodes are visited."""
    return lambda: LinearGaussianScm(dag, intercepts, coefficients, noise_vars)


CATALOG = ", ".join(sorted(_BY_NAME))
FIG1_PARAMETERS = sorted(row[0] for row in _BY_NAME["fig1"].parameters)

# (constructor, message): every check a record runs when it is built; where
# a record breaks several checks, the first in the record's order is named.
CHECKS = [
    (lambda: Domain("X", ()), "empty domain for 'X'"),
    (lambda: Domain("X", (0, 0)), "duplicate values in domain of 'X'"),
    (lambda: Path(("T", "R"), ()), "one direction per step required"),
    (lambda: Path(("T", "T"), ("forward", "forward")), "one direction per step required"),
    (lambda: Path(("T", "X", "T"), ("forward", "forward")), "path must be simple"),
    (lambda: EffectReport("adjust", "T", (0, 1), "R", {0: {1: 1.0}, 1: {0: 0.25, 1: 0.25}}, None,
                          "eq. 1"), "response law at treatment 1 sums to 0.5"),
    (lambda: PropensityTable(("X",), "T", (0, 1), {(0,): (0.5, 0.5), (1,): (0.5, 0.6)}),
     "assignment vector at (1,) sums to 1.1"),
    (lambda: IvResult(2.5, 1.0, 0.5, True), "ratio inconsistent with its parts"),
    (lambda: OddsRatioReport({0: {"ratio_response_odds": 2.0, "ratio_exposure_odds": 2.5}}, 2.0),
     "odds-ratio routes disagree in stratum 0"),
    (_ccs(((0, 1, 1),), (4,), ("case",)), "rows, indices, and roles must align in pairs"),
    (_ccs(((0, 1, 1), (0, 0, 0)), (4,), ("case", "control")),
     "rows, indices, and roles must align in pairs"),
    (_ccs(((0, 1, 1), (0, 0, 0)), (4, 4), ("control", "case")),
     "population rows may be used only once"),
    (_ccs(((0, 1, 1), (0, 0, 0)), (4, 7), ("control", "case")), "pair 0 must be case then control"),
    (_ccs(((0, 1, 1), (0, 0, 0), (0, 1, 0), (1, 0, 0)), (4, 7, 8, 9),
          ("case", "control", "case", "control")), "case 1 lacks r = 1"),
    (_ccs(((0, 1, 1), (1, 0, 0)), (4, 7), ("case", "control")), "pair 0 is not matched on x"),
    (lambda: NodePartition({"W"}, {"W"}, {"Y"}, set()), "W, X, Y, Z must be pairwise disjoint"),
    (lambda: RuleVerdict(1, "c", False, 0.5, 0.0, 1e-9, True),
     "a passing verdict requires the condition and the identity"),
    (lambda: RuleVerdict(1, "c", True, 0.0, 1e-3, 1e-9, True),
     "a passing verdict requires the condition and the identity"),
    (lambda: StratumReport(((0,), 0), "responses", (0, 1), {0: 1}, {0: 1}, 0.0, 1.5),
     "p-value 1.5 outside [0, 1]"),
    (lambda: StratumReport(((0,), 0), "responses", (0, 1), {0: 1}, {0: 1}, 0.0, -0.25),
     "p-value -0.25 outside [0, 1]"),
    (lambda: HomogeneityReport((), (0.5,), None, None, 0.01, False),
     "reports and p-values must align"),
    (lambda: ExampleSpec("nope", {"zz": 1}), f"unknown example 'nope'; catalog: {CATALOG}"),
    (lambda: ExampleSpec("fig1", {"zz": 1, "aa": 2}),
     f"unknown parameters ['aa', 'zz'] for 'fig1'; documented: {FIG1_PARAMETERS}"),
    (_lgs({}, {}, {}, Dag(["A", "B"], [("A", "B"), ("B", "A")])), "cycle detected: A <- B <- A"),
    (_lgs({"A": 0.0}, {"A": {}}, {"A": 1.0}), "missing intercept for 'B'"),
    (_lgs({"A": 0.0, "B": 0.0}, {"A": {}}, {"A": 1.0}), "missing coefficients for 'B'"),
    (_lgs({"A": 0.0, "B": 0.0}, {"A": {}, "B": {"A": 1.0}}, {"A": 1.0}),
     "missing noise variance for 'B'"),
    (_lgs({"A": 0.0, "B": 0.0}, {"A": {}, "B": {}}, {"A": 1.0, "B": -1.0}),
     "coefficients of 'B' must cover exactly its parents"),
    (_lgs({"A": 0.0, "B": math.nan}, {"A": {}, "B": {"A": math.inf}}, {"A": 1.0, "B": 1.0}),
     "non-finite intercept at 'B': nan"),
    (_lgs({"A": 0.0, "B": 0.0}, {"A": {}, "B": {"A": math.inf}}, {"A": 1.0, "B": -1.0}),
     "non-finite coefficient of 'A' at 'B': inf"),
    (_lgs({"A": 0.0, "B": 0.0}, {"A": {}, "B": {"A": 1.0}}, {"A": 1.0, "B": math.inf}),
     "non-finite noise variance at 'B': inf"),
    (_lgs({"A": 0.0, "B": 0.0}, {"A": {}, "B": {"A": 1.0}}, {"A": 1.0, "B": -0.5}),
     "negative noise variance at 'B'"),
    (lambda: GaussianLaw(("A",), [0.0, 1.0], [[1.0]]), "mean/covariance shapes do not match order"),
    (lambda: GaussianLaw(("A", "B"), [0.0, math.nan], [[1.0, math.inf], [math.inf, 1.0]]),
     "non-finite mean at 'B'"),
    (lambda: GaussianLaw(("A", "B"), [0.0, 0.0], [[1.0, 0.0], [math.nan, 1.0]]),
     "non-finite covariance at 'B', 'A'"),
    (lambda: GaussianLaw(("A", "B"), [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]]),
     "covariance must be symmetric"),
    (lambda: GaussianLaw(("A", "B"), [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]),
     "covariance must be positive semidefinite"),
]


@pytest.mark.parametrize("build, message", CHECKS, ids=[m for _, m in CHECKS])
def test_each_check_raises_its_message(build, message):
    with pytest.raises((InvalidArgumentError, CyclicGraphError)) as info:
        build()
    assert str(info.value) == message
