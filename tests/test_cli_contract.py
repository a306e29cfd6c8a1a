"""The command-line contract under random flags and random model files.

Any subcommand with any set of its flags, on a catalog model file or a
damaged copy of one, ends in exit 0, 1 or 2 without an exception.  On 0
or 1 the payload (stdout, or the --out file when one is written) is
strict JSON, or a row table under --format csv; on 2 stdout is empty.
`validate` and `joint` also read whole random documents, of any shape and
any depth, without an exception.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scmkit.cli import main
from scmkit.examples import _CATALOG, ExampleSpec, build_example
from scmkit.exogenous import DigitStream
from scmkit.scm import sample, scm_to_json

from test_cli import _strict_json

# Each subcommand's own flags, as its --help lists them.
FLAGS = {
    "validate": ["-m"],
    "joint": ["-m", "--targets", "--given"],
    "intervene": ["-m", "--set", "--model-out"],
    "sample": ["-m", "--seed", "--n"],
    "backdoor": ["-m", "-t", "-r", "-z", "--adjust-desc"],
    "adjust-sets": ["-m", "-t", "-r", "--candidates"],
    "effect": ["-m", "-t", "-r", "--adjust", "--t-values"],
    "frontdoor": ["-m", "--roles"],
    "eelworms": ["-m", "--roles"],
    "gformula": ["-m", "--roles", "--t", "--t2"],
    "direct-effect": ["-m", "--roles", "--y2", "--t"],
    "policy": ["-m", "--roles"],
    "mediation": ["-m", "--roles", "--sigma"],
    "iv": ["-m", "--roles", "--data", "--method"],
    "oddsratio": ["-m", "--roles"],
    "casecontrol": ["-m", "--roles", "--seed", "--n", "--budget"],
    "docalc": ["-m", "--rule", "--w", "--x", "--y", "--z", "--tol"],
    "diagnose": ["--data", "--x-cols", "--t-col", "--r-col", "--k", "--secondary", "--threshold"],
    "example": ["--seed", "--params", "--model-out"],
}
ALL_FLAGS = sorted({f for flags in FLAGS.values() for f in flags} | {"--out", "--format"})

CATALOG = {
    "simpson_binary": 0, "fig1": 3, "fig1a": 3, "smoking": 5, "eelworms": 5,
    "treatment_plan": 5, "two_stage": 5, "hiring": 5, "iv_binary": 5, "case_control_pop": 0,
}
# The catalog model each command's formula is written for, where not fig1.
HOME = {
    "frontdoor": "smoking", "eelworms": "eelworms", "gformula": "treatment_plan",
    "direct-effect": "two_stage", "policy": "two_stage", "mediation": "hiring",
    "iv": "iv_binary", "oddsratio": "case_control_pop", "casecontrol": "case_control_pop",
    "joint": "simpson_binary", "effect": "simpson_binary", "sample": "simpson_binary",
}
NODES = ["X", "T", "R", "Y", "Z", "W", "U", "S", "I", "H", "X1", "X3", "X6", "Y2", "Y4", "Q", ""]
NODE_LISTS = NODES + ["X1,X2", "X3,X4", "X3,X1", "T,R", "X7", ",", "X1,,X2"]
ASSIGNMENTS = ["T=1", "X=0", "X3=0", "T=1,X=0", "S=1", "Y4=1", "T=9", "Q=0", "T", "=", "T=", ""]
NUMBERS = ["0", "1", "2", "3", "7", "-1", "x", "nan", "1e-3", "12345678901234567890"]
NODE_FLAGS = ["-t", "-r", "--t-col", "--r-col", "--secondary", "--t", "--t2", "--y2"]
LIST_FLAGS = [
    "--targets", "-z", "--adjust", "--adjust-desc", "--candidates", "--w", "--y", "--x-cols"
]
VALUES = {
    **dict.fromkeys(NODE_FLAGS, NODES + ["0", "1"]),
    **dict.fromkeys(LIST_FLAGS, NODE_LISTS),
    **dict.fromkeys(["--set", "--given", "--x", "--z"], ASSIGNMENTS),
    **dict.fromkeys(["--seed", "--n", "--budget", "--k", "--tol", "--threshold"], NUMBERS),
    "--roles": ["", "", "", "Y=Y", "Y=Z,Z=Y", "X=T,T=X", "I=T", "S=B", "Q=X", "Y", "Y1=Y2"],
    "--t-values": ["0,1", "1,0", "1", ",", "0,9", "a,b"],
    "--sigma": ["0=0.25,1=0.75", "0=0.25,1=-5", "0=1", "1=0.5", "x=1", "0=nan", "0"],
    "--params": ["discrete=true", "bins=3,discrete=true", "floor=0.5", "floor=NaN",
                 'sizes={"X":3}', "nope=1", "p=2", "group=2,mu2=-Infinity", ""],
    "--rule": ["1", "2", "0", "x"],
    "--method": ["theta", "multi", "tsls", "x"],
    "--format": ["json", "csv", "csv", "x"],
}
# Per catalog entry, from its declared parameter table: each parameter at
# its default (a key JSON cannot spell is dropped) and at one value of a
# wrong kind, a number for a boolean and a boolean for anything else.
TABLE_PARAMS = {
    entry.name: [
        f"{name}={value}"
        for name, _, default, _ in entry.parameters
        for value in (json.dumps(default, skipkeys=True), "1" if isinstance(default, bool) else "true")
    ]
    for entry in _CATALOG
}
# Values of five kinds; each is the wrong kind for every parameter but a
# boolean for the boolean ones.
WRONG_KINDS = {"string": '"x"', "list": "[1]", "bool": "true", "NaN": "NaN", "object": '{"k":"v"}'}
WRONG_KIND_CASES = [
    (entry.name, name, kind)
    for entry in _CATALOG
    for name, _, default, _ in entry.parameters
    for kind in WRONG_KINDS
    if not (kind == "bool" and isinstance(default, bool))
]
DAMAGE = [0, 1, -0.5, 2, 0.5, 1e300, "x", None, [], True, [0.5, 0.5]]
CSV_TEXTS = [
    "", "A,B\n1\n", "X,T,R\n", "X,T,R\n0,0,nan\n", "X,T,R\n0,1,1\n1,0,0\n", "I,T,R\n1,1,1\n"
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("contract")
    docs = {
        name: json.loads(scm_to_json(build_example(ExampleSpec(name, seed=seed))))
        for name, seed in CATALOG.items()
    }
    csv_paths = []
    for name, seed in [("simpson_binary", 0), ("iv_binary", 5)]:
        path = base / f"{name}.csv"
        rows = sample(build_example(ExampleSpec(name, seed=seed)), DigitStream(7), 60)
        path.write_text(rows.to_csv())
        csv_paths.append(str(path))
    return base, docs, csv_paths


def _damaged(data, doc) -> str:
    """The model document, whole or with one part broken, as file text."""
    doc = json.loads(json.dumps(doc))
    nodes = doc["nodes"]
    node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
    how = data.draw(st.sampled_from(
        ["none"] * 7 + ["drop", "entry", "row", "domain", "parents", "truncate", "garbage"]
    ))
    if how == "drop":
        nodes.remove(node)
    elif how == "entry":
        row = data.draw(st.sampled_from(sorted(node["table"])))
        node["table"][row][data.draw(st.integers(0, len(node["table"][row]) - 1))] = data.draw(
            st.sampled_from(DAMAGE)
        )
    elif how == "row":
        node["table"].pop(data.draw(st.sampled_from(sorted(node["table"]))))
    elif how == "domain":
        node["domain"] = data.draw(st.sampled_from([[], [0], [0, 0], ["a", "b"], [0, 1, 2], 3]))
    elif how == "parents":
        node["parents"] = data.draw(st.sampled_from([["nope"], [node["id"]], [], "X"]))
    text = json.dumps(doc)
    if how == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    if how == "garbage":
        return data.draw(st.sampled_from(["", "null", "[]", "{}", "{\"nodes\": 1}", "\x00"]))
    return text


def _value(data, command, flag, base, docs, csv_paths, entry=None) -> str:
    if flag == "-m":
        choice = data.draw(st.sampled_from(["home"] * 5 + ["any"] * 3 + ["missing", "empty"]))
        if choice == "missing":
            return str(base / "missing.json")
        if choice == "empty":
            return ""
        name = HOME.get(command, "fig1")
        if choice == "any":
            name = data.draw(st.sampled_from(sorted(docs)))
        path = base / "model.json"
        path.write_text(_damaged(data, docs[name]), encoding="utf-8")
        return str(path)
    if flag == "--data":
        text = data.draw(st.sampled_from([None, None] + CSV_TEXTS))
        if text is None:
            return data.draw(st.sampled_from(csv_paths))
        path = base / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)
    if flag == "--model-out":
        return str(base / data.draw(st.sampled_from(["model_out.json", "nodir/model_out.json"])))
    if flag == "--out":
        return str(base / data.draw(st.sampled_from(["out.txt"] * 3 + ["nodir/out.txt"])))
    if flag == "--params" and entry in TABLE_PARAMS and data.draw(st.booleans()):
        drawn = st.sampled_from(TABLE_PARAMS[entry])
        return ",".join(data.draw(st.lists(drawn, min_size=1, max_size=3)))
    return data.draw(st.sampled_from(VALUES[flag]))


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_flags_on_any_model_file_keep_the_exit_contract(files, capsys, data):
    base, docs, csv_paths = files
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    # Most invocations carry most of their command's flags, so that they
    # get past the parser; a few carry a flag of another command.
    flags = list(FLAGS[command])
    if data.draw(st.booleans()):
        flags = [f for f in flags if data.draw(st.booleans())]
    flags += [f for f in ("--out", "--format") if data.draw(st.sampled_from(range(4))) == 2]
    if data.draw(st.sampled_from(range(10))) == 5:
        flags.append(data.draw(st.sampled_from(ALL_FLAGS)))
    argv, values, entry = [command], {}, None
    if command == "example" and data.draw(st.booleans()):
        entry = data.draw(st.sampled_from(sorted(TABLE_PARAMS) + ["nosuch"]))
        argv.append(entry)
    for flag in data.draw(st.permutations(flags)):
        values[flag] = _value(data, command, flag, base, docs, csv_paths, entry)
        argv += [flag, values[flag]]
    out_path = base / "out.txt"
    out_path.unlink(missing_ok=True)

    code = main(argv)

    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
        return
    payload = out
    if out_path.exists():
        assert out == "", argv
        payload = out_path.read_text(encoding="utf-8")
    if code == 0 and values.get("--format") == "csv":
        assert payload.endswith("\n"), argv
    else:
        _strict_json(payload)


# Whole model documents: a value of any JSON type (NaN, infinities,
# integers past the float range and one too long to read included) may
# stand at every level, and parts may nest past the loader's depth limits.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["A", "B", "", "|", "0", "1", "0|1", "x"]),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 0.25, 0.75, 1e308, -0.0, 10**400, -(10**400), 2**63, "LONG_INT"]),
)
ANY = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["id", "domain", "parents", "table", "nodes", "meta", "0", "", "0|1"]), inner, max_size=3),
    max_leaves=12,
)


class Deep:
    """`inner` wrapped in `depth` lists or one-key objects, spelled out
    without recursion."""

    def __init__(self, inner, depth: int, kind: str):
        self.inner, self.depth, self.kind = inner, depth, kind


def _spell(value) -> str:
    """JSON text that Python's loader reads back (NaN and Infinity spelled
    as it spells them), Deep parts included; "LONG_INT" is an integer of
    more digits than the loader converts."""
    if isinstance(value, Deep):
        opening, closing = ("[", "]") if value.kind == "list" else ('{"k": ', "}")
        return opening * value.depth + _spell(value.inner) + closing * value.depth
    if isinstance(value, list):
        return "[" + ", ".join(map(_spell, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_spell(v)}" for k, v in value.items()) + "}"
    return "9" * 5000 if value == "LONG_INT" else json.dumps(value)


CHAIN = {"meta": {"name": "chain"}, "nodes": [
    {"id": "A", "domain": [0, 1], "parents": [], "table": {"": [0.5, 0.5]}},
    {"id": "B", "domain": ["lo", "mid", "hi"], "parents": ["A"],
     "table": {"0": [0.2, 0.3, 0.5], "1": [1, 0, 0]}},
]}
SIMPSON = json.loads(scm_to_json(build_example(ExampleSpec("simpson_binary"))))


def _places(value, holder, key):
    """Every (holder, key) under which a part of `value` sits, itself last."""
    if isinstance(value, (list, dict)):
        for k in (range(len(value)) if isinstance(value, list) else list(value)):
            yield from _places(value[k], value, k)
    yield holder, key


@st.composite
def documents(draw):
    """A sound small document (a two-node chain, or the Simpson catalog
    model) with up to three of its parts, the whole included, replaced by
    any value, wrapped deep, or removed."""
    doc = draw(st.sampled_from([CHAIN, SIMPSON]))
    root = [json.loads(json.dumps(doc))]
    for _ in range(draw(st.integers(0, 3))):
        holder, key = draw(st.sampled_from(list(_places(root[0], root, 0))))
        how = draw(st.sampled_from(["any", "any", "number", "deep", "remove"]))
        if how == "remove" and holder is not root:
            del holder[key]
        elif how == "deep":
            holder[key] = Deep(holder[key], draw(st.sampled_from([1, 99, 150, 1500])),
                               draw(st.sampled_from(["list", "dict"])))
            break  # a Deep part is spelled, not walked
        elif how == "number":
            holder[key] = draw(st.sampled_from([0.2, 0.7, -0.5, 1.5, 1e308, math.nan, math.inf, 10**400,
                                                "LONG_INT", 0, 1, True, "0", "x", "", "|"]))
        else:
            holder[key] = draw(ANY)
    return root[0]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=documents(), command=st.sampled_from(["validate", "joint"]))
def test_any_document_gets_a_report_not_a_traceback(tmp_path, capsys, doc, command):
    path = tmp_path / "model.json"
    path.write_text(_spell(doc), encoding="utf-8")

    code = main([command, "-m", str(path)])

    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert captured.err == ""
    _strict_json(captured.out)


@pytest.mark.parametrize("name, param, kind", WRONG_KIND_CASES)
def test_every_catalog_parameter_refuses_a_value_of_the_wrong_kind(capsys, name, param, kind):
    code = main(["example", name, "--params", f"{param}={WRONG_KINDS[kind]}"])

    assert code == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["result"] is None
    assert report["error"]
