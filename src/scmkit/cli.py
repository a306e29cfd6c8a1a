"""Command-line surface: load models, run queries, emit JSON reports.

Every subcommand prints one canonical JSON report of the form
``{command, inputs, result, citations, warnings, error}`` so that equal
inputs produce byte-equal output.  ``--out`` redirects the report to a
file; ``--format csv`` (sample and casecontrol only) emits the delimited
row table instead of the report.  Exit status is 0 on success, 1 when a
domain operation fails (the module's message appears verbatim in
``error``) or when a checked criterion is violated, and 2 on usage
errors.  Failure reports go to stdout; ``--out`` files are written only
on success.

One table, ``_COMMANDS``, lists each subcommand's handler, help, citation,
model file, role names and options; ``main`` loads the model, binds
``--roles``, runs the handler and cites its formula for every command.

Start-up is most of a command's time, so ``import scmkit.cli`` loads only
the ``scm``, ``graph``, ``exogenous`` and ``errors`` modules, and each
handler imports the formula module it calls:

- ``validate``, ``joint``, ``intervene``, ``sample``, ``backdoor`` and
  ``adjust-sets`` load nothing more;
- ``effect``, ``frontdoor``, ``eelworms`` and ``gformula`` load
  ``identify``;
- ``direct-effect``, ``policy``, ``mediation``, ``iv`` and ``oddsratio``
  load ``identify`` and ``estimands``, and ``casecontrol`` also
  ``casecontrol``;
- ``docalc`` loads ``docalc``, ``diagnose`` loads ``diagnostics``, and
  ``example`` loads ``identify``, ``estimands`` and ``examples``
  (``gaussian`` too for the continuous entries).

``main`` adds options only to the subcommand being run, since they read
role names and defaults (``_From``) from that command's formula module.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import ScmError
from .exogenous import DigitStream
from .graph import check_backdoor, check_backdoor_extended, descendants, enumerate_valid_adjustment_sets
from .scm import (
    Dataset,
    Intervention,
    Scm,
    _canonical,
    _key,
    intervene,
    joint_distribution,
    load_model,
    restrict,
    sample,
    save_model,
    scm_to_json,
    validate_scm,
)

if TYPE_CHECKING:
    from .gaussian import LinearGaussianScm

__all__ = ["main"]

_TABLE_COMMANDS = frozenset({"sample", "casecontrol"})


class _UsageError(Exception):
    """Bad flag combination or malformed flag syntax."""


def _split_list(text: str) -> list:
    parts = [p.strip() for p in text.split(",")]
    return [p for p in parts if p]


def _split_outside(text: str) -> list:
    """`_split_list` that leaves commas inside brackets, braces and JSON
    strings alone, so that a k=v value may be a JSON list or object."""
    cuts, depth, quoted, escaped = [-1], 0, False, False
    for i, ch in enumerate(text):
        if quoted:
            quoted, escaped = escaped or ch != '"', ch == "\\" and not escaped
        elif ch == "," and depth == 0:
            cuts.append(i)
        else:
            quoted = ch == '"'
            depth = max(0, depth + (ch in "[{") - (ch in "]}"))
    cuts.append(len(text))
    return [p for p in (text[a + 1:b].strip() for a, b in zip(cuts, cuts[1:])) if p]


def _parse_pairs(text: str, flag: str, split: Callable = _split_list) -> dict:
    out = {}
    for part in split(text):
        key, _, value = part.partition("=")
        if not key or not value:
            raise _UsageError(f"{flag} expects k=v pairs, got {part!r}")
        if key in out:
            raise _UsageError(f"{flag} repeats {key!r}")
        out[key] = value
    return out


def _finite_float(text: str) -> float:
    """argparse type for float options; a report cannot carry nan or inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for `--tol`: a finite number, not below 0, for no rule
    passes under a negative tolerance."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a tolerance of at least 0, got {text!r}")
    return value


def _domain_value(scm: Scm, node: str, token: str):
    if node not in scm.domains:
        raise _UsageError(f"unknown node {node!r}")
    for value in scm.domains[node].values:
        if str(value) == token:
            return value
    raise _UsageError(f"value {token!r} not in domain of {node!r}")


def _assignments(scm: Scm, text: str, flag: str) -> dict:
    return {
        node: _domain_value(scm, node, token)
        for node, token in _parse_pairs(text, flag).items()
    }


def _roles(names: tuple, text: str | None) -> dict:
    """Bindings {role: node} from --roles; by default each role names its
    own node."""
    roles = {name: name for name in names}
    for role, node in _parse_pairs(text or "", "--roles").items():
        if role not in roles:
            raise _UsageError(f"--roles accepts {', '.join(names)}; got {role!r}")
        roles[role] = node
    return roles


def _joined_keys(mapping: dict) -> dict:
    return {_key(cfg): value for cfg, value in mapping.items()}


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in record.__slots__}


def _model_doc(scm: Scm) -> dict:
    return json.loads(scm_to_json(scm))


def _gaussian_doc(model: LinearGaussianScm) -> dict:
    nodes = sorted(model.dag.nodes, key=str)
    return {
        "nodes": nodes,
        "edges": sorted(model.dag.edges),
        "intercepts": model.intercepts,
        "coefficients": {n: model.coefficients[n] for n in nodes},
        "noise_vars": model.noise_vars,
    }


# ---------------------------------------------------------------- handlers
# A handler takes (args, report, model, roles), fills `report` with the
# library's results as they are, for `_canonical` alone spells keys and
# numbers, and returns an exit code (None means 0) or, for a row table,
# the CSV text.  It imports the formula module it calls, so a command
# loads only its own.


def _cmd_validate(args, report, model, roles):
    problems = validate_scm(model)
    report["result"] = {"ok": not problems, "problems": problems}
    if problems:
        report["error"] = f"model failed validation with {len(problems)} problem(s)"
        return 1


def _cmd_joint(args, report, model, roles):
    joint = joint_distribution(model)
    targets = tuple(_split_list(args.targets)) if args.targets else tuple(
        sorted(model.dag.nodes, key=str)
    )
    given = _assignments(model, args.given, "--given") if args.given else None
    law = restrict(joint, targets, given)
    report["result"] = {"order": law.order, "probs": _joined_keys(law.probs)}


def _cmd_intervene(args, report, model, roles):
    assignments = _assignments(model, args.set, "--set")
    cut = intervene(model, Intervention(assignments))
    report["result"] = {"model": _model_doc(cut)}
    if args.model_out:
        save_model(cut, args.model_out)


def _cmd_sample(args, report, model, roles):
    data = sample(model, DigitStream(args.seed), args.n)
    report["result"] = {"columns": data.columns, "rows": data.rows}
    return data.to_csv()


def _cmd_backdoor(args, report, model, roles):
    z_nondesc = _split_list(args.adjust) if args.adjust else []
    if args.adjust_desc:
        verdict = check_backdoor_extended(
            model.dag, args.t, args.r, _split_list(args.adjust_desc), z_nondesc
        )
    else:
        verdict = check_backdoor(model.dag, args.t, args.r, z_nondesc)
    report["warnings"] = list(verdict.warnings)
    report["result"] = {
        "valid": verdict.valid,
        "paths": [
            {
                "path": str(v.path),
                "verdict": v.verdict,
                "witness": None if v.witness is None else str(v.witness),
            }
            for v in verdict.verdicts
        ],
        "violating_paths": [str(p) for p in verdict.violating_paths()],
    }
    return 0 if verdict.valid else 1


def _cmd_adjust_sets(args, report, model, roles):
    if args.candidates:
        candidates = _split_list(args.candidates)
    else:
        blocked = {args.t, args.r} | descendants(model.dag, args.t)
        candidates = sorted(set(model.dag.nodes) - blocked, key=str)
    sets = enumerate_valid_adjustment_sets(model.dag, args.t, args.r, candidates)
    report["result"] = {
        "candidates": sorted(candidates, key=str),
        "minimal_sets": [sorted(s, key=str) for s in sets],
    }


def _cmd_effect(args, report, model, roles):
    from .identify import backdoor_effect

    joint = joint_distribution(model)
    z_nodes = tuple(_split_list(args.adjust)) if args.adjust else ()
    t_values = [
        _domain_value(model, args.t, token) for token in _split_list(args.t_values)
    ]
    if not t_values:
        raise _UsageError("--t-values needs at least one value")
    # The command's effect is second minus first, the function's first
    # minus second.
    effect = backdoor_effect(joint, args.t, t_values[::-1], args.r, z_nodes)
    result = {"adjust": z_nodes, "laws": effect.distributions}
    if len(t_values) == 2:
        result["ate"] = effect.ate
        if effect.ate is None:
            report["warnings"].append("response values are not numeric; no average effect")
    report["result"] = result


def _cmd_frontdoor(args, report, model, roles):
    from .identify import frontdoor

    y, z, w, x = roles.values()
    out = frontdoor(joint_distribution(model), y, z, w, dag=model.dag, x_node=x)
    report["result"] = {
        "effect": _joined_keys(out.effect),
        "intermediate": _joined_keys(out.intermediate),
    }


def _cmd_eelworms(args, report, model, roles):
    from .identify import eelworms_effect

    law = eelworms_effect(joint_distribution(model), roles, dag=model.dag)
    report["result"] = {"effect": _joined_keys(law)}


def _cmd_gformula(args, report, model, roles):
    from .identify import gformula2

    joint = joint_distribution(model)
    t_val = _domain_value(model, roles["T"], args.t_value)
    t2_val = _domain_value(model, roles["T2"], args.t2_value)
    law = gformula2(joint, roles, t_val, t2_val, dag=model.dag)
    report["result"] = {"law": law}


def _cmd_direct_effect(args, report, model, roles):
    from .estimands import two_stage_direct

    joint = joint_distribution(model)
    y2_val = _domain_value(model, roles["Y2"], args.y2)
    t_val = _domain_value(model, roles["Y4"], args.t_value)
    out = two_stage_direct(joint, roles, y2_val, t_val, dag=model.dag)
    report["result"] = out


def _cmd_policy(args, report, model, roles):
    from .estimands import antibiotic_policy

    out = antibiotic_policy(joint_distribution(model), roles, dag=model.dag)
    report["result"] = {**out, "law": _joined_keys(out["law"])}


def _cmd_mediation(args, report, model, roles):
    from .estimands import mediation_fixed_sex, natural_indirect

    joint = joint_distribution(model)
    indirect = natural_indirect(joint, roles, dag=model.dag)
    result = {"natural_indirect": indirect}
    if args.sigma:
        sigma = {
            _domain_value(model, roles["S"], token): float(weight)
            for token, weight in _parse_pairs(args.sigma, "--sigma").items()
        }
        fixed = mediation_fixed_sex(joint, roles, sigma, dag=model.dag)
        result["fixed_law"] = _joined_keys(fixed)
    report["result"] = result


def _cmd_iv(args, report, model, roles):
    from .estimands import iv_multi, iv_theta, iv_tsls

    if (args.model is None) == (args.data is None):
        raise _UsageError("iv needs exactly one of --model or --data")
    if args.method == "tsls":
        if args.data is None:
            raise _UsageError("method tsls reads a dataset; pass --data")
        out = iv_tsls(Dataset.read_csv(args.data), roles)
        citation = "theta = cov(I, R) / cov(I, T)"
    elif args.method == "multi":
        if model is None:
            raise _UsageError("method multi needs the exact joint; pass --model")
        out = iv_multi(joint_distribution(model), roles)
        citation = "Theta = sum_k theta_k p_k over instrument levels i_k"
    else:
        source = joint_distribution(model) if model is not None else Dataset.read_csv(args.data)
        out = iv_theta(source, roles)
        citation = "theta = {E(R|I=1) - E(R|I=0)} / {E(T|I=1) - E(T|I=0)}"
    report["citations"] = [citation]
    report["result"] = {name: v for name, v in _fields(out).items() if v is not None}


def _cmd_oddsratio(args, report, model, roles):
    from .estimands import odds_ratio

    out = odds_ratio(joint_distribution(model), roles)
    report["warnings"] = list(out.warnings)
    report["result"] = {
        "per_x": out.per_x,
        "overall": out.overall,
    }


def _cmd_casecontrol(args, report, model, roles):
    from .casecontrol import estimate_cc_or, export_sample, simulate_case_control

    pairs = simulate_case_control(
        model, args.n, DigitStream(args.seed), budget=args.budget, roles=roles
    )
    estimate = estimate_cc_or(pairs)
    report["warnings"] = list(estimate.warnings)
    report["result"] = {
        "pairs": pairs.pair_count,
        "per_x": estimate.per_x,
        "overall": estimate.overall,
    }
    return export_sample(pairs)


def _cmd_docalc(args, report, model, roles):
    from .docalc import NodePartition, verify_rule

    x = _assignments(model, args.x, "--x")
    z = _assignments(model, args.z, "--z") if args.z else None
    partition = NodePartition(_split_list(args.w or ""), x, _split_list(args.y), z or ())
    verdict = verify_rule(model, partition, args.rule, x, z=z, tol=args.tol)
    report["citations"] = [
        "rule 1: P(y | z, w) = P(y | w) under do(x) when Y and Z are "
        "independent given W there"
        if args.rule == 1
        else "rule 2: P(y | w) under do(x, z) = P(y | Z=z, w) under do(x) "
        "when the augmented independence holds"
    ]
    report["result"] = _fields(verdict)
    return 0 if verdict.passed else 1


def _cmd_diagnose(args, report, model, roles):
    from .diagnostics import homogeneity_report

    data = Dataset.read_csv(args.data)
    out = homogeneity_report(
        data,
        _split_list(args.x_cols) if args.x_cols else [],
        args.t_col,
        args.r_col,
        args.k,
        secondary_col=args.secondary,
        threshold=args.threshold,
    )
    result = _fields(out)
    report["warnings"] = list(result.pop("warnings"))
    result["strata"] = [{**_fields(r), "key": str(r.key)} for r in result.pop("reports")]
    report["result"] = result


def _cmd_example(args, report, model, roles):
    from .examples import ExampleSpec, build_example, list_examples

    if args.name is None:
        report["result"] = {"catalog": list_examples()}
        return
    params = {}
    if args.params:
        for key, raw in _parse_pairs(args.params, "--params", _split_outside).items():
            try:
                params[key] = json.loads(raw)
            # Past its nesting or integer-digit limits json raises these too.
            except (ValueError, RecursionError):
                params[key] = raw
    model = build_example(ExampleSpec(args.name, params, seed=args.seed))
    report["citations"] = [next(e["citation"] for e in list_examples() if e["name"] == args.name)]
    if isinstance(model, Scm):
        report["result"] = {"model": _model_doc(model)}
        if args.model_out:
            save_model(model, args.model_out)
    else:
        report["result"] = {"gaussian": _gaussian_doc(model)}
        if args.model_out:
            raise _UsageError(
                "only discrete models serialize; pass --params discrete=true"
            )


# ---------------------------------------------------------------- commands


def _opt(*flags, **kwargs) -> tuple:
    """One `add_argument` call, as data."""
    return flags, kwargs


class _From(NamedTuple):
    """A constant of a formula module, read when its subcommand's options
    are added, so that the module loads only for the command that runs."""

    module: str
    name: str


def _resolve(value):
    if isinstance(value, _From):
        return getattr(importlib.import_module(f".{value.module}", __package__), value.name)
    return value


class _Command(NamedTuple):
    """A subcommand: handler, help, the report's citation on success (None
    where the handler cites by its input or nothing is cited), whether
    -m/--model is "required", "optional" or absent (None), --roles names
    (a `_From`)."""

    handler: Callable
    help: str
    citation: str | None = None
    model: str | None = "required"
    roles: _From | None = None
    options: tuple = ()


_T = _opt("-t", required=True)
_R = _opt("-r", required=True)
_SEED = _opt("--seed", type=int, required=True)

# One entry per subcommand, in --help order.
_COMMANDS = {
    "validate": _Command(_cmd_validate, "check a model file"),
    "joint": _Command(
        _cmd_joint,
        "exact joint or conditional law",
        "P(v) = product over nodes of P(v_i | parents_i)",
        options=(
            _opt("--targets", help="comma list of nodes (default: all)"),
            _opt("--given", help="conditioning assignments k=v,..."),
        ),
    ),
    "intervene": _Command(
        _cmd_intervene,
        "cut mechanisms and fix values",
        "do(V=v): delete the mechanisms of the set nodes and fix their values",
        options=(
            _opt("--set", required=True, help="assignments k=v,..."),
            _opt("--model-out", help="write the cut model here"),
        ),
    ),
    "sample": _Command(
        _cmd_sample,
        "draw rows from the model",
        "inverse-CDF draws along one uniform stream per node",
        options=(_SEED, _opt("--n", type=int, required=True)),
    ),
    "backdoor": _Command(
        _cmd_backdoor,
        "check one adjustment set",
        "Z is admissible when every back-door path is blocked: a noncollider "
        "in Z, or a collider whose descendants stay outside Z",
        options=(
            _opt("-t", required=True, help="treatment node"),
            _opt("-r", required=True, help="response node"),
            _opt("-z", "--adjust", help="comma list of conditioning nodes"),
            _opt("--adjust-desc", help="treatment-descendant part of the set (extended check)"),
        ),
    ),
    "adjust-sets": _Command(
        _cmd_adjust_sets,
        "minimal valid adjustment sets",
        "minimal candidate subsets passing the back-door criterion",
        options=(_T, _R, _opt("--candidates", help="comma list (default: all eligible)")),
    ),
    "effect": _Command(
        _cmd_effect,
        "adjusted interventional law",
        "P(R=r under do T=t) = sum_z P(R=r | T=t, Z=z) P(Z=z)",
        options=(
            _T,
            _R,
            _opt("--adjust", help="comma list of adjustment nodes"),
            _opt(
                "--t-values",
                required=True,
                help="treatment values, comma list; with two, the effect is "
                "second minus first",
            ),
        ),
    ),
    "frontdoor": _Command(
        _cmd_frontdoor,
        "mediator identification",
        "l_y(w) = sum_z P(z|y) sum_y' P(w|y',z) P(y')",
        roles=_From("identify", "_FRONTDOOR_ROLES"),
    ),
    "eelworms": _Command(
        _cmd_eelworms,
        "pest-count identification",
        "mu_x(y) = sum_(v,w) P(y|x,v,w) sum_u P(v|x,u) sum_x' P(w|v,x',u) P(x',u)",
        roles=_From("identify", "_EELWORMS_ROLES"),
    ),
    "gformula": _Command(
        _cmd_gformula,
        "two-stage treatment plan",
        "sum_(x,r,x2) P(x) P(r|x,t) P(x2|x,t,r) P(r2|x2,t2,t)",
        roles=_From("identify", "_GFORMULA_ROLES"),
        options=(
            _opt("--t", dest="t_value", required=True, help="first value"),
            _opt("--t2", dest="t2_value", required=True, help="second value"),
        ),
    ),
    "direct-effect": _Command(
        _cmd_direct_effect,
        "first treatment, second held",
        "p_t(y) = sum_y3 P(Y1=y | Y2=y2, Y3=y3, Y4=t) P(Y3=y3 | Y4=t)",
        roles=_From("estimands", "_TWO_STAGE_ROLES"),
        options=(
            _opt("--y2", required=True, help="fixed second-treatment value"),
            _opt("--t", dest="t_value", required=True, help="first-treatment value"),
        ),
    ),
    "policy": _Command(
        _cmd_policy,
        "withhold-unless-indicated response law",
        "P(Y1=y under withhold-unless-Y3) = P(y, Y3=0 | y4) "
        "+ P(y | Y2=1, Y3=1, y4) P(Y3=1 | y4)",
        roles=_From("estimands", "_TWO_STAGE_ROLES"),
    ),
    "mediation": _Command(
        _cmd_mediation,
        "indirect-channel decomposition",
        "sum_(b,q) E(H | b, q, S=1) {P(b,q | S=0) - P(b,q | S=1)}",
        roles=_From("estimands", "_HIRING_ROLES"),
        options=(_opt("--sigma", help="assumed S-law k=v,... for the fixed variant"),),
    ),
    "iv": _Command(
        _cmd_iv,
        "instrumental-variable ratio",
        model="optional",
        roles=_From("estimands", "_IV_ROLES"),
        options=(
            _opt("--data", help="dataset CSV (alternative to --model)"),
            _opt("--method", choices=("theta", "multi", "tsls"), default="theta"),
        ),
    ),
    "oddsratio": _Command(
        _cmd_oddsratio,
        "per-stratum odds ratios",
        "p(1-q)/(q(1-p)) equals the response-side odds ratio in every stratum",
        roles=_From("estimands", "_ODDS_ROLES"),
    ),
    "casecontrol": _Command(
        _cmd_casecontrol,
        "paired sampling plus estimation",
        "matched pairs preserve the within-stratum exposure odds ratio",
        roles=_From("estimands", "_ODDS_ROLES"),
        options=(
            _SEED,
            _opt("--n", type=int, required=True, help="number of pairs"),
            _opt("--budget", type=int, default=_From("casecontrol", "DEFAULT_BUDGET")),
        ),
    ),
    "docalc": _Command(
        _cmd_docalc,
        "verify rule 1 or 2 on a partition",
        options=(
            _opt("--rule", type=int, choices=(1, 2), required=True),
            _opt("--w", help="conditioning nodes, comma list"),
            _opt("--x", default="", help="treatment assignments k=v,..."),
            _opt("--y", required=True, help="response nodes, comma list"),
            _opt("--z", help="second assignment set k=v,..."),
            _opt("--tol", type=_tolerance, default=1e-12),
        ),
    ),
    "diagnose": _Command(
        _cmd_diagnose,
        "stratified homogeneity checks",
        "index blocks of an exchangeable stratum share one response law; "
        "their p-values should look like a sample of uniforms",
        model=None,
        options=(
            _opt("--data", required=True, help="dataset CSV"),
            _opt("--x-cols", help="covariate columns, comma list"),
            _opt("--t-col", required=True),
            _opt("--r-col", required=True),
            _opt("--k", type=int, default=2, help="blocks per stratum"),
            _opt("--secondary", help="secondary index column"),
            _opt("--threshold", type=_finite_float, default=0.01),
        ),
    ),
    "example": _Command(
        _cmd_example,
        "build a catalog model",
        model=None,
        options=(
            _opt("name", nargs="?", help="catalog name (omit to list)"),
            _opt("--seed", type=int, default=0),
            _opt("--params", help="builder parameters k=v,... (JSON values)"),
            _opt("--model-out", help="write the model file here"),
        ),
    ),
}


def _build_parser(options_for=_COMMANDS) -> argparse.ArgumentParser:
    """The parser of every subcommand; only those named in `options_for`
    get their options, which may read their formula modules."""
    parser = argparse.ArgumentParser(
        prog="scmkit",
        description="Exact queries, interventions, and identification "
        "formulas over structural causal models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name not in options_for:
            continue
        if command.model:
            p.add_argument(
                "-m", "--model", required=command.model == "required", help="model file (JSON)"
            )
        if command.roles:
            p.add_argument(
                "--roles",
                help=f"role bindings as k=v pairs; roles: {', '.join(_resolve(command.roles))} "
                "(default: each role names its own node)",
            )
        for flags, kwargs in command.options:
            p.add_argument(*flags, **{k: _resolve(v) for k, v in kwargs.items()})
        p.add_argument("--out", help="write the output here instead of stdout")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="payload format; csv is available for row tables only",
        )
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option but -h, so the first token naming a
    # subcommand is the command.
    parser = _build_parser([token for token in argv if token in _COMMANDS][:1])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    report = {
        "command": args.command,
        "inputs": {
            k: v
            for k, v in sorted(vars(args).items())
            if k != "command" and v is not None
        },
        "result": None,
        "citations": [],
        "warnings": [],
        "error": None,
    }
    if args.format == "csv" and args.command not in _TABLE_COMMANDS:
        print("error: --format csv is only available for row tables", file=sys.stderr)
        return 2
    command = _COMMANDS[args.command]
    try:
        model = load_model(args.model) if command.model and args.model is not None else None
        roles = _roles(_resolve(command.roles), args.roles) if command.roles else None
        outcome = command.handler(args, report, model, roles)
        code = outcome if isinstance(outcome, int) else 0
        if command.citation:
            report["citations"] = [command.citation]
        # A result that JSON cannot carry, such as nan, fails here.
        text = outcome if args.format == "csv" else _canonical(report) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A RecursionError comes from input nested too deep to write back out.
    except (ScmError, OSError, RecursionError) as exc:
        report.update(result=None, citations=[], error=str(exc))
        sys.stdout.write(_canonical(report) + "\n")
        return 1
    try:
        sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
