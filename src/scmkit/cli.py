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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from . import casecontrol, estimands, identify
from .casecontrol import DEFAULT_BUDGET, estimate_cc_or, export_sample, simulate_case_control
from .diagnostics import homogeneity_report
from .docalc import NodePartition, verify_rule
from .errors import ScmError
from .estimands import (
    antibiotic_policy,
    iv_multi,
    iv_theta,
    iv_tsls,
    mediation_fixed_sex,
    natural_indirect,
    odds_ratio,
    two_stage_direct,
)
from .examples import ExampleSpec, build_example, list_examples
from .exogenous import DigitStream
from .graph import check_backdoor, check_backdoor_extended, descendants, enumerate_valid_adjustment_sets
from .identify import backdoor_effect, eelworms_effect, frontdoor, gformula2
from .scm import (
    Dataset,
    Intervention,
    Scm,
    _canonical,
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


def _parse_pairs(text: str, flag: str) -> dict:
    out = {}
    for part in _split_list(text):
        if "=" not in part:
            raise _UsageError(f"{flag} expects k=v pairs, got {part!r}")
        key, _, value = part.partition("=")
        if not key or not value:
            raise _UsageError(f"{flag} expects k=v pairs, got {part!r}")
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


# Role names of the subcommands that take --roles; by default each role
# names its own node.
_ROLE_NAMES = {
    "frontdoor": ("Y", "Z", "W", "X"),
    "eelworms": identify._EELWORMS_ROLES,
    "gformula": identify._GFORMULA_ROLES,
    "direct-effect": estimands._TWO_STAGE_ROLES,
    "policy": estimands._TWO_STAGE_ROLES,
    "mediation": estimands._HIRING_ROLES,
    "iv": estimands._IV_ROLES,
    "oddsratio": casecontrol._ROLE_NAMES,
    "casecontrol": casecontrol._ROLE_NAMES,
}


def _roles(args) -> dict:
    names = _ROLE_NAMES[args.command]
    roles = {name: name for name in names}
    for role, node in _parse_pairs(args.roles or "", "--roles").items():
        if role not in roles:
            raise _UsageError(f"--roles accepts {', '.join(names)}; got {role!r}")
        roles[role] = node
    return roles


def _joined_keys(mapping: dict) -> dict:
    return {
        "|".join(str(v) for v in (key if isinstance(key, tuple) else (key,))): value
        for key, value in mapping.items()
    }


def _str_keys(mapping: dict) -> dict:
    return {str(k): v for k, v in mapping.items()}


def _model_doc(scm: Scm) -> dict:
    return json.loads(scm_to_json(scm))


def _gaussian_doc(model: LinearGaussianScm) -> dict:
    nodes = sorted(model.dag.nodes, key=str)
    return {
        "nodes": nodes,
        "edges": sorted([list(e) for e in model.dag.edges]),
        "intercepts": _str_keys(model.intercepts),
        "coefficients": {
            str(n): _str_keys(model.coefficients[n]) for n in nodes
        },
        "noise_vars": _str_keys(model.noise_vars),
    }


# ---------------------------------------------------------------- handlers


def _cmd_validate(args, report):
    model = load_model(args.model)
    problems = validate_scm(model)
    report["result"] = {"ok": not problems, "problems": problems}
    if problems:
        report["error"] = f"model failed validation with {len(problems)} problem(s)"
        return 1
    return 0


def _cmd_joint(args, report):
    model = load_model(args.model)
    joint = joint_distribution(model)
    targets = tuple(_split_list(args.targets)) if args.targets else tuple(
        sorted(model.dag.nodes, key=str)
    )
    given = _assignments(model, args.given, "--given") if args.given else None
    law = restrict(joint, targets, given)
    report["citations"] = ["P(v) = product over nodes of P(v_i | parents_i)"]
    report["result"] = {
        "order": list(law.order),
        "probs": {
            "|".join(str(v) for v in cfg): float(p) for cfg, p in sorted(
                law.probs.items(), key=lambda kv: str(kv[0])
            )
        },
    }
    return 0


def _cmd_intervene(args, report):
    model = load_model(args.model)
    assignments = _assignments(model, args.set, "--set")
    cut = intervene(model, Intervention(assignments))
    report["citations"] = [
        "do(V=v): delete the mechanisms of the set nodes and fix their values"
    ]
    report["result"] = {"model": _model_doc(cut)}
    if args.model_out:
        save_model(cut, args.model_out)
    return 0


def _cmd_sample(args, report):
    model = load_model(args.model)
    data = sample(model, DigitStream(args.seed), args.n)
    report["citations"] = ["inverse-CDF draws along one uniform stream per node"]
    report["result"] = {
        "columns": list(data.columns),
        "rows": [list(row) for row in data.rows],
    }
    table = ",".join(str(c) for c in data.columns) + "\n"
    table += "".join(",".join(str(v) for v in row) + "\n" for row in data.rows)
    return 0, table


def _cmd_backdoor(args, report):
    model = load_model(args.model)
    z_nondesc = _split_list(args.adjust) if args.adjust else []
    if args.adjust_desc:
        verdict = check_backdoor_extended(
            model.dag, args.t, args.r, _split_list(args.adjust_desc), z_nondesc
        )
    else:
        verdict = check_backdoor(model.dag, args.t, args.r, z_nondesc)
    report["citations"] = [
        "Z is admissible when every back-door path is blocked: a noncollider "
        "in Z, or a collider whose descendants stay outside Z"
    ]
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


def _cmd_adjust_sets(args, report):
    model = load_model(args.model)
    if args.candidates:
        candidates = _split_list(args.candidates)
    else:
        blocked = {args.t, args.r} | descendants(model.dag, args.t)
        candidates = sorted(set(model.dag.nodes) - blocked, key=str)
    sets = enumerate_valid_adjustment_sets(model.dag, args.t, args.r, candidates)
    report["citations"] = [
        "minimal candidate subsets passing the back-door criterion"
    ]
    report["result"] = {
        "candidates": sorted(candidates, key=str),
        "minimal_sets": [sorted(s, key=str) for s in sets],
    }
    return 0


def _cmd_effect(args, report):
    model = load_model(args.model)
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
    report["citations"] = [
        "P(R=r under do T=t) = sum_z P(R=r | T=t, Z=z) P(Z=z)"
    ]
    laws = {str(t): _str_keys(effect.distributions[t]) for t in t_values}
    result = {"adjust": list(z_nodes), "laws": laws}
    if len(t_values) == 2:
        result["ate"] = effect.ate
        if effect.ate is None:
            report["warnings"].append(
                "response values are not numeric; no average effect"
            )
    report["result"] = result
    return 0


def _cmd_frontdoor(args, report):
    model = load_model(args.model)
    roles = _roles(args)
    out = frontdoor(
        joint_distribution(model),
        roles["Y"],
        roles["Z"],
        roles["W"],
        dag=model.dag,
        x_node=roles["X"],
    )
    report["citations"] = [
        "l_y(w) = sum_z P(z|y) sum_y' P(w|y',z) P(y')"
    ]
    report["result"] = {
        "effect": _joined_keys(out.effect),
        "intermediate": _joined_keys(out.intermediate),
    }
    return 0


def _cmd_eelworms(args, report):
    model = load_model(args.model)
    roles = _roles(args)
    law = eelworms_effect(joint_distribution(model), roles, dag=model.dag)
    report["citations"] = [
        "mu_x(y) = sum_(v,w) P(y|x,v,w) sum_u P(v|x,u) "
        "sum_x' P(w|v,x',u) P(x',u)"
    ]
    report["result"] = {"effect": _joined_keys(law)}
    return 0


def _cmd_gformula(args, report):
    model = load_model(args.model)
    roles = _roles(args)
    joint = joint_distribution(model)
    t_val = _domain_value(model, roles["T"], args.t_value)
    t2_val = _domain_value(model, roles["T2"], args.t2_value)
    law = gformula2(joint, roles, t_val, t2_val, dag=model.dag)
    report["citations"] = [
        "sum_(x,r,x2) P(x) P(r|x,t) P(x2|x,t,r) P(r2|x2,t2,t)"
    ]
    report["result"] = {"law": _str_keys(law)}
    return 0


def _cmd_direct_effect(args, report):
    model = load_model(args.model)
    roles = _roles(args)
    joint = joint_distribution(model)
    y2_val = _domain_value(model, roles["Y2"], args.y2)
    t_val = _domain_value(model, roles["Y4"], args.t_value)
    out = two_stage_direct(joint, roles, y2_val, t_val, dag=model.dag)
    report["citations"] = [
        "p_t(y) = sum_y3 P(Y1=y | Y2=y2, Y3=y3, Y4=t) P(Y3=y3 | Y4=t)"
    ]
    report["result"] = {"law": _str_keys(out["law"]), "mean": out["mean"]}
    return 0


def _cmd_policy(args, report):
    model = load_model(args.model)
    roles = _roles(args)
    out = antibiotic_policy(joint_distribution(model), roles, dag=model.dag)
    report["citations"] = [
        "P(Y1=y under withhold-unless-Y3) = P(y, Y3=0 | y4) "
        "+ P(y | Y2=1, Y3=1, y4) P(Y3=1 | y4)"
    ]
    report["result"] = {
        "law": _joined_keys(out["law"]),
        "means": _str_keys(out["means"]),
        "mean_at_1_lower": out["mean_at_1_lower"],
    }
    return 0


def _cmd_mediation(args, report):
    model = load_model(args.model)
    roles = _roles(args)
    joint = joint_distribution(model)
    indirect = natural_indirect(joint, roles, dag=model.dag)
    report["citations"] = [
        "sum_(b,q) E(H | b, q, S=1) {P(b,q | S=0) - P(b,q | S=1)}"
    ]
    result = {"natural_indirect": float(indirect)}
    if args.sigma:
        sigma = {
            _domain_value(model, roles["S"], token): float(weight)
            for token, weight in _parse_pairs(args.sigma, "--sigma").items()
        }
        fixed = mediation_fixed_sex(joint, roles, sigma, dag=model.dag)
        result["fixed_law"] = _joined_keys(fixed)
    report["result"] = result
    return 0


def _cmd_iv(args, report):
    roles = _roles(args)
    if (args.model is None) == (args.data is None):
        raise _UsageError("iv needs exactly one of --model or --data")
    if args.method == "tsls":
        if args.data is None:
            raise _UsageError("method tsls reads a dataset; pass --data")
        out = iv_tsls(Dataset.read_csv(args.data), roles)
        report["citations"] = ["theta = cov(I, R) / cov(I, T)"]
    elif args.method == "multi":
        if args.model is None:
            raise _UsageError("method multi needs the exact joint; pass --model")
        out = iv_multi(joint_distribution(load_model(args.model)), roles)
        report["citations"] = [
            "Theta = sum_k theta_k p_k over instrument levels i_k"
        ]
    else:
        source = (
            joint_distribution(load_model(args.model))
            if args.model
            else Dataset.read_csv(args.data)
        )
        out = iv_theta(source, roles)
        report["citations"] = [
            "theta = {E(R|I=1) - E(R|I=0)} / {E(T|I=1) - E(T|I=0)}"
        ]
    result = {
        "theta": float(out.theta),
        "numerator": float(out.numerator),
        "denominator": float(out.denominator),
        "valid": out.valid,
    }
    if out.thetas is not None:
        result["thetas"] = [float(t) for t in out.thetas]
        result["weights"] = [float(w) for w in out.weights]
    if out.first_stage is not None:
        result["first_stage"] = float(out.first_stage)
        result["reduced_form"] = float(out.reduced_form)
    report["result"] = result
    return 0


def _cmd_oddsratio(args, report):
    model = load_model(args.model)
    roles = _roles(args)
    out = odds_ratio(joint_distribution(model), roles)
    report["citations"] = [
        "p(1-q)/(q(1-p)) equals the response-side odds ratio in every stratum"
    ]
    report["warnings"] = list(out.warnings)
    report["result"] = {
        "per_x": {str(x): _str_keys(cell) for x, cell in out.per_x.items()},
        "overall": out.overall,
    }
    return 0


def _cmd_casecontrol(args, report):
    model = load_model(args.model)
    roles = _roles(args)
    pairs = simulate_case_control(
        model, args.n, DigitStream(args.seed), budget=args.budget, roles=roles
    )
    estimate = estimate_cc_or(pairs)
    report["citations"] = [
        "matched pairs preserve the within-stratum exposure odds ratio"
    ]
    report["warnings"] = list(estimate.warnings)
    report["result"] = {
        "pairs": pairs.pair_count,
        "per_x": {str(x): _str_keys(cell) for x, cell in estimate.per_x.items()},
        "overall": estimate.overall,
    }
    return 0, export_sample(pairs)


def _cmd_docalc(args, report):
    model = load_model(args.model)
    x = _assignments(model, args.x, "--x")
    z = _assignments(model, args.z, "--z") if args.z else None
    partition = NodePartition(
        w=frozenset(_split_list(args.w)) if args.w else frozenset(),
        x=frozenset(x),
        y=frozenset(_split_list(args.y)),
        z=frozenset(z) if z else frozenset(),
    )
    verdict = verify_rule(model, partition, args.rule, x, z=z, tol=args.tol)
    report["citations"] = [
        "rule 1: P(y | z, w) = P(y | w) under do(x) when Y and Z are "
        "independent given W there"
        if args.rule == 1
        else "rule 2: P(y | w) under do(x, z) = P(y | Z=z, w) under do(x) "
        "when the augmented independence holds"
    ]
    report["result"] = {
        "rule": verdict.rule,
        "condition": verdict.condition,
        "condition_holds": verdict.condition_holds,
        "condition_deviation": verdict.condition_deviation,
        "identity_deviation": verdict.identity_deviation,
        "tol": verdict.tol,
        "passed": verdict.passed,
    }
    return 0 if verdict.passed else 1


def _cmd_diagnose(args, report):
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
    report["citations"] = [
        "index blocks of an exchangeable stratum share one response law; "
        "their p-values should look like a sample of uniforms"
    ]
    report["warnings"] = list(out.warnings)
    report["result"] = {
        "alarm": out.alarm,
        "threshold": out.threshold,
        "pvalues": list(out.pvalues),
        "uniformity_statistic": out.uniformity_statistic,
        "uniformity_pvalue": out.uniformity_pvalue,
        "strata": [
            {
                "key": str(r.key),
                "compares": r.compares,
                "pair": list(r.pair),
                "left_counts": _str_keys(r.left_counts),
                "right_counts": _str_keys(r.right_counts),
                "statistic": r.statistic,
                "pvalue": r.pvalue,
            }
            for r in out.reports
        ],
    }
    return 0


def _cmd_example(args, report):
    if args.name is None:
        report["result"] = {"catalog": list(list_examples())}
        return 0
    params = {}
    if args.params:
        for key, raw in _parse_pairs(args.params, "--params").items():
            try:
                params[key] = json.loads(raw)
            except json.JSONDecodeError:
                params[key] = raw
    entry = next((e for e in list_examples() if e["name"] == args.name), None)
    model = build_example(ExampleSpec(args.name, params, seed=args.seed))
    if entry is not None:
        report["citations"] = [entry["citation"]]
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
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "joint": _cmd_joint,
    "intervene": _cmd_intervene,
    "sample": _cmd_sample,
    "backdoor": _cmd_backdoor,
    "adjust-sets": _cmd_adjust_sets,
    "effect": _cmd_effect,
    "frontdoor": _cmd_frontdoor,
    "eelworms": _cmd_eelworms,
    "gformula": _cmd_gformula,
    "direct-effect": _cmd_direct_effect,
    "policy": _cmd_policy,
    "mediation": _cmd_mediation,
    "iv": _cmd_iv,
    "oddsratio": _cmd_oddsratio,
    "casecontrol": _cmd_casecontrol,
    "docalc": _cmd_docalc,
    "diagnose": _cmd_diagnose,
    "example": _cmd_example,
}


def _subcommand(sub, name: str, help: str, required: bool = True):
    """Subparser with the model option and, for a role-taking command,
    its role bindings."""
    p = sub.add_parser(name, help=help)
    p.add_argument("-m", "--model", required=required, help="model file (JSON)")
    if name in _ROLE_NAMES:
        p.add_argument(
            "--roles",
            help=f"role bindings as k=v pairs; roles: {', '.join(_ROLE_NAMES[name])} "
            "(default: each role names its own node)",
        )
    return p


def _add_io(p):
    p.add_argument("--out", help="write the output here instead of stdout")
    p.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="payload format; csv is available for row tables only",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scmkit",
        description="Exact queries, interventions, and identification "
        "formulas over structural causal models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "validate", "check a model file")
    _add_io(p)

    p = _subcommand(sub, "joint", "exact joint or conditional law")
    p.add_argument("--targets", help="comma list of nodes (default: all)")
    p.add_argument("--given", help="conditioning assignments k=v,...")
    _add_io(p)

    p = _subcommand(sub, "intervene", "cut mechanisms and fix values")
    p.add_argument("--set", required=True, help="assignments k=v,...")
    p.add_argument("--model-out", help="write the cut model here")
    _add_io(p)

    p = _subcommand(sub, "sample", "draw rows from the model")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_io(p)

    p = _subcommand(sub, "backdoor", "check one adjustment set")
    p.add_argument("-t", required=True, help="treatment node")
    p.add_argument("-r", required=True, help="response node")
    p.add_argument("-z", "--adjust", help="comma list of conditioning nodes")
    p.add_argument(
        "--adjust-desc",
        help="treatment-descendant part of the set (extended check)",
    )
    _add_io(p)

    p = _subcommand(sub, "adjust-sets", "minimal valid adjustment sets")
    p.add_argument("-t", required=True)
    p.add_argument("-r", required=True)
    p.add_argument("--candidates", help="comma list (default: all eligible)")
    _add_io(p)

    p = _subcommand(sub, "effect", "adjusted interventional law")
    p.add_argument("-t", required=True)
    p.add_argument("-r", required=True)
    p.add_argument("--adjust", help="comma list of adjustment nodes")
    p.add_argument(
        "--t-values",
        required=True,
        help="treatment values, comma list; with two, the effect is "
        "second minus first",
    )
    _add_io(p)

    p = _subcommand(sub, "frontdoor", "mediator identification")
    _add_io(p)

    p = _subcommand(sub, "eelworms", "pest-count identification")
    _add_io(p)

    p = _subcommand(sub, "gformula", "two-stage treatment plan")
    p.add_argument("--t", dest="t_value", required=True, help="first value")
    p.add_argument("--t2", dest="t2_value", required=True, help="second value")
    _add_io(p)

    p = _subcommand(sub, "direct-effect", "first treatment, second held")
    p.add_argument("--y2", required=True, help="fixed second-treatment value")
    p.add_argument("--t", dest="t_value", required=True, help="first-treatment value")
    _add_io(p)

    p = _subcommand(sub, "policy", "withhold-unless-indicated response law")
    _add_io(p)

    p = _subcommand(sub, "mediation", "indirect-channel decomposition")
    p.add_argument("--sigma", help="assumed S-law k=v,... for the fixed variant")
    _add_io(p)

    p = _subcommand(sub, "iv", "instrumental-variable ratio", required=False)
    p.add_argument("--data", help="dataset CSV (alternative to --model)")
    p.add_argument("--method", choices=("theta", "multi", "tsls"), default="theta")
    _add_io(p)

    p = _subcommand(sub, "oddsratio", "per-stratum odds ratios")
    _add_io(p)

    p = _subcommand(sub, "casecontrol", "paired sampling plus estimation")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_io(p)

    p = _subcommand(sub, "docalc", "verify rule 1 or 2 on a partition")
    p.add_argument("--rule", type=int, choices=(1, 2), required=True)
    p.add_argument("--w", help="conditioning nodes, comma list")
    p.add_argument("--x", default="", help="treatment assignments k=v,...")
    p.add_argument("--y", required=True, help="response nodes, comma list")
    p.add_argument("--z", help="second assignment set k=v,...")
    p.add_argument("--tol", type=_finite_float, default=1e-12)
    _add_io(p)

    p = sub.add_parser("diagnose", help="stratified homogeneity checks")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--x-cols", help="covariate columns, comma list")
    p.add_argument("--t-col", required=True)
    p.add_argument("--r-col", required=True)
    p.add_argument("--k", type=int, default=2, help="blocks per stratum")
    p.add_argument("--secondary", help="secondary index column")
    p.add_argument("--threshold", type=_finite_float, default=0.01)
    _add_io(p)

    p = sub.add_parser("example", help="build a catalog model")
    p.add_argument("name", nargs="?", help="catalog name (omit to list)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", help="builder parameters k=v,... (JSON values)")
    p.add_argument("--model-out", help="write the model file here")
    _add_io(p)

    return parser


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
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
    table = None
    try:
        outcome = _HANDLERS[args.command](args, report)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScmError, OSError) as exc:
        report["error"] = str(exc)
        _write(_canonical(report) + "\n", None)
        return 1
    if isinstance(outcome, tuple):
        code, table = outcome
    else:
        code = outcome
    try:
        text = table if args.format == "csv" else _canonical(report) + "\n"
    except ScmError as exc:  # a result that JSON cannot carry, such as nan
        report["result"] = None
        report["error"] = str(exc)
        _write(_canonical(report) + "\n", None)
        return 1
    try:
        _write(text, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
