"""Exact-law activities: the small-query fuzz and the scaled passes.

Both call the program's exact layers (scm, identify, estimands, docalc,
graph, gaussian) on seeded models and check every result against the
dense, networkx or closed-form oracles in ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import oracles as orc
from common import Meter, call, central_mean, cpu, in_process_host, median, quantile, timed
from oracles import require

ROLE_SETS = {
    "eelworms": {r: r for r in ("X", "U", "V", "W", "Y")},
    "plan": {r: r for r in ("X", "T", "R", "X2", "T2", "R2")},
    "two_stage": {r: r for r in ("Y1", "Y2", "Y3", "Y4")},
    "hiring": {r: r for r in ("H", "B", "Q", "S")},
    "iv": {"I": "I", "T": "T", "R": "R"},
    "or": {"X": "X", "T": "T", "R": "R"},
}
SIGMA = {0: 0.25, 1: 0.75}


class Model:
    """A spec with its program model and (lazily) its dense law."""

    def __init__(self, spec):
        self.spec = spec
        self.scm = inputs.to_scm(spec)
        self._dense = None

    @property
    def dense(self) -> orc.Dense:
        if self._dense is None:
            self._dense = orc.Dense(self.spec)
        return self._dense


# ---------------------------------------------------------------- program calls


def joint(tr, scm):
    from scmkit.scm import joint_distribution

    out = call(tr, "scm.joint_distribution", joint_distribution, scm)
    tr.count("scm.joint_distribution.configs", len(out.probs))
    return out


def restrict(tr, table, targets, given=None):
    from scmkit.scm import restrict as _restrict

    tr.count("scm.restrict.configs_scanned", len(table.probs))
    return call(tr, "scm.restrict", _restrict, table, targets, given)


def program_law(tr, table, node, given=None) -> dict:
    """Conditional law of one node read from a program joint table."""
    law = restrict(tr, table, (node,), given)
    return {cfg[0]: p for cfg, p in law.probs.items()}


def program_do_law(tr, scm, assign, node, given=None) -> dict:
    """The mutilated-model oracle, computed by the program itself."""
    from scmkit.scm import Intervention, intervene

    with tr.span("oracle.do_law"):
        cut = call(tr, "scm.intervene", intervene, scm, Intervention(dict(assign)))
        return program_law(tr, joint(tr, cut), node, given)


def mean_of(law: dict):
    return sum(v * p for v, p in law.items())


# ---------------------------------------------------------------- comparisons


def compare_laws(got: dict, want: dict, what: str, exact: bool = False) -> None:
    """Per-law TV (or ==) where tuple keys end with the value of the law."""
    groups: dict = {}
    for source, table in (("got", got), ("want", want)):
        for key, p in table.items():
            head = key[:-1] if isinstance(key, tuple) else ()
            tail = key[-1] if isinstance(key, tuple) else key
            groups.setdefault(head, ({}, {}))[source == "want"][tail] = p
    for head, (g, w) in groups.items():
        orc.check_law(g, w, f"{what}{list(head) if head else ''}", exact)


@dataclass
class Check:
    """One formula query.  run(tr) -> (result, program-oracle result or
    None, formula seconds); verify(result, oracle result) raises Mismatch."""

    name: str
    run: Callable
    verify: Callable


def _laws_check(name, run, want):
    def verify(got, also):
        w = want()
        compare_laws(got, w, name)
        if also is not None:
            compare_laws(also, w, f"program oracle for {name}")

    return Check(name, run, verify)


def _number_check(name, run, want, rel=1e-12):
    def verify(got, also):
        w = want()
        orc.check_close(got, w, name, rel)
        if also is not None:
            orc.check_close(also, w, f"program oracle for {name}", rel)

    return Check(name, run, verify)


def shape_checks(shape: str, m: Model, extra: dict) -> list:
    """Formula queries on one catalog-shaped model, each with its oracle."""
    from scmkit import estimands as est
    from scmkit import identify as idf

    s = m.spec
    d = lambda assign, node, given=None: orc.do_law(s, assign, node, given)  # noqa: E731
    out = []
    if shape == "fig1":
        z = s.parents["T"]
        for fn_name, fn in (("adjust", idf.adjust), ("propensity_adjust", idf.propensity_adjust)):
            for t in (0, 1):
                def run(tr, t=t, fn=fn, fn_name=fn_name):
                    j = joint(tr, m.scm)
                    got, dt = timed(tr, f"identify.{fn_name}", fn, j, "T", t, "R", z)
                    return got, program_do_law(tr, m.scm, {"T": t}, "R"), dt

                out.append(_laws_check(f"identify.{fn_name}", run, lambda t=t: d({"T": t}, "R")))

        def run_ate(tr):
            j = joint(tr, m.scm)
            got, dt = timed(tr, "identify.ate", idf.ate, j, "T", 1, 0, "R", z)
            return got, None, dt

        out.append(_number_check(
            "identify.ate", run_ate,
            lambda: mean_of(d({"T": 1}, "R")) - mean_of(d({"T": 0}, "R")),
        ))
    elif shape == "smoking":
        ys = range(s.sizes["Y"])

        def run(tr):
            j = joint(tr, m.scm)
            obs = restrict(tr, j, ("Y", "Z", "W"))
            rep, dt = timed(tr, "identify.frontdoor", idf.frontdoor, obs, "Y", "Z", "W")
            also = {(y, w): p for y in ys for w, p in program_do_law(tr, m.scm, {"Y": y}, "W").items()}
            return dict(rep.effect), also, dt

        out.append(_laws_check(
            "identify.frontdoor", run,
            lambda: {(y, w): p for y in ys for w, p in d({"Y": y}, "W").items()},
        ))
    elif shape == "eelworms":
        xs = range(s.sizes["X"])

        def run(tr):
            j = joint(tr, m.scm)
            obs = restrict(tr, j, ("U", "X", "V", "W", "Y"))
            got, dt = timed(tr, "identify.eelworms_effect", idf.eelworms_effect, obs, ROLE_SETS["eelworms"])
            also = {(x, y): p for x in xs for y, p in program_do_law(tr, m.scm, {"X": x}, "Y").items()}
            return got, also, dt

        out.append(_laws_check(
            "identify.eelworms_effect", run,
            lambda: {(x, y): p for x in xs for y, p in d({"X": x}, "Y").items()},
        ))
    elif shape == "treatment_plan":
        roles = ROLE_SETS["plan"]

        def run_g(tr):
            j = joint(tr, m.scm)
            got, dt = timed(tr, "identify.gformula2", idf.gformula2, j, roles, 0, 1)
            return got, program_do_law(tr, m.scm, {"T": 0, "T2": 1}, "R2"), dt

        def run_gx(tr):
            j = joint(tr, m.scm)
            got, dt = timed(tr, "identify.gformula2_given_x", idf.gformula2_given_x, j, roles, 1, 0, 1)
            return got, program_do_law(tr, m.scm, {"T": 1, "T2": 0}, "R2", {"X": 1}), dt

        out.append(_laws_check("identify.gformula2", run_g, lambda: d({"T": 0, "T2": 1}, "R2")))
        out.append(_laws_check(
            "identify.gformula2_given_x", run_gx, lambda: d({"T": 1, "T2": 0}, "R2", {"X": 1})
        ))
    elif shape == "two_stage":
        def run(tr):
            j = joint(tr, m.scm)
            got, dt = timed(tr, "estimands.two_stage_direct", est.two_stage_direct,
                            j, ROLE_SETS["two_stage"], 0, 1)
            return got["law"], program_do_law(tr, m.scm, {"Y2": 0}, "Y1", {"Y4": 1}), dt

        out.append(_laws_check(
            "estimands.two_stage_direct", run, lambda: d({"Y2": 0}, "Y1", {"Y4": 1})
        ))
    elif shape == "two_stage_edge":
        policy = extra["policy"]
        y4s = range(s.sizes["Y4"])

        def run(tr):
            j = joint(tr, m.scm)
            got, dt = timed(tr, "estimands.antibiotic_policy", est.antibiotic_policy,
                            j, ROLE_SETS["two_stage"])
            law = {(y4, y1): p for (y1, y4), p in got["law"].items()}
            with tr.span("oracle.policy"):
                pj = joint(tr, policy.scm)
                also = {(y4, y1): p for y4 in y4s
                        for y1, p in program_law(tr, pj, "Y1", {"Y4": y4}).items()}
            return law, also, dt

        out.append(_laws_check(
            "estimands.antibiotic_policy", run,
            lambda: {(y4, y1): p for y4 in y4s for y1, p in policy.dense.law("Y1", {"Y4": y4}).items()},
        ))
    elif shape == "hiring":
        nat, fixed = extra["assumed_one"], extra["assumed_sigma"]
        roles = ROLE_SETS["hiring"]
        bqs = [(b, q) for b in range(s.sizes["B"]) for q in range(s.sizes["Q"])]

        def run_nat(tr):
            j = joint(tr, m.scm)
            got, dt = timed(tr, "estimands.natural_indirect", est.natural_indirect, j, roles)
            with tr.span("oracle.assumed_covariate"):
                nj = joint(tr, nat.scm)
                also = (mean_of(program_law(tr, nj, "H", {"S": 0}))
                        - mean_of(program_law(tr, nj, "H", {"S": 1})))
            return got, also, dt

        def run_fixed(tr):
            j = joint(tr, m.scm)
            got, dt = timed(tr, "estimands.mediation_fixed_sex", est.mediation_fixed_sex, j, roles, SIGMA)
            with tr.span("oracle.assumed_covariate"):
                fj = joint(tr, fixed.scm)
                also = {(b, q, h): p for b, q in bqs
                        for h, p in program_law(tr, fj, "H", {"B": b, "Q": q}).items()}
            return {(b, q, h): p for (h, b, q), p in got.items()}, also, dt

        out.append(_number_check(
            "estimands.natural_indirect", run_nat,
            lambda: mean_of(nat.dense.law("H", {"S": 0})) - mean_of(nat.dense.law("H", {"S": 1})),
        ))
        out.append(_laws_check(
            "estimands.mediation_fixed_sex", run_fixed,
            lambda: {(b, q, h): p for b, q in bqs for h, p in fixed.dense.law("H", {"B": b, "Q": q}).items()},
        ))
    elif shape == "iv":
        roles = ROLE_SETS["iv"]
        levels = s.sizes["I"]

        def want_iv():
            den = m.dense
            et = {i: mean_of(den.law("T", {"I": i})) for i in range(levels)}
            er = {i: mean_of(den.law("R", {"I": i})) for i in range(levels)}
            if levels == 2:
                return (er[1] - er[0]) / (et[1] - et[0])
            pi = den.law("I")
            raw = {k: pi[k] * (et[k] - et[0]) for k in range(1, levels)}
            total = sum(raw.values())
            return sum((er[k] - er[0]) / (et[k] - et[0]) * raw[k] / total for k in raw)

        if levels == 2:
            def run(tr):
                j = joint(tr, m.scm)
                got, dt = timed(tr, "estimands.iv_theta", est.iv_theta, j, roles)
                return got.theta, None, dt
            name = "estimands.iv_theta"
        else:
            def run(tr):
                j = joint(tr, m.scm)
                got, dt = timed(tr, "estimands.iv_multi", est.iv_multi, j, roles, 0)
                return got.theta, None, dt
            name = "estimands.iv_multi"
        out.append(_number_check(name, run, want_iv, rel=1e-9))
    elif shape == "drift":
        xs = range(s.sizes["X"])

        def run(tr):
            j = joint(tr, m.scm)
            got, dt = timed(tr, "estimands.odds_ratio", est.odds_ratio, j, ROLE_SETS["or"])
            return {x: got.per_x[x]["ratio_exposure_odds"] for x in xs}, None, dt

        def verify(got, also):
            den = m.dense
            for x in xs:
                p = den.law("T", {"R": 1, "X": x})[1]
                q = den.law("T", {"R": 0, "X": x})[1]
                orc.check_close(got[x], p * (1 - q) / (q * (1 - p)), f"odds ratio at x={x}")

        out.append(Check("estimands.odds_ratio", run, verify))
    return out


def shape_specs(rng, shape: str, size: int) -> tuple:
    """(spec, extra specs the oracle needs) for one shape and base size."""
    sizes = {
        "two_stage_edge": {"Y1": size, "Y2": 2, "Y3": 2, "Y4": size, "U": size},
        "hiring": {"S": 2, "B": size, "Q": size, "H": size},
        "iv": ({"I": 2, "T": 2, "R": size, "U": size} if size == 2
               else {"I": 3, "T": 2, "R": 3, "U": 2}),
        "drift": {"X": size, "T": 2, "R": 2},
    }.get(shape, size)
    spec = inputs.shape_spec(rng, shape, sizes)
    extra = {}
    if shape == "two_stage_edge":
        extra["policy"] = orc.policy_spec(spec)
    if shape == "hiring":
        extra["assumed_one"] = orc.assumed_covariate_spec(spec, {1: 1.0})
        extra["assumed_sigma"] = orc.assumed_covariate_spec(spec, SIGMA)
    return spec, extra


FUZZ_SHAPES = ("fig1", "smoking", "eelworms", "treatment_plan", "two_stage",
               "two_stage_edge", "hiring", "iv", "drift")


def tsls_check(rows: list) -> Check:
    from scmkit.estimands import iv_tsls
    from scmkit.scm import Dataset

    data = Dataset(("I", "T", "R"), rows)

    def run(tr):
        got, dt = timed(tr, "estimands.iv_tsls", iv_tsls, data, ROLE_SETS["iv"])
        return got.theta, None, dt

    def verify(got, also):
        arr = np.array(rows, dtype=float)
        c = np.cov(arr.T, bias=True)
        orc.check_close(got, c[0, 2] / c[0, 1], "tsls ratio")

    return Check("estimands.iv_tsls", run, verify)


def docalc_case(rng, rule: int) -> tuple:
    """A 5-node random DAG, a W/X/Y/Z partition of one node each, a rule.

    The seed places the sets; their sizes are fixed, because the rule
    check's work grows with them, and a few cases with large sets would
    otherwise set the fuzz tail on their own."""
    spec = inputs.random_spec(rng, 5, 2, 2)
    order = rng.permutation(len(spec.nodes))
    labels = ("w", "x", "y", "z", "_")  # the last node is outside all four sets
    sets = {k: frozenset(spec.nodes[j] for j, lab in zip(order, labels) if lab == k) for k in "wxyz"}
    return spec, sets, rule


def docalc_check(case: tuple) -> Check:
    """verify_rule checked against d-separation in the surgically altered graph."""
    from scmkit.docalc import NodePartition, verify_rule

    spec, sets, rule = case
    m = Model(spec)
    part = NodePartition(**sets)
    x = {n: 0 for n in part.x}
    z = {n: 0 for n in part.z} if rule == 2 else None

    def run(tr):
        got, dt = timed(tr, "docalc.verify_rule", verify_rule, m.scm, part, rule, x, z)
        return got, None, dt

    def verify(got, also):
        import networkx as nx

        removed = set(part.x) | (set(part.z) if rule == 2 else set())
        parented = {n for n in removed if spec.parents[n]}
        g = nx.DiGraph()
        g.add_nodes_from(n for n in spec.nodes if n not in parented)
        g.add_edges_from((p, c) for p, c in spec.edges if p not in removed and c not in removed)
        if rule == 2:
            for n in part.z:
                if spec.parents[n]:
                    g.add_node(n)
                    g.add_edges_from((p, n) for p in spec.parents[n] if p not in part.x)
        holds = nx.is_d_separator(g, set(part.y), set(part.z), set(part.w))
        require(got.condition_holds == holds,
                f"rule {rule} condition {got.condition_holds}, d-separation {holds}")
        if holds:
            require(got.passed and got.identity_deviation <= got.tol,
                    f"rule {rule} holds but identity deviates by {got.identity_deviation!r}")
        else:
            require(not got.passed, f"rule {rule} passed without its condition")

    return Check("docalc.verify_rule", run, verify)


# ---------------------------------------------------------------- fuzz


class FuzzActivity:
    """Many small models; every formula query checked against its oracle.

    One step is a round over one group of models: every catalog shape at
    every domain size, two rule checks and one least-squares ratio.  The
    check rate is the median over rounds."""

    def __init__(self, seed: int, full: bool):
        self.seed = seed
        self.full = full
        # One mark before each query: a query is short, so one is local
        # enough, and the formula latency inside it shares its scale.
        self.host = in_process_host()
        self.cursor = 0
        self.latencies: list = []  # (formula CPU seconds, host marks)
        self.rounds_busy: list = []  # per round: [(check CPU seconds, host marks)]
        self.first: dict = {}   # (round, check) -> (result, oracle result)

    def generate(self) -> None:
        rng = inputs.rng_for(self.seed, 11)
        self.groups = []
        for _ in range(4 if self.full else 1):
            items = []
            for size in ((2, 3) if self.full else (2,)):
                items += [("shape", shape, *shape_specs(rng, shape, size)) for shape in FUZZ_SHAPES]
            if not self.full:
                # The multi-level instrument needs a ternary model.
                items.append(("shape", "iv", *shape_specs(rng, "iv", 3)))
            items += [("docalc", docalc_case(rng, 1)), ("docalc", docalc_case(rng, 2)),
                      ("tsls", inputs.iv_rows(rng, 200))]
            self.groups.append(items)

    def build(self, tr) -> None:
        self.rounds = []
        for items in self.groups:
            checks = []
            for item in items:
                if item[0] == "shape":
                    _, shape, spec, extra = item
                    checks += shape_checks(shape, Model(spec), {k: Model(v) for k, v in extra.items()})
                elif item[0] == "docalc":
                    checks.append(docalc_check(item[1]))
                else:
                    checks.append(tsls_check(item[1]))
            self.rounds.append(checks)

    def step(self, tr, ledger) -> None:
        k = self.cursor % len(self.rounds)
        self.cursor += 1
        busy = []
        for i, check in enumerate(self.rounds[k]):
            tr.next_op()
            marks = (self.host.mark(),)
            start = cpu()
            try:
                got, also, dt = check.run(tr)
            except Exception as exc:  # a program error is a failed operation
                ledger.record("exception", False, f"{check.name}: {type(exc).__name__}: {exc}")
                continue
            busy.append((cpu() - start, marks))
            self.latencies.append((dt, marks))
            if (k, i) not in self.first:
                self.first[k, i] = (got, also)
            else:
                ledger.record(check.name.split(".")[0], self.first[k, i] == (got, also),
                              f"{check.name}: a repeated query gave another result")
        if busy:
            self.rounds_busy.append(busy)

    def probe_steps(self) -> int:
        # 64 rounds of 19 queries: more than 10 latencies lie beyond p98.
        return 64

    def verify(self, ledger, tr) -> None:
        for (k, i), (got, also) in self.first.items():
            check = self.rounds[k][i]
            ledger.verify(check.name.split(".")[0], check.verify, got, also)

    def metrics(self) -> dict:
        scale = self.host.scale
        lat = [dt * scale(marks) for dt, marks in self.latencies] or [float("nan")]
        rates = [len(busy) / sum(dt * scale(marks) for dt, marks in busy)
                 for busy in self.rounds_busy] or [float("nan")]
        return {
            "fuzz_checks_per_s": (median(rates), "1/s"),
            "fuzz_query_p50_us": (central_mean(lat) * 1e6, "us"),
            # p98: a library run holds about 730 queries, so about 15 lie beyond.
            "fuzz_query_tail_us": (quantile(lat, 0.98) * 1e6, "us"),
        }


# ---------------------------------------------------------------- scaled


def _pick_query(rng, spec):
    """Treatment with parents and descendants, a response below it, and a
    two-node conditioning event for restrict."""
    below = {n: inputs.descendants(spec, n) for n in spec.nodes}
    treat = [n for n in spec.nodes if spec.parents[n] and below[n]]
    t = treat[int(rng.integers(len(treat)))]
    r = sorted(below[t])[int(rng.integers(len(below[t])))]
    others = [n for n in spec.nodes if n != r]
    given_nodes = [others[i] for i in rng.choice(len(others), 2, replace=False)]
    given = {g: int(rng.integers(spec.sizes[g])) for g in given_nodes}
    return t, r, given


def _ci_query(rng, spec):
    a, b, c = (spec.nodes[i] for i in rng.choice(len(spec.nodes), 3, replace=False))
    return (a,), (b,), (c,)


class ExactMix:
    """One float or Fraction pass: joint, restrict, adjust, the program's
    mutilated-model oracle, cond_independent and the shaped formulas."""

    def __init__(self, rng, n_joint: int, n_ci: int, shapes: dict, exact: bool):
        self.exact = exact
        self.specs = {"a": inputs.random_spec(rng, n_joint, 2, 3, exact)}
        self.t, self.r, self.given = _pick_query(rng, self.specs["a"])
        self.specs["c"] = inputs.random_spec(rng, n_ci, 2, 3, exact)
        self.ci = _ci_query(rng, self.specs["c"])
        for shape, sizes in shapes.items():
            self.specs[shape] = inputs.shape_spec(rng, shape, sizes, exact)

    def build(self) -> None:
        models = {k: Model(spec) for k, spec in self.specs.items()}
        self.a, self.c = models.pop("a"), models.pop("c")
        self.shapes = models

    def run(self, tr) -> dict:
        from scmkit import identify as idf
        from scmkit.scm import cond_independent

        out = {}
        z = self.a.spec.parents[self.t]
        j = joint(tr, self.a.scm)
        out["joint"] = (j.order, j.probs)
        out["restrict"] = restrict(tr, j, (self.r,), self.given).probs
        for t in (0, 1):
            out["adjust", t] = call(tr, "identify.adjust", idf.adjust, j, self.t, t, self.r, z)
        out["oracle", 1] = program_do_law(tr, self.a.scm, {self.t: 1}, self.r)
        cj = joint(tr, self.c.scm)
        out["ci"] = call(tr, "scm.cond_independent", cond_independent, cj, *self.ci)
        if "smoking" in self.shapes:
            sj = joint(tr, self.shapes["smoking"].scm)
            obs = restrict(tr, sj, ("Y", "Z", "W"))
            out["frontdoor"] = dict(call(tr, "identify.frontdoor", idf.frontdoor, obs, "Y", "Z", "W").effect)
        if "eelworms" in self.shapes:
            ej = joint(tr, self.shapes["eelworms"].scm)
            obs = restrict(tr, ej, ("U", "X", "V", "W", "Y"))
            out["eelworms"] = call(tr, "identify.eelworms_effect", idf.eelworms_effect,
                                   obs, ROLE_SETS["eelworms"])
        if "treatment_plan" in self.shapes:
            gj = joint(tr, self.shapes["treatment_plan"].scm)
            out["gformula2"] = call(tr, "identify.gformula2", idf.gformula2, gj, ROLE_SETS["plan"], 0, 1)
        return out

    def verify(self, out, ledger) -> None:
        ex = self.exact
        a = self.a
        ledger.verify("scm", _check_joint, out["joint"], a)
        ledger.verify("scm", lambda: compare_laws(
            {k[0]: p for k, p in out["restrict"].items()},
            a.dense.law(self.r, self.given), "restrict", ex))
        for t in (0, 1):
            want = orc.do_law(a.spec, {self.t: t}, self.r)
            ledger.verify("identify", compare_laws, out["adjust", t], want, "adjust", ex)
            if ("oracle", t) in out:
                ledger.verify("scm", compare_laws, out["oracle", t], want, "mutilated-model oracle", ex)
        ledger.verify("scm", _check_ci, out["ci"], self.c, self.ci)
        for key, shape, node, assign in (
            ("frontdoor", "smoking", "W", "Y"),
            ("eelworms", "eelworms", "Y", "X"),
        ):
            if key in out:
                s = self.shapes[shape].spec
                want = {(v, w): p for v in range(s.sizes[assign])
                        for w, p in orc.do_law(s, {assign: v}, node).items()}
                ledger.verify("identify", compare_laws, out[key], want, key, ex)
        if "gformula2" in out:
            s = self.shapes["treatment_plan"].spec
            ledger.verify("identify", compare_laws, out["gformula2"],
                          orc.do_law(s, {"T": 0, "T2": 1}, "R2"), "gformula2", ex)


def _check_joint(table: tuple, m: Model) -> None:
    """`table` is (order, probs) of a program joint; compare it with the
    dense product, mapping configurations onto the dense axes by name."""
    order, probs = table
    dense = m.dense
    perm = [list(order).index(n) for n in m.spec.nodes]
    require(len(probs) == dense.joint.size, "joint has the wrong number of configurations")
    if m.spec.exact:
        for cfg, p in probs.items():
            require(dense.joint[tuple(cfg[i] for i in perm)] == p, f"joint at {cfg} is not exact")
        return
    keys = np.array(list(probs.keys()), dtype=np.int64)[:, perm]
    vals = np.fromiter(probs.values(), dtype=float, count=len(probs))
    err = float(np.abs(dense.joint[tuple(keys.T)] - vals).max())
    require(err <= 1e-15, f"joint differs from the dense product by {err:.3g}")


def _check_ci(got, m: Model, query) -> None:
    (a,), (b,), (c,) = query
    dense = m.dense
    worst = 0.0
    for cv in range(m.spec.sizes[c]):
        ab = dense.conditional((a, b), {c: cv})
        pa = dense.law(a, {c: cv})
        pb = dense.law(b, {c: cv})
        for (av, bv), p in ab.items():
            worst = max(worst, abs(float(p) - float(pa[av]) * float(pb[bv])))
    import networkx as nx

    g = orc.digraph(m.spec.nodes, m.spec.edges)
    sep = nx.is_d_separator(g, {a}, {b}, {c})
    holds, dev = got
    require(holds == sep, f"cond_independent says {holds}, d-separation says {sep}")
    require(abs(dev - worst) <= 1e-12, f"independence deviation {dev!r} vs {worst!r}")


def _enum_query(rng, n: int, cands: int, target: int, tries: int = 12) -> tuple:
    """(nodes, edges, t, r, candidates) whose enumeration cost, counted as
    subsets visited times back-door paths per check, is closest to target."""
    import itertools

    best = None
    for _ in range(tries):
        nodes, parents = inputs.random_dag(rng, n, 2, "E")
        edges = [(p, c) for c in nodes for p in parents[c]]
        below_of = {v: inputs.descendants(edges, v) for v in nodes}
        treat = [v for v in nodes if parents[v] and below_of[v] and n - 1 - len(below_of[v]) >= cands]
        if not treat:
            continue
        t = treat[int(rng.integers(len(treat)))]
        r = sorted(below_of[t])[int(rng.integers(len(below_of[t])))]
        eligible = [v for v in nodes if v not in below_of[t] and v != t]
        picked = sorted(eligible[i] for i in rng.choice(len(eligible), cands, replace=False))
        subsets = [frozenset(c) for k in range(cands + 1) for c in itertools.combinations(picked, k)]
        is_valid = orc.backdoor_checker(nodes, edges, t, r)
        valid = [z for z in subsets if is_valid(z)]
        minimal = [z for z in valid if not any(o < z for o in valid)]
        visited = sum(1 for z in subsets if not any(m < z for m in minimal))
        cost = visited * inputs.count_backdoor_paths(nodes, edges, t, r, 10**6)
        score = abs(np.log((cost + 1) / target))
        if best is None or score < best[0]:
            best = (score, (nodes, edges, t, r, frozenset(picked)))
        if score < 0.05:
            break
    return best[1]


def _ext_query(rng, n: int) -> tuple:
    """(nodes, edges, t, r, deleted descendants, other conditioning nodes)."""
    nodes, parents = inputs.random_dag(rng, n, 2, "P")
    edges = [(p, c) for c in nodes for p in parents[c]]
    below_of = {v: inputs.descendants(edges, v) for v in nodes}
    t = max((v for v in nodes if parents[v]), key=lambda v: (len(below_of[v]) >= 3, -nodes.index(v)))
    below = below_of[t]
    r = sorted(v for v in below if not below_of[v])[-1]
    # Deleted nodes: children of t with no other ancestor below t, so the
    # merged graph stays acyclic.
    free = sorted(c for c, ps in parents.items()
                  if t in ps and c != r and not any(c in below_of[a] for a in below))
    eligible = [v for v in nodes if v not in below and v != t]
    z_non = frozenset(eligible[i] for i in rng.choice(len(eligible), min(2, len(eligible)), replace=False))
    return nodes, edges, t, r, frozenset(free[:2]), z_non


def _relabel(rng, query: tuple) -> tuple:
    """The same query with its node names permuted."""
    nodes = query[0]
    perm = rng.permutation(len(nodes))
    name = {v: nodes[int(i)] for v, i in zip(nodes, perm)}

    def sub(x):
        if isinstance(x, str):
            return name[x]
        if isinstance(x, frozenset):
            return frozenset(name[v] for v in x)
        if isinstance(x, list) and x and isinstance(x[0], tuple):
            return sorted((name[a], name[b]) for a, b in x)
        return tuple(name[v] for v in x)

    return tuple(sub(x) for x in query)


class GraphMix:
    """check_backdoor on dense DAGs, adjustment-set enumeration, and the
    pseudo-treatment check.

    The time of these queries depends strongly on graph structure (path
    counts, collider descendants, subsets pruned), so the structures are
    drawn once from a fixed generator and the workload seed relabels their
    nodes.  Every seed then asks for the same amount of graph work while
    the names, and so every traversal order, change with the seed."""

    STRUCTURE_SEED = 20_250

    def __init__(self, rng, dense_n: int, paths: int, enum_n: int, cands: int,
                 enum_cost: int, ext_n: int, copies: tuple = (2, 2)):
        self._draw(inputs.rng_for(self.STRUCTURE_SEED, dense_n), dense_n, paths, enum_n,
                   cands, enum_cost, ext_n, copies)
        self.bds = [_relabel(rng, q) for q in self.bds]
        self.enums = [_relabel(rng, q) for q in self.enums]
        self.ext = _relabel(rng, self.ext)

    def _draw(self, rng, dense_n, paths, enum_n, cands, enum_cost, ext_n, copies) -> None:
        self.bds = []
        for _ in range(copies[0]):
            nodes, edges, t, r = inputs.dense_graph(rng, dense_n, 3, paths)
            below = inputs.descendants(edges, t)
            eligible = [n for n in nodes if n not in below and n != t]
            z = [eligible[i] for i in rng.choice(len(eligible), min(3, len(eligible)), replace=False)]
            self.bds.append((nodes, edges, t, r, frozenset(z)))
        self.enums = [_enum_query(rng, enum_n, cands, enum_cost) for _ in range(copies[1])]
        self.ext = _ext_query(rng, ext_n)

    def build(self) -> None:
        from scmkit.graph import Dag

        self.bd_dags = [Dag(q[0], q[1]) for q in self.bds]
        self.enum_dags = [Dag(q[0], q[1]) for q in self.enums]
        self.ext_dag = Dag(self.ext[0], self.ext[1])

    def run(self, tr) -> dict:
        from scmkit import graph

        out = {"backdoor": [], "sets": []}
        for dag, (_, _, t, r, z) in zip(self.bd_dags, self.bds):
            rep = call(tr, "graph.check_backdoor", graph.check_backdoor, dag, t, r, z)
            tr.count("graph.check_backdoor.paths", len(rep.verdicts))
            out["backdoor"].append(call(tr, "graph.violating_paths", _verdict, rep))
        for dag, (_, _, t, r, cands) in zip(self.enum_dags, self.enums):
            tr.count("graph.enumerate_valid_adjustment_sets.candidates", len(cands))
            out["sets"].append(tuple(call(tr, "graph.enumerate_valid_adjustment_sets",
                                          graph.enumerate_valid_adjustment_sets, dag, t, r, cands)))
        _, _, t, r, zd, zn = self.ext
        rep = call(tr, "graph.check_backdoor_extended", graph.check_backdoor_extended,
                   self.ext_dag, t, r, zd, zn)
        out["extended"] = call(tr, "graph.violating_paths", _verdict, rep)
        return out

    def verify(self, out, ledger) -> None:
        for (nodes, edges, t, r, z), got in zip(self.bds, out["backdoor"]):
            ledger.verify("graph", orc.check_backdoor_verdict, nodes, edges, t, r, z, *got)
        for (nodes, edges, t, r, cands), got in zip(self.enums, out["sets"]):
            ledger.verify("graph", orc.check_minimal_sets, nodes, edges, t, r, cands, got)
        nodes, edges, t, r, zd, zn = self.ext
        m_nodes, m_edges, star = orc.merged_graph(nodes, edges, t, zd)
        ledger.verify("graph", orc.check_backdoor_verdict, m_nodes, m_edges, star, r, zn, *out["extended"])


def _verdict(report) -> tuple:
    return report.valid, tuple(
        (p.nodes, tuple(d == "forward" for d in p.directions)) for p in report.violating_paths()
    )


class GaussMix:
    """Moments, conditioning and intervention on random linear-Gaussian DAGs."""

    def __init__(self, rng, sizes):
        self.specs = [inputs.random_gauss(rng, n, 2) for n in sizes]
        self.queries = []
        for g in self.specs:
            on_idx = rng.choice(len(g.nodes), 3, replace=False)
            on = {g.nodes[i]: float(rng.normal()) for i in on_idx}
            forced = g.nodes[int(rng.integers(len(g.nodes)))]
            self.queries.append((on, forced))

    def build(self) -> None:
        self.models = [inputs.to_lg(g) for g in self.specs]

    def run(self, tr) -> list:
        from scmkit import gaussian as gs

        out = []
        for m, (on, forced) in zip(self.models, self.queries):
            law = call(tr, "gaussian.lg_moments", gs.lg_moments, m)
            cond = call(tr, "gaussian.lg_condition", gs.lg_condition, law, on)
            cut = call(tr, "gaussian.lg_intervene", gs.lg_intervene, m, forced, 1.0)
            out.append((law, cond, call(tr, "gaussian.lg_moments", gs.lg_moments, cut)))
        return out

    def verify(self, out, ledger) -> None:
        for g, (on, forced), (law, cond, cut) in zip(self.specs, self.queries, out):
            mean, cov = orc.gauss_moments(g)
            names = list(g.nodes)
            ledger.verify("gaussian", orc.check_gauss, law, names, mean, cov, "lg_moments")
            kept, cm, cc = orc.gauss_condition(mean, cov, names, on)
            ledger.verify("gaussian", orc.check_gauss, cond, kept, cm, cc, "lg_condition")
            forced_g = inputs.GaussSpec(
                g.nodes, g.parents, {**g.intercepts, forced: 1.0},
                {**g.coefficients, forced: {}}, {**g.noise, forced: 0.0},
            )
            fm, fc = orc.gauss_moments(forced_g)
            ledger.verify("gaussian", orc.check_gauss, cut, names, fm, fc, "lg_intervene")


def _same(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, tuple) and a and hasattr(a[0], "covariance"):
        return all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "covariance"):
        return a.order == b.order and np.array_equal(a.mean, b.mean) and np.array_equal(a.covariance, b.covariance)
    return a == b


class ScaledActivity:
    """A few large in-process queries, one pass per mix, mixes in rotation."""

    MIXES = ("float", "fraction", "graph", "gaussian")
    LAYER = {"float": "scm", "fraction": "scm", "graph": "graph", "gaussian": "gaussian"}

    def __init__(self, seed: int, full: bool):
        self.seed = seed
        self.full = full
        self.host = in_process_host()
        self.mixes: dict = {}
        self.times = {k: [] for k in self.MIXES}  # mix -> [metered CPU seconds]
        self.first: dict = {}
        self.cursor = 0

    def generate(self) -> None:
        rng = inputs.rng_for(self.seed, 22)
        if self.full:
            float_shapes = {
                "smoking": {"X": 4, "Y": 4, "Z": 8, "W": 8},
                "eelworms": {"A": 2, "B": 2, "U": 4, "X": 2, "V": 4, "W": 4, "Y": 8},
                "treatment_plan": {"X": 4, "T": 2, "R": 4, "X2": 4, "T2": 2, "R2": 4},
            }
            self.mixes["float"] = ExactMix(rng, 10, 9, float_shapes, exact=False)
            self.mixes["fraction"] = ExactMix(rng, 8, 7, {"treatment_plan": 3}, exact=True)
            self.mixes["graph"] = GraphMix(rng, 16, 5_000, 12, 9, 4_000, 12)
            self.mixes["gaussian"] = GaussMix(rng, (100, 200))
        else:
            shapes = {"smoking": 2, "eelworms": 2, "treatment_plan": 2}
            self.mixes["float"] = ExactMix(rng, 7, 6, shapes, exact=False)
            self.mixes["fraction"] = ExactMix(rng, 5, 5, {"treatment_plan": 2}, exact=True)
            self.mixes["graph"] = GraphMix(rng, 10, 200, 10, 5, 300, 9, copies=(1, 1))
            self.mixes["gaussian"] = GaussMix(rng, (20, 30))

    def build(self, tr) -> None:
        for mix in self.mixes.values():
            mix.build()

    def _pass(self, tr, ledger, mix: str) -> None:
        tr.next_op()
        try:
            with Meter(self.host) as meter, tr.span(f"pass.{mix}"):
                out = self.mixes[mix].run(tr)
        except Exception as exc:  # a program error is a failed operation
            ledger.record("exception", False, f"{mix} pass: {type(exc).__name__}: {exc}")
            return
        self.times[mix].append(meter.total)
        if mix not in self.first:
            self.first[mix] = out
        else:
            ledger.record(self.LAYER[mix], _same(self.first[mix], out),
                          f"{mix}: a repeated pass gave another result")

    def step(self, tr, ledger) -> None:
        mix = self.MIXES[self.cursor % len(self.MIXES)]
        self.cursor += 1
        self._pass(tr, ledger, mix)

    def probe_steps(self) -> int:
        return 12 * len(self.MIXES)

    def verify(self, ledger, tr) -> None:
        for mix, out in self.first.items():
            self.mixes[mix].verify(out, ledger)

    def metrics(self) -> dict:
        return {
            f"scaled_{mix}_pass_s": (median(self.times[mix] or [float("nan")]), "s")
            for mix in self.MIXES
        }
