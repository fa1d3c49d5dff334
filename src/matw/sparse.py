"""Stopping-time sparse domination of the weighted square function energy.

Starting from the root, descend the dyadic tree and stop at the maximal
intervals L where either
  (1) || <W>_L^{1/2} <W>_R^{-1/2} ||, the square root of the top eigenvalue of
      <W>_R^{-1/2} <W>_L <W>_R^{-1/2}, exceeds C1 against the current root R, or
  (2) the running sum over the chain R down to L of
      || <W>_R^{1/2} (f, h_I) ||^2 / |I| exceeds C2 <|| <W>_R^{1/2} f ||>_R^2.
Each stopping interval becomes the root of the next generation, with both
conditions reset against the new root. The collected intervals form a sparse
family and dominate the full energy with constant C1^2 C2.

Both conditions use strict inequalities, so equality never stops. The scan
decides condition (1) by the paper's own trace step: the top eigenvalue is at
most tr(<W>_R^{-1} <W>_L), so only intervals whose trace exceeds C1^2/2 need
an eigensolve (see _GenerationScan).

All verifications below recheck, instance by instance, each inequality the
construction is supposed to guarantee: sparseness of the E-sets, the
domination itself, the trace argument bounding the norm-triggered mass, and
the weak-type containment behind the sum-triggered mass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import ROOT, DyadicInterval
from .haar import HaarCoefficients, analyze, s3w_norm_squared, sw_norm_squared
from .linalg import hs_norm, operator_norm, psd_power, top_eigenvalue_stack, trace_of
from .weights import MatrixWeight

DOMINATION_SLACK = 1e-9
REL_TOL = 1e-9


@dataclass(frozen=True)
class StoppingConfig:
    """Stopping thresholds. c1^2 > 2d is the regime where the trace budget bites."""

    c1: float
    c2: float = 256.0
    sparseness_target: float = 0.5
    max_generations: int = 64
    weak_type_budget: float = 4.0

    def __post_init__(self):
        if self.c1 <= 1.0 or self.c2 <= 1.0:
            raise ValueError("stopping constants must exceed 1")
        if not 0.0 < self.sparseness_target <= 1.0:
            raise ValueError("sparseness target must lie in (0, 1]")

    def to_json_dict(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "sparseness_target": self.sparseness_target,
                "max_generations": self.max_generations, "weak_type_budget": self.weak_type_budget}


def default_stopping_config(dim: int, c1: float | None = None, c2: float = 256.0) -> StoppingConfig:
    """c1 defaults to 2 sqrt(d), which caps norm-triggered mass per node at 1/4;
    c2 = 256 with weak-type budget 4 caps sum-triggered mass at 1/4, giving
    1/2-sparseness."""
    return StoppingConfig(c1=2.0 * math.sqrt(dim) if c1 is None else c1, c2=c2)


@dataclass
class SparseNode:
    interval: DyadicInterval
    trigger: str  # root | type1 | type2 | both
    parent: DyadicInterval | None
    children: list[DyadicInterval] = field(default_factory=list)
    e_ratio: float = 1.0

    def to_json_dict(self) -> dict:
        return {
            "interval": [self.interval.level, self.interval.index],
            "trigger": self.trigger,
            "parent": None if self.parent is None else [self.parent.level, self.parent.index],
            "children": [[c.level, c.index] for c in sorted(self.children)],
            "e_ratio": self.e_ratio,
        }


@dataclass
class SparseFamily:
    """The stopping family of one instance (weight, f).

    `scans` holds the generation scan that `build_sparse_family` made for
    every node with children; the type-2 and maximality verifiers read their
    chain sums, norm-condition masks and thresholds from it. It is not
    serialized or compared.
    """

    depth: int
    dim: int
    config: StoppingConfig
    nodes: dict[DyadicInterval, SparseNode]
    generations: list[list[DyadicInterval]]
    scans: dict[DyadicInterval, _GenerationScan] = field(
        default_factory=dict, repr=False, compare=False)

    def intervals(self) -> list[DyadicInterval]:
        return sorted(self.nodes)

    def node(self, interval: DyadicInterval) -> SparseNode:
        return self.nodes[interval]

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "dim": self.dim,
            "nodes": [self.nodes[iv].to_json_dict() for iv in self.intervals()],
            "generations": [[[iv.level, iv.index] for iv in sorted(gen)] for gen in self.generations],
        }


class _GenerationScan:
    """Per-level condition data for one generation rooted at `root`.

    For every interval strictly below the root (down to the leaves) this holds
    the chain sums and the trigger masks of both conditions, plus the stopping
    mask: triggered and not below an already-triggered ancestor.

    Condition (1) is cleared without an eigensolve on every row whose trace
    t_L = tr(<W>_R^{-1} <W>_L) has |t_L| <= C1^2/2; only the other rows go to
    `top_eigenvalue_stack`, and a level with none skips it. The mask is the
    same as with a full eigensolve:
      - the sandwich <W>_R^{-1/2} <W>_L <W>_R^{-1/2} is PSD with trace t_L, so
        its top eigenvalue is at most t_L <= C1^2/2 < C1^2;
      - cond(<W>_R) <= max_x cond W(x) <= 1/eps_pd, since every Rayleigh
        quotient of <W>_R is a mean of those of the leaves, so the computed
        trace and eigenvalue lie within about d^2 u / eps_pd of the exact
        ones, relatively. MatrixWeight keeps eps_pd >= max(EPS_PD, 8 d^2 u),
        so this is at most 1/8 (2e-5 at d = 4 and the default eps_pd), inside
        the factor-2 margin;
      - a NaN or infinite trace fails the comparison and reaches the
        eigensolve, which raises on non-finite input.
    The traces of one level average d, so by Markov's inequality a share below
    2d/C1^2 of its rows reaches the eigensolve: half at the default C1 = 2 sqrt(d).
    """

    def __init__(self, weight: MatrixWeight, coeffs: HaarCoefficients,
                 f_values: np.ndarray, root: DyadicInterval, cfg: StoppingConfig):
        depth = weight.depth
        self.root = root
        self.depth = depth
        avg_root = weight.average(root)
        self.inv_sqrt_root = psd_power(avg_root, -0.5, weight.eps_pd)
        inv_root_t = (self.inv_sqrt_root @ self.inv_sqrt_root).T.ravel()
        trace_clear = 0.5 * cfg.c1 * cfg.c1
        sqrt_root = weight.sqrt_average(root)
        block = f_values[root.leaf_slice(depth)]
        mean_norm = float(np.mean(np.linalg.norm(block @ sqrt_root, axis=1)))
        self.threshold = cfg.c2 * mean_norm * mean_norm
        c_root = coeffs.levels[root.level][root.index]
        self.root_chain = float(c_root @ avg_root @ c_root) * 2.0**root.level

        self.offsets: dict[int, int] = {}
        self.chains: dict[int, np.ndarray] = {}
        self.cond1: dict[int, np.ndarray] = {}
        self.cond2: dict[int, np.ndarray] = {}
        self.stopping: dict[int, np.ndarray] = {}

        chain_prev = np.array([self.root_chain])
        blocked_prev = np.array([False])
        for level in range(root.level + 1, depth + 1):
            lo = root.index << (level - root.level)
            hi = (root.index + 1) << (level - root.level)
            self.offsets[level] = lo
            if level < depth:
                c = coeffs.levels[level][lo:hi]
                q = np.einsum("ni,ij,nj->n", c, avg_root, c) * 2.0**level
            else:
                q = np.zeros(hi - lo)
            chain = np.repeat(chain_prev, 2) + q
            averages = weight.level_averages(level)[lo:hi]
            # each row of <W>_L, flattened, dotted with <W>_R^{-1} transposed: t_L
            cond1 = ~(np.abs(averages.reshape(hi - lo, -1) @ inv_root_t) <= trace_clear)
            if cond1.any():
                sandwich = self.inv_sqrt_root @ averages[cond1] @ self.inv_sqrt_root
                cond1[cond1] = np.sqrt(top_eigenvalue_stack(sandwich)) > cfg.c1
            cond2 = chain > self.threshold
            triggered = cond1 | cond2
            blocked = np.repeat(blocked_prev, 2)
            self.chains[level] = chain
            self.cond1[level] = cond1
            self.cond2[level] = cond2
            self.stopping[level] = triggered & ~blocked
            blocked_prev = blocked | triggered
            chain_prev = chain

    def stopping_intervals(self) -> list[tuple[DyadicInterval, str]]:
        out = []
        for level in sorted(self.stopping):
            lo = self.offsets[level]
            for j in np.nonzero(self.stopping[level])[0]:
                c1_hit = bool(self.cond1[level][j])
                c2_hit = bool(self.cond2[level][j])
                tag = "both" if c1_hit and c2_hit else ("type1" if c1_hit else "type2")
                out.append((DyadicInterval(level, lo + int(j)), tag))
        return out

    def chain_at(self, interval: DyadicInterval) -> float:
        if interval == self.root:
            return self.root_chain
        return float(self.chains[interval.level][interval.index - self.offsets[interval.level]])

    def norm_condition_at(self, interval: DyadicInterval) -> bool:
        return bool(self.cond1[interval.level][interval.index - self.offsets[interval.level]])


def build_sparse_family(weight: MatrixWeight, f, cfg: StoppingConfig) -> SparseFamily:
    """Iterate the stopping construction generation by generation from the root."""
    coeffs = analyze(f)
    root_node = SparseNode(ROOT, "root", None)
    nodes = {ROOT: root_node}
    scans: dict[DyadicInterval, _GenerationScan] = {}
    generations = [[ROOT]]
    current = [ROOT]
    for _ in range(cfg.max_generations):
        nxt: list[DyadicInterval] = []
        for parent in current:
            if parent.level >= weight.depth:
                continue
            scan = _GenerationScan(weight, coeffs, f.values, parent, cfg)
            for interval, tag in scan.stopping_intervals():
                nodes[interval] = SparseNode(interval, tag, parent)
                nodes[parent].children.append(interval)
                nxt.append(interval)
            if nodes[parent].children:
                scans[parent] = scan
        if not nxt:
            break
        generations.append(nxt)
        current = nxt
    else:
        raise RuntimeError("max_generations exceeded: stopping children failed to shrink")
    for node in nodes.values():
        covered = sum(c.measure for c in node.children)
        node.e_ratio = (node.interval.measure - covered) / node.interval.measure
    return SparseFamily(weight.depth, weight.dim, cfg, nodes, generations, scans)


@dataclass
class SparsenessReport:
    ok: bool
    min_ratio: float
    offending: list[DyadicInterval]

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "min_ratio": self.min_ratio,
                "offending": [[iv.level, iv.index] for iv in self.offending]}


def verify_sparseness(family: SparseFamily, target: float | None = None) -> SparsenessReport:
    """Every node must own at least `target` of its measure outside its children."""
    if target is None:
        target = family.config.sparseness_target
    min_ratio, offending = 1.0, []
    for interval in family.intervals():
        ratio = family.node(interval).e_ratio
        min_ratio = min(min_ratio, ratio)
        if ratio < target:
            offending.append(interval)
    return SparsenessReport(not offending, min_ratio, offending)


@dataclass
class DominationReport:
    ok: bool
    lhs: float
    rhs: float
    slack: float

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack}


def verify_domination(weight: MatrixWeight, f, family: SparseFamily) -> DominationReport:
    """Full energy against C1^2 C2 times the sparse square function energy."""
    cfg = family.config
    lhs = sw_norm_squared(weight, f).total
    rhs = cfg.c1 * cfg.c1 * cfg.c2 * s3w_norm_squared(weight, f, family)
    return DominationReport(lhs <= rhs * (1.0 + DOMINATION_SLACK), lhs, rhs, rhs - lhs)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _leq(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


@dataclass
class TraceBoundReport:
    ok: bool
    per_node: list[dict]

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "per_node": self.per_node}


def verify_type1_trace_bound(family: SparseFamily, weight: MatrixWeight) -> TraceBoundReport:
    """Recheck, step by step, that norm-triggered children carry mass <= d/C1^2.

    Chain per parent node R with norm-triggered children {L}:
      C1^2 sum |L|  <  sum |L| ||<W>_L^{1/2} <W>_R^{-1/2}||^2
                    <= sum |L| ||.||_{HS}^2
                     = sum |L| tr(<W>_R^{-1/2} <W>_L <W>_R^{-1/2})
                     = sum_L int_L tr(<W>_R^{-1/2} W(x) <W>_R^{-1/2}) dx
                    <= int_R tr(...) = d |R|.
    """
    c1 = family.config.c1
    rows, all_ok = [], True
    for parent in family.intervals():
        kids = [family.node(c) for c in family.node(parent).children
                if family.node(c).trigger in ("type1", "both")]
        if not kids:
            continue
        inv_sqrt_parent = psd_power(weight.average(parent), -0.5, weight.eps_pd)
        mass = sum(k.interval.measure for k in kids)
        opnorm_sum = hs_sum = trace_sum = 0.0
        for k in kids:
            prod = weight.sqrt_average(k.interval) @ inv_sqrt_parent
            opnorm_sum += k.interval.measure * operator_norm(prod) ** 2
            hs_sum += k.interval.measure * hs_norm(prod) ** 2
            trace_sum += k.interval.measure * trace_of(
                inv_sqrt_parent @ weight.average(k.interval) @ inv_sqrt_parent)
        leaf_traces = np.einsum("ij,njk,ki->n", inv_sqrt_parent,
                                weight.field.values, inv_sqrt_parent)
        leaf_measure = 2.0 ** -weight.depth
        leaf_integral = float(sum(
            np.sum(leaf_traces[k.interval.leaf_slice(weight.depth)]) for k in kids) * leaf_measure)
        full_integral = float(np.sum(leaf_traces[parent.leaf_slice(weight.depth)]) * leaf_measure)
        d_measure = weight.dim * parent.measure
        steps = {
            "norm_exceeds_threshold": _leq(c1 * c1 * mass, opnorm_sum),
            "opnorm_le_hs": _leq(opnorm_sum, hs_sum),
            "hs_equals_trace": _close(hs_sum, trace_sum),
            "trace_equals_integral": _close(trace_sum, leaf_integral),
            "integral_monotone": _leq(leaf_integral, full_integral),
            "integral_equals_d_measure": _close(full_integral, d_measure),
            "mass_within_budget": _leq(mass, weight.dim * parent.measure / (c1 * c1)),
        }
        node_ok = all(steps.values())
        all_ok &= node_ok
        rows.append({
            "interval": [parent.level, parent.index], "ok": node_ok,
            "type1_mass": mass, "c1_sq_mass": c1 * c1 * mass,
            "opnorm_sum": opnorm_sum, "hs_sum": hs_sum, "trace_sum": trace_sum,
            "leaf_integral": leaf_integral, "full_integral": full_integral,
            "d_measure": d_measure, "mass_fraction": mass / parent.measure,
            "steps": steps,
        })
    return TraceBoundReport(all_ok, rows)


@dataclass
class WeakBoundReport:
    ok: bool
    max_weak_quotient: float
    per_node: list[dict]

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "max_weak_quotient": self.max_weak_quotient,
                "per_node": self.per_node}


def verify_type2_weak_bound(family: SparseFamily) -> WeakBoundReport:
    """Sum-triggered children sit inside the super-level set of the localized
    square function of g = <W>_R^{1/2} f; their mass gives a lower estimate of
    the weak (1,1) norm of the square function, reported per node."""
    cfg = family.config
    rows, all_ok = [], True
    max_quotient = 0.0
    for parent in family.intervals():
        kids = [family.node(c) for c in family.node(parent).children
                if family.node(c).trigger in ("type2", "both")]
        if not kids:
            continue
        scan = family.scans[parent]
        depth = family.depth
        leaf_chain = scan.chains[depth]
        contained = True
        for k in kids:
            sl = k.interval.leaf_slice(depth)
            lo = scan.offsets[depth]
            seg = leaf_chain[sl.start - lo:sl.stop - lo]
            contained &= bool(np.all(seg > scan.threshold))
        mass = sum(k.interval.measure for k in kids)
        fraction = mass / parent.measure
        quotient = math.sqrt(cfg.c2) * fraction
        max_quotient = max(max_quotient, quotient)
        node_ok = contained and quotient <= cfg.weak_type_budget
        all_ok &= node_ok
        rows.append({
            "interval": [parent.level, parent.index], "ok": node_ok,
            "contained_in_level_set": contained, "type2_mass": mass,
            "mass_fraction": fraction, "weak_quotient": quotient,
            "threshold": scan.threshold,
        })
    return WeakBoundReport(all_ok, max_quotient, rows)


@dataclass
class MaximalityReport:
    ok: bool
    violations: list[dict]

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "violations": self.violations}


def verify_maximality(family: SparseFamily) -> MaximalityReport:
    """Every strict ancestor of a stopping child, within its generation,
    satisfies both conditions with <=."""
    violations = []
    for parent in family.intervals():
        for child in family.node(parent).children:
            scan = family.scans[parent]
            ancestor = child.parent() if child.level > parent.level + 1 else None
            while ancestor is not None and ancestor != parent:
                if scan.norm_condition_at(ancestor):
                    violations.append({"ancestor": [ancestor.level, ancestor.index],
                                       "child": [child.level, child.index], "condition": "norm"})
                if scan.chain_at(ancestor) > scan.threshold:
                    violations.append({"ancestor": [ancestor.level, ancestor.index],
                                       "child": [child.level, child.index], "condition": "chain"})
                ancestor = ancestor.parent() if ancestor.level > parent.level + 1 else None
    return MaximalityReport(not violations, violations)


_REPORTS = ("sparseness", "domination", "type1_trace", "type2_weak", "maximality")


def certify(weight: MatrixWeight, f, cfg: StoppingConfig) -> dict:
    """Build the family and recheck every inequality; self-contained report."""
    family = build_sparse_family(weight, f, cfg)
    reports = (verify_sparseness(family), verify_domination(weight, f, family),
               verify_type1_trace_bound(family, weight), verify_type2_weak_bound(family),
               verify_maximality(family))
    return {
        "schema": "matw.certificate/1",
        "ok": all(report.ok for report in reports),
        "config": cfg.to_json_dict(),
        "instance": {"depth": weight.depth, "dim": weight.dim},
        "family": family.to_json_dict(),
        **{name: report.to_json_dict() for name, report in zip(_REPORTS, reports)},
    }


def _config_from_json(obj: dict) -> StoppingConfig:
    return StoppingConfig(c1=obj["c1"], c2=obj["c2"],
                          sparseness_target=obj["sparseness_target"],
                          max_generations=obj["max_generations"],
                          weak_type_budget=obj["weak_type_budget"])


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def recheck_certificate(cert: dict, weight: MatrixWeight, f) -> dict:
    """Independently validate a certificate's claims against the raw instance.

    Certifies the instance afresh under the certificate's own config and
    requires the rebuilt family to equal the claimed one exactly: every node
    with its trigger, parent, children and e_ratio, and every generation. Each
    rebuilt report must pass and equal the certificate's own. Nothing is taken
    from the certifying process.
    """
    cfg = _config_from_json(cert["config"])
    if cert["instance"]["depth"] != weight.depth or cert["instance"]["dim"] != weight.dim:
        return {"ok": False, "problems": ["instance shape does not match certificate"]}

    rebuilt = certify(weight, f, cfg)
    problems: list[str] = []
    if not _same(rebuilt["family"], cert["family"]):
        problems.append("family differs from the one rebuilt from the instance")
    for name in _REPORTS:
        if not rebuilt[name]["ok"]:
            problems.append(f"{name} fails on recheck")
        if not _same(rebuilt[name], cert[name]):
            problems.append(f"{name} report differs from certificate")
    if bool(cert["ok"]) != all(cert[name]["ok"] for name in _REPORTS):
        problems.append("top-level ok flag inconsistent with sub-reports")
    return {"ok": not problems, "problems": problems}
