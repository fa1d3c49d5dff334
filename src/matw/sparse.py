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
the weak-type containment behind the sum-triggered mass. Each verify_*
returns its certificate section as a plain JSON dict, which `certify`
inserts as it is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dyadic import ROOT, DyadicInterval
from .haar import HaarCoefficients, analyze, s3w_norm_squared, sw_norm_squared
from .linalg import operator_norm, psd_power, top_eigenvalue_stack
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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    every node with children; the verifiers read its inverse root, chain sums,
    norm-condition masks and thresholds. It is not serialized or compared.
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

    For every level strictly below the root (down to the leaves) this holds
    the chain sums and the norm-condition (1) mask, one row per interval of
    that level inside the root: row j is the interval of index
    (root.index << (level - root.level)) + j. The stopping children, the
    intervals that trigger either condition and lie below no triggered
    ancestor, are collected level by level, then by index, into `children`
    with their tags.

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
        avg_root = weight.average(root)
        self.inv_sqrt_root = psd_power(avg_root, -0.5, weight.eps_pd)
        inv_root_t = (self.inv_sqrt_root @ self.inv_sqrt_root).T.ravel()
        trace_clear = 0.5 * cfg.c1 * cfg.c1
        sqrt_root = weight.sqrt_average(root)
        block = f_values[root.leaf_slice(depth)]
        c_root = coeffs.levels[root.level][root.index]
        with np.errstate(over="ignore", invalid="ignore"):
            mean_norm = float(np.mean(np.linalg.norm(block @ sqrt_root, axis=1)))
            self.threshold = cfg.c2 * mean_norm * mean_norm
            self.root_chain = float(c_root @ avg_root @ c_root) * 2.0**root.level
        if not (math.isfinite(self.threshold) and math.isfinite(self.root_chain)):
            raise ValueError(f"the stopping threshold or chain sum at interval "
                             f"({root.level}, {root.index}) overflows the float range")

        self.chains: dict[int, np.ndarray] = {}
        self.cond1: dict[int, np.ndarray] = {}
        self.children: list[tuple[DyadicInterval, str]] = []
        chain, blocked = np.array([self.root_chain]), np.array([False])
        for level in range(root.level + 1, depth + 1):
            lo = root.index << (level - root.level)
            hi = (root.index + 1) << (level - root.level)
            if level < depth:
                c = coeffs.levels[level][lo:hi]
                q = np.einsum("ni,ij,nj->n", c, avg_root, c) * 2.0**level
            else:
                q = np.zeros(hi - lo)
            chain = np.repeat(chain, 2) + q
            averages = weight.level_averages(level)[lo:hi]
            # each row of <W>_L, flattened, dotted with <W>_R^{-1} transposed: t_L
            cond1 = ~(np.abs(averages.reshape(hi - lo, -1) @ inv_root_t) <= trace_clear)
            if cond1.any():
                sandwich = self.inv_sqrt_root @ averages[cond1] @ self.inv_sqrt_root
                cond1[cond1] = np.sqrt(top_eigenvalue_stack(sandwich)) > cfg.c1
            cond2 = chain > self.threshold
            triggered = cond1 | cond2
            blocked = np.repeat(blocked, 2)
            for j in np.nonzero(triggered & ~blocked)[0]:
                tag = "both" if cond1[j] and cond2[j] else ("type1" if cond1[j] else "type2")
                self.children.append((DyadicInterval(level, lo + int(j)), tag))
            blocked |= triggered
            self.chains[level] = chain
            self.cond1[level] = cond1

    def chain_at(self, interval: DyadicInterval) -> float:
        if interval == self.root:
            return self.root_chain
        row = interval.index - (self.root.index << (interval.level - self.root.level))
        return float(self.chains[interval.level][row])

    def norm_condition_at(self, interval: DyadicInterval) -> bool:
        row = interval.index - (self.root.index << (interval.level - self.root.level))
        return bool(self.cond1[interval.level][row])


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
            for interval, tag in scan.children:
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


def verify_sparseness(family: SparseFamily, target: float | None = None) -> dict:
    """Every node must own at least `target` of its measure outside its children."""
    if target is None:
        target = family.config.sparseness_target
    min_ratio, offending = 1.0, []
    for interval in family.intervals():
        ratio = family.node(interval).e_ratio
        min_ratio = min(min_ratio, ratio)
        if ratio < target:
            offending.append([interval.level, interval.index])
    return {"ok": not offending, "min_ratio": min_ratio, "offending": offending}


def verify_domination(weight: MatrixWeight, f, family: SparseFamily) -> dict:
    """Full energy against C1^2 C2 times the sparse square function energy."""
    cfg = family.config
    lhs = sw_norm_squared(weight, f).total
    rhs = cfg.c1 * cfg.c1 * cfg.c2 * s3w_norm_squared(weight, f, family)
    if not math.isfinite(rhs):
        raise ValueError("C1^2 C2 times the sparse square function energy overflows "
                         "the float range")
    return {"ok": lhs <= rhs * (1.0 + DOMINATION_SLACK), "lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _leq(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(1.0, abs(a), abs(b))


def verify_type1_trace_bound(family: SparseFamily, weight: MatrixWeight) -> dict:
    """Recheck, step by step, that norm-triggered children carry mass <= d/C1^2.

    Chain per parent node R with norm-triggered children {L}:
      C1^2 sum |L|  <  sum |L| ||<W>_L^{1/2} <W>_R^{-1/2}||^2
                    <= sum |L| ||.||_{HS}^2
                     = sum |L| tr(<W>_R^{-1/2} <W>_L <W>_R^{-1/2})
                     = sum_L int_L tr(<W>_R^{-1/2} W(x) <W>_R^{-1/2}) dx
                    <= int_R tr(...) = d |R|.
    <W>_R^{-1/2} is the one R's generation scan computed: KeyError without it.
    """
    c1, depth = family.config.c1, weight.depth
    rows, all_ok = [], True
    for parent in family.intervals():
        kids = [c for c in family.node(parent).children
                if family.node(c).trigger in ("type1", "both")]
        if not kids:
            continue
        inv_sqrt = family.scans[parent].inv_sqrt_root
        mass = sum(k.measure for k in kids)
        opnorm_sum = hs_sum = trace_sum = 0.0
        for k in kids:
            prod = weight.sqrt_average(k) @ inv_sqrt
            opnorm_sum += k.measure * operator_norm(prod) ** 2
            hs_sum += k.measure * float(np.sum(prod * prod))
            trace_sum += k.measure * float(np.trace(inv_sqrt @ weight.average(k) @ inv_sqrt))
        leaves = parent.leaf_slice(depth)
        lo = leaves.start
        leaf_traces = np.einsum("ij,njk,ki->n", inv_sqrt, weight.field.values[leaves], inv_sqrt)
        leaf_integral = float(sum(np.sum(leaf_traces[sl.start - lo:sl.stop - lo])
                                  for sl in (k.leaf_slice(depth) for k in kids)) * 2.0 ** -depth)
        full_integral = float(np.sum(leaf_traces) * 2.0 ** -depth)
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
    return {"ok": all_ok, "per_node": rows}


def verify_type2_weak_bound(family: SparseFamily) -> dict:
    """Sum-triggered children sit inside the super-level set of the localized
    square function of g = <W>_R^{1/2} f; their mass gives a lower estimate of
    the weak (1,1) norm of the square function, reported per node."""
    cfg = family.config
    rows, all_ok = [], True
    max_quotient = 0.0
    for parent in family.intervals():
        kids = [c for c in family.node(parent).children
                if family.node(c).trigger in ("type2", "both")]
        if not kids:
            continue
        scan, depth = family.scans[parent], family.depth
        lo, leaf_chain = parent.leaf_slice(depth).start, scan.chains[depth]
        contained = all(bool(np.all(leaf_chain[sl.start - lo:sl.stop - lo] > scan.threshold))
                        for sl in (k.leaf_slice(depth) for k in kids))
        mass = sum(k.measure for k in kids)
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
    return {"ok": all_ok, "max_weak_quotient": max_quotient, "per_node": rows}


def verify_maximality(family: SparseFamily) -> dict:
    """Every strict ancestor of a stopping child, within its generation,
    satisfies both conditions with <=."""
    violations = []
    for parent in family.intervals():
        for child in family.node(parent).children:
            scan, ancestor = family.scans[parent], child
            while ancestor.level > parent.level + 1:
                ancestor = ancestor.parent()
                held = {"norm": scan.norm_condition_at(ancestor),
                        "chain": scan.chain_at(ancestor) > scan.threshold}
                violations += [{"ancestor": [ancestor.level, ancestor.index],
                                "child": [child.level, child.index], "condition": condition}
                               for condition, hit in held.items() if hit]
    return {"ok": not violations, "violations": violations}


_REPORTS = ("sparseness", "domination", "type1_trace", "type2_weak", "maximality")


def certify(weight: MatrixWeight, f, cfg: StoppingConfig) -> dict:
    """Build the family and recheck every inequality; self-contained report."""
    family = build_sparse_family(weight, f, cfg)
    sections = dict(zip(_REPORTS, (
        verify_sparseness(family), verify_domination(weight, f, family),
        verify_type1_trace_bound(family, weight), verify_type2_weak_bound(family),
        verify_maximality(family))))
    return {
        "schema": "matw.certificate/1",
        "ok": all(section["ok"] for section in sections.values()),
        "config": cfg.to_json_dict(),
        "instance": {"depth": weight.depth, "dim": weight.dim},
        "family": family.to_json_dict(),
        **sections,
    }


def _config_from_json(obj: dict) -> StoppingConfig:
    return StoppingConfig(**{f.name: obj[f.name] for f in fields(StoppingConfig)})


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def recheck_certificate(cert: dict, weight: MatrixWeight, f) -> dict:
    """Recheck a certificate against the raw instance by certifying it again.

    Runs `certify` afresh, with the same code, under the certificate's own
    config, and requires the rebuilt family to equal the claimed one exactly:
    every node with its trigger, parent, children and e_ratio, and every
    generation. Each rebuilt report must pass and equal the certificate's own.
    This rejects a tampered or inconsistent certificate, but not a fault that
    `certify` itself has; that needs the exact, independent recheck that
    ROADMAP lists as open.
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
