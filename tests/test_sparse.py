import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matw.dyadic import ROOT, DyadicInterval, GridMatrixField, GridScalar, GridVector
from matw.haar import sw_norm_squared
from matw.sparse import (SparseFamily, SparseNode, StoppingConfig, recheck_certificate,
                         build_sparse_family, certify, default_stopping_config,
                         verify_domination, verify_maximality, verify_sparseness,
                         verify_type1_trace_bound, verify_type2_weak_bound)
from matw.linalg import EPS_PD
from matw.weights import MatrixWeight, WeightFamilySpec, generate_weight, matrix_weight_from_scalar

from _instances import random_instance
from _oracles import (children, contains, direct_average, norm_condition_mask,
                      random_grid_vector, stopping_children, type1_trace_sums)


def scalar_weight(depth, values):
    return matrix_weight_from_scalar(GridScalar(depth, values))


def haar_root_function(depth, dim):
    half = 1 << (depth - 1)
    vals = np.concatenate([np.ones((half, dim)), -np.ones((half, dim))])
    return GridVector(depth, dim, vals)


def test_identity_weight_haar_function_has_no_stopping_children():
    w = generate_weight(WeightFamilySpec("identity", 1, 4))
    f = haar_root_function(4, 1)
    assert stopping_children(ROOT, w, f, default_stopping_config(1)) == []
    family = build_sparse_family(w, f, default_stopping_config(1))
    assert family.intervals() == [ROOT]
    assert family.nodes[ROOT].e_ratio == 1.0


def test_zero_function_admits_only_norm_triggers():
    eps = 1e-3
    w = scalar_weight(2, [eps, eps, 1.0, 1.0])
    f = GridVector(2, 1, np.zeros((4, 1)))
    kids = stopping_children(ROOT, w, f, StoppingConfig(c1=1.2))
    assert kids == [(DyadicInterval(1, 1), "type1")]


def test_forced_type1_two_level_instance():
    # <w>_{[1/2,1]} / <w>_J = 2/(1+eps), so the right half triggers iff C1^2 < 2/(1+eps)
    eps = 1e-3
    w = scalar_weight(2, [eps, eps, 1.0, 1.0])
    f = GridVector(2, 1, np.zeros((4, 1)))
    family = build_sparse_family(w, f, StoppingConfig(c1=1.2))
    assert family.intervals() == [ROOT, DyadicInterval(1, 1)]
    assert family.nodes[ROOT].e_ratio == 0.5
    assert family.nodes[DyadicInterval(1, 1)].trigger == "type1"
    # defaults: c1 = 2 so c1^2 = 4 > 2, no trigger
    family_default = build_sparse_family(w, f, default_stopping_config(1))
    assert family_default.intervals() == [ROOT]


def test_type1_threshold_is_sharp():
    eps = 1e-3
    w = scalar_weight(2, [eps, eps, 1.0, 1.0])
    f = GridVector(2, 1, np.zeros((4, 1)))
    ratio = np.sqrt(2.0 / (1.0 + eps))
    below = stopping_children(ROOT, w, f, StoppingConfig(c1=ratio * 0.999))
    at_or_above = stopping_children(ROOT, w, f, StoppingConfig(c1=ratio * 1.001))
    assert (DyadicInterval(1, 1), "type1") in below
    assert at_or_above == []


def test_stopping_children_at_leaf_root_is_empty():
    w = generate_weight(WeightFamilySpec("identity", 1, 2))
    f = random_grid_vector(2, 1, np.random.default_rng(0))
    assert stopping_children(DyadicInterval(2, 1), w, f, default_stopping_config(1)) == []


def test_depth_zero_grid():
    w = generate_weight(WeightFamilySpec("rotating", 2, 0, parameter=1.0))
    f = GridVector(0, 2, [[3.0, -1.0]])
    assert stopping_children(ROOT, w, f, default_stopping_config(2)) == []
    family = build_sparse_family(w, f, default_stopping_config(2))
    assert family.intervals() == [ROOT]
    assert sw_norm_squared(w, f) == 0.0
    assert verify_domination(w, f, family)["ok"]


def test_type2_trigger_on_concentrated_function():
    # a spike makes the chain sum blow past C2 <||f||>^2 near the spike
    depth = 6
    w = generate_weight(WeightFamilySpec("identity", 1, depth))
    vals = np.zeros((1 << depth, 1))
    vals[0, 0] = 1.0
    f = GridVector(depth, 1, vals)
    cfg = StoppingConfig(c1=2.0, c2=16.0)
    family = build_sparse_family(w, f, cfg)
    tags = {family.nodes[iv].trigger for iv in family.intervals()} - {"root"}
    assert "type2" in tags
    assert verify_type2_weak_bound(family)["ok"]
    assert verify_domination(w, f, family)["ok"]


def test_family_nodes_form_tree_under_containment():
    weight, f = random_instance(12)
    family = build_sparse_family(weight, f, default_stopping_config(weight.dim))
    for interval in family.intervals():
        node = family.nodes[interval]
        if node.parent is not None:
            assert contains(node.parent, interval)
            assert interval != node.parent
        for child in node.children:
            assert contains(interval, child)


def test_e_sets_partition_the_root():
    for index in range(30):
        weight, f = random_instance(index, max_depth=6)
        family = build_sparse_family(weight, f, default_stopping_config(weight.dim))
        n = weight.field.n_leaves
        owner = np.full(n, -1)
        for rank, interval in enumerate(family.intervals()):
            node = family.nodes[interval]
            mask = np.zeros(n, dtype=bool)
            mask[interval.leaf_slice(weight.depth)] = True
            for child in node.children:
                mask[child.leaf_slice(weight.depth)] = False
            assert np.all(owner[mask] == -1), "E-sets overlap"
            owner[mask] = rank
            measured = mask.sum() / (interval.measure * n)
            assert abs(measured - node.e_ratio) <= 1e-12
        # every leaf is owned by the deepest family node containing it
        assert np.all(owner >= 0)


def test_both_trigger_tag():
    # norm condition fires on the right half; a spike there fires the chain too
    eps = 1e-4
    wvals = np.array([eps, eps, 1.0, 1.0])
    w = scalar_weight(2, wvals)
    f = GridVector(2, 1, np.array([[0.0], [0.0], [50.0], [0.0]]))
    family = build_sparse_family(w, f, StoppingConfig(c1=1.2, c2=1.5))
    node = family.nodes[DyadicInterval(1, 1)]
    assert node.trigger == "both"
    assert verify_type1_trace_bound(family, w)["ok"]
    assert verify_type2_weak_bound(family)["ok"]
    assert verify_domination(w, f, family)["ok"]


def test_generation_guard_fires_when_budget_too_small():
    # nested norm triggers need two generations; a budget of one must fail loudly
    w = scalar_weight(2, [0.01, 0.01, 0.1, 1.0])
    f = GridVector(2, 1, np.zeros((4, 1)))
    cfg = StoppingConfig(c1=1.2, max_generations=1)
    with pytest.raises(RuntimeError, match="max_generations"):
        build_sparse_family(w, f, cfg)
    family = build_sparse_family(w, f, StoppingConfig(c1=1.2))
    assert len(family.generations) >= 3


def test_generations_strictly_shrink():
    weight, f = random_instance(7)
    family = build_sparse_family(weight, f, default_stopping_config(weight.dim))
    for gen_prev, gen_next in zip(family.generations, family.generations[1:]):
        max_prev = max(iv.measure for iv in gen_prev)
        assert all(iv.measure < max_prev for iv in gen_next)


def test_construction_is_deterministic():
    weight, f = random_instance(3)
    cfg = default_stopping_config(weight.dim)
    a = certify(weight, f, cfg)
    b = certify(weight, f, cfg)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_verify_sparseness_reports_offenders():
    # hand-built family: children cover 3/4 of the root
    root_node = SparseNode(ROOT, "root", None,
                           children=[DyadicInterval(1, 0), DyadicInterval(2, 2)],
                           e_ratio=0.25)
    kid1 = SparseNode(DyadicInterval(1, 0), "type1", ROOT, e_ratio=1.0)
    kid2 = SparseNode(DyadicInterval(2, 2), "type2", ROOT, e_ratio=1.0)
    family = SparseFamily(3, 1, default_stopping_config(1),
                          {n.interval: n for n in (root_node, kid1, kid2)},
                          [[ROOT], [kid1.interval, kid2.interval]])
    report = verify_sparseness(family)  # the default target, 0.5
    assert not report["ok"]
    assert report["min_ratio"] == 0.25
    assert report["offending"] == [[0, 0]]
    relaxed = dataclasses.replace(family.config, sparseness_target=0.25)
    assert verify_sparseness(dataclasses.replace(family, config=relaxed))["ok"]


def test_domination_identity_haar_function():
    w = generate_weight(WeightFamilySpec("identity", 1, 3))
    f = haar_root_function(3, 1)
    family = build_sparse_family(w, f, default_stopping_config(1))
    report = verify_domination(w, f, family)
    assert report["ok"]
    assert abs(report["lhs"] - 1.0) <= 1e-12
    # rhs = C1^2 C2 <|h_J|>^2 |J| = 4 * 256
    assert abs(report["rhs"] - 1024.0) <= 1e-9


def test_domination_zero_function():
    w = generate_weight(WeightFamilySpec("rotating", 2, 3, parameter=1.0))
    f = GridVector(3, 2, np.zeros((8, 2)))
    family = build_sparse_family(w, f, default_stopping_config(2))
    report = verify_domination(w, f, family)
    assert report["ok"] and report["lhs"] == 0.0 and report["rhs"] == 0.0


def test_domination_refuses_an_overflowing_right_side():
    # ||S_W f||^2 = 3.6e305 and the threshold 256 * 3.6e305 are finite, but
    # C1^2 C2 = 1024 times the sparse energy is not
    w = generate_weight(WeightFamilySpec("identity", 1, 1))
    f = GridVector(1, 1, [[6e152], [-6e152]])
    family = build_sparse_family(w, f, default_stopping_config(1))
    assert sw_norm_squared(w, f) == pytest.approx(3.6e305)
    with pytest.raises(ValueError, match="C1\\^2 C2 times the sparse square function energy"):
        verify_domination(w, f, family)


def test_randomized_suite_all_verifications():
    worst_ratio = 1.0
    for index in range(120):
        weight, f = random_instance(index)
        cfg = default_stopping_config(weight.dim)
        family = build_sparse_family(weight, f, cfg)
        dom = verify_domination(weight, f, family)
        assert dom["ok"], f"instance {index}: domination failed"
        sp = verify_sparseness(family)
        assert sp["ok"], f"instance {index}: sparseness {sp['min_ratio']}"
        worst_ratio = min(worst_ratio, sp["min_ratio"])
        assert verify_type1_trace_bound(family, weight)["ok"], f"instance {index}"
        t2 = verify_type2_weak_bound(family)
        assert t2["ok"], f"instance {index}"
        assert t2["max_weak_quotient"] <= cfg.weak_type_budget
        assert verify_maximality(family)["ok"], f"instance {index}"
    assert worst_ratio >= 0.5


def test_trace_bound_steps_reported():
    eps = 1e-3
    w = scalar_weight(2, [eps, eps, 1.0, 1.0])
    f = GridVector(2, 1, np.zeros((4, 1)))
    family = build_sparse_family(w, f, StoppingConfig(c1=1.2))
    report = verify_type1_trace_bound(family, w)
    assert report["ok"]
    (row,) = report["per_node"]
    assert row["type1_mass"] == 0.5
    # 1/2 <= d |J| / C1^2 = 1/1.44 holds because C1^2 <= 2
    assert row["steps"]["mass_within_budget"]
    assert row["steps"]["integral_equals_d_measure"]


def test_weak_bound_vacuous_without_type2_children():
    w = generate_weight(WeightFamilySpec("identity", 1, 3))
    f = haar_root_function(3, 1)
    family = build_sparse_family(w, f, default_stopping_config(1))
    report = verify_type2_weak_bound(family)
    assert report["ok"] and report["per_node"] == [] and report["max_weak_quotient"] == 0.0


def test_maximality_on_deep_instances():
    for index in (5, 9, 31, 44):
        weight, f = random_instance(index)
        family = build_sparse_family(weight, f, default_stopping_config(weight.dim))
        assert verify_maximality(family)["ok"]


def test_certificate_contents_and_self_consistency():
    weight, f = random_instance(20, max_depth=6)
    cfg = default_stopping_config(weight.dim)
    cert = certify(weight, f, cfg)
    assert cert["ok"]
    assert cert["schema"] == "matw.certificate/1"
    assert cert["config"]["c1"] == cfg.c1
    assert cert["instance"] == {"depth": weight.depth, "dim": weight.dim}
    lhs = sw_norm_squared(weight, f)
    assert abs(cert["domination"]["lhs"] - lhs) <= 1e-12 * max(1.0, lhs)
    node_intervals = {tuple(n["interval"]) for n in cert["family"]["nodes"]}
    assert (0, 0) in node_intervals


def test_stopping_config_validation():
    with pytest.raises(ValueError):
        StoppingConfig(c1=1.0)
    with pytest.raises(ValueError):
        StoppingConfig(c1=2.0, c2=0.5)
    with pytest.raises(ValueError):
        StoppingConfig(c1=2.0, sparseness_target=0.0)


def _brute_stopping_children(weight, f, root, cfg):
    """Recursive reference implementation of the stopping descent."""
    from matw.haar import analyze as _analyze
    from matw.linalg import operator_norm, psd_power

    depth = weight.depth
    coeffs = _analyze(f)
    avg_root = weight.field.average(root)
    inv_sqrt_root = psd_power(avg_root, -0.5)
    sqrt_root = psd_power(avg_root, 0.5)
    block = f.values[root.leaf_slice(depth)]
    thr = cfg.c2 * float(np.mean(np.linalg.norm(block @ sqrt_root, axis=1))) ** 2

    def q(interval):
        if interval.level >= depth:
            return 0.0
        c = coeffs[interval.level][interval.index]
        return float(c @ avg_root @ c) / interval.measure

    found = []

    def descend(interval, chain_above):
        chain = chain_above + q(interval)
        sqrt_here = psd_power(weight.field.average(interval), 0.5)
        cond1 = operator_norm(sqrt_here @ inv_sqrt_root) > cfg.c1
        cond2 = chain > thr
        if cond1 or cond2:
            tag = "both" if cond1 and cond2 else ("type1" if cond1 else "type2")
            found.append((interval, tag))
            return
        if interval.level < depth:
            left, right = children(interval, depth)
            descend(left, chain)
            descend(right, chain)

    if root.level < depth:
        left, right = children(root, depth)
        descend(left, q(root))
        descend(right, q(root))
    return sorted(found)


def test_stopping_children_match_recursive_reference():
    for index in range(40):
        weight, f = random_instance(index, max_depth=6)
        cfg = default_stopping_config(weight.dim)
        fast = sorted(stopping_children(ROOT, weight, f, cfg))
        brute = _brute_stopping_children(weight, f, ROOT, cfg)
        assert fast == brute, f"instance {index}"
    # harsher constants exercise deep nesting and mixed tags
    for index in range(40):
        weight, f = random_instance(index, max_depth=6)
        cfg = StoppingConfig(c1=1.3, c2=4.0)
        assert sorted(stopping_children(ROOT, weight, f, cfg)) == \
            _brute_stopping_children(weight, f, ROOT, cfg), f"instance {index}"


def test_scan_chain_values_match_ancestor_sums():
    from matw.haar import analyze as _analyze
    from matw.sparse import _GenerationScan

    weight, f = random_instance(7, max_depth=6)
    assert weight.depth >= 2
    cfg = default_stopping_config(weight.dim)
    coeffs = _analyze(f)
    for root in (ROOT, DyadicInterval(1, 0)):
        scan = _GenerationScan(weight, coeffs, f.values, root, cfg)
        avg_root = weight.field.average(root)
        for level in range(root.level + 1, weight.depth + 1):
            for index in range(root.index << (level - root.level),
                               (root.index + 1) << (level - root.level)):
                interval = DyadicInterval(level, index)
                expected = 0.0
                walk = interval
                while True:
                    if walk.level < weight.depth:
                        c = coeffs[walk.level][walk.index]
                        expected += float(c @ avg_root @ c) / walk.measure
                    if walk == root:
                        break
                    walk = walk.parent()
                got = scan.chain_at(interval)
                assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_recheck_accepts_genuine_certificates():
    for index in (2, 11, 26, 53):
        weight, f = random_instance(index, max_depth=7)
        cert = certify(weight, f, default_stopping_config(weight.dim))
        result = recheck_certificate(cert, weight, f)
        assert result["ok"], result["problems"]


def _dropped(cert):
    cert["family"]["nodes"] = [n for n in cert["family"]["nodes"] if n["parent"] is None]
    cert["family"]["nodes"][0]["children"] = []
    cert["family"]["nodes"][0]["e_ratio"] = 1.0


def _retagged(cert):
    for node in cert["family"]["nodes"]:
        if node["trigger"] == "both":
            node["trigger"] = "type1"


def _inflated(cert):
    cert["domination"]["lhs"] *= 0.5


def _flipped(cert):
    cert["ok"] = False


def test_recheck_rejects_tampered_certificates():
    eps = 1e-3
    weight = scalar_weight(2, [eps, eps, 1.0, 1.0])
    f = GridVector(2, 1, np.array([[0.0], [0.0], [50.0], [0.0]]))
    cfg = StoppingConfig(c1=1.2, c2=1.5)
    clean = certify(weight, f, cfg)
    assert recheck_certificate(clean, weight, f)["ok"]
    for tamper in (_dropped, _retagged, _inflated, _flipped):
        cert = json.loads(json.dumps(clean))
        tamper(cert)
        assert not recheck_certificate(cert, weight, f)["ok"], tamper.__name__


def _orphan_children(family):
    family["nodes"] = [n for n in family["nodes"] if n["parent"] is None]


def _invented_leaf(family):
    family["nodes"].append({"interval": [2, 0], "trigger": "type1", "parent": [0, 0],
                            "children": [], "e_ratio": 1.0})


def _truncated_generations(family):
    assert len(family["generations"]) == 2
    del family["generations"][1:]


@pytest.mark.parametrize("tamper", [_orphan_children, _invented_leaf, _truncated_generations])
def test_recheck_rejects_inconsistent_family(tamper):
    eps = 1e-3
    weight = scalar_weight(2, [eps, eps, 1.0, 1.0])
    f = GridVector(2, 1, np.array([[0.0], [0.0], [50.0], [0.0]]))
    cert = json.loads(json.dumps(certify(weight, f, StoppingConfig(c1=1.2, c2=1.5))))
    tamper(cert["family"])
    result = recheck_certificate(cert, weight, f)
    assert not result["ok"]
    assert result["problems"]


FAMILY_DIFFERS = "family differs from the one rebuilt from the instance"


def _dropped_inflated_flipped(cert):
    _dropped(cert)
    _inflated(cert)
    _flipped(cert)


def _stricter_config(cert):
    cert["config"]["sparseness_target"] = 1.0
    cert["config"]["weak_type_budget"] = 0.5


@pytest.mark.parametrize("tamper, problems", [
    (_dropped, [FAMILY_DIFFERS]),
    (_retagged, [FAMILY_DIFFERS]),
    (_inflated, ["domination report differs from certificate"]),
    (_flipped, ["top-level ok flag inconsistent with sub-reports"]),
    (lambda cert: _orphan_children(cert["family"]), [FAMILY_DIFFERS]),
    (lambda cert: _invented_leaf(cert["family"]), [FAMILY_DIFFERS]),
    (lambda cert: _truncated_generations(cert["family"]), [FAMILY_DIFFERS]),
    (_dropped_inflated_flipped, [FAMILY_DIFFERS, "domination report differs from certificate",
                                 "top-level ok flag inconsistent with sub-reports"]),
    (_stricter_config, ["sparseness fails on recheck",
                        "sparseness report differs from certificate",
                        "type2_weak fails on recheck",
                        "type2_weak report differs from certificate"]),
], ids=["dropped", "retagged", "inflated", "flipped", "orphan_children", "invented_leaf",
        "truncated_generations", "dropped_inflated_flipped", "stricter_config"])
def test_recheck_problems_are_exact(tamper, problems):
    # the tamper cases above, plus two that raise several problems, pinned in order
    eps = 1e-3
    weight = scalar_weight(2, [eps, eps, 1.0, 1.0])
    f = GridVector(2, 1, np.array([[0.0], [0.0], [50.0], [0.0]]))
    cert = json.loads(json.dumps(certify(weight, f, StoppingConfig(c1=1.2, c2=1.5))))
    tamper(cert)
    assert recheck_certificate(cert, weight, f) == {"ok": False, "problems": problems}


def _json_leaves(obj):
    if isinstance(obj, dict):
        assert all(type(key) is str for key in obj)
        for value in obj.values():
            yield from _json_leaves(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _json_leaves(value)
    else:
        yield obj


def _two_generation_instance():
    eps = 1e-3
    weight = scalar_weight(2, [eps, eps, 1.0, 1.0])
    f = GridVector(2, 1, np.array([[0.0], [0.0], [50.0], [0.0]]))
    return weight, f, StoppingConfig(c1=1.2, c2=1.5)


def test_certificate_sections_are_the_verifiers_plain_json():
    instances = [_two_generation_instance()]
    for index in range(50):
        weight, f = random_instance(index)
        instances.append((weight, f, default_stopping_config(weight.dim)))
    for weight, f, cfg in instances:
        family = build_sparse_family(weight, f, cfg)
        sections = {
            "sparseness": verify_sparseness(family),
            "domination": verify_domination(weight, f, family),
            "type1_trace": verify_type1_trace_bound(family, weight),
            "type2_weak": verify_type2_weak_bound(family),
            "maximality": verify_maximality(family),
        }
        cert = certify(weight, f, cfg)
        for name, section in sections.items():
            assert cert[name] == section, name
            assert {type(leaf) for leaf in _json_leaves(section)} <= {bool, int, float, str,
                                                                      type(None)}, name
    assert len(build_sparse_family(*instances[0]).generations) == 2


def _deep_instance():
    weight, f = random_instance(9)
    return weight, f, StoppingConfig(c1=1.3, c2=4.0)


def _root_only_instance():
    weight = generate_weight(WeightFamilySpec("identity", 1, 4))
    return weight, haar_root_function(4, 1), default_stopping_config(1)


@pytest.mark.parametrize("instance", [_deep_instance, _root_only_instance])
def test_certify_builds_each_scan_once(instance, monkeypatch):
    import matw.sparse as sparse

    weight, f, cfg = instance()
    scanned, analyzed, powered = [], [], []
    original_init, original_analyze = sparse._GenerationScan.__init__, sparse.analyze
    original_power = sparse.psd_power

    def counting_init(self, weight, coeffs, f_values, root, cfg):
        scanned.append(root)
        original_init(self, weight, coeffs, f_values, root, cfg)

    def counting_analyze(f):
        analyzed.append(f)
        return original_analyze(f)

    def counting_power(m, p, eps_pd):
        powered.append(p)
        return original_power(m, p, eps_pd)

    monkeypatch.setattr(sparse._GenerationScan, "__init__", counting_init)
    monkeypatch.setattr(sparse, "analyze", counting_analyze)
    monkeypatch.setattr(sparse, "psd_power", counting_power)
    cert = certify(weight, f, cfg)
    assert cert["type2_weak"]["ok"] and cert["maximality"]["ok"]
    # the builder scans every family node above the leaves; the verifiers scan nothing
    roots = sorted(DyadicInterval(*n["interval"]) for n in cert["family"]["nodes"]
                   if n["interval"][0] < weight.depth)
    assert sorted(scanned) == roots
    assert len(analyzed) == 1
    # one inverse root per scan, which the type-1 verifier reads back
    assert len(powered) == len(scanned)
    parents = [n for n in cert["family"]["nodes"] if n["children"]]
    assert len(parents) >= 2 if instance is _deep_instance else parents == []


def test_verifiers_refuse_a_family_without_its_scans():
    weight, f, cfg = _deep_instance()
    family = build_sparse_family(weight, f, cfg)
    assert {family.nodes[iv].trigger for iv in family.intervals()} >= {"type1", "type2"}
    bare = dataclasses.replace(family, scans={})
    with pytest.raises(KeyError):
        verify_type2_weak_bound(bare)
    with pytest.raises(KeyError):
        verify_maximality(bare)
    with pytest.raises(KeyError):
        verify_type1_trace_bound(bare, weight)


def test_recheck_rejects_wrong_instance():
    weight, f = random_instance(4, max_depth=5)
    cert = certify(weight, f, default_stopping_config(weight.dim))
    other_weight, other_f = random_instance(9, max_depth=5)
    result = recheck_certificate(cert, other_weight, other_f)
    assert not result["ok"]


GOLDEN_DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "golden_certificates.sha256"


def certificate_digests(count=200):
    """SHA-256 of the sorted-key JSON certificate of random_instance(0..count-1).

    Regenerate the golden file, only when certificate bytes change on purpose, with
    PYTHONPATH=src:tests python -c "import test_sparse as t; t.write_golden_digests()"
    """
    digests = []
    for index in range(count):
        weight, f = random_instance(index)
        cert = certify(weight, f, default_stopping_config(weight.dim))
        digests.append(hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest())
    return digests


def write_golden_digests():
    GOLDEN_DIGESTS.write_text("".join(d + "\n" for d in certificate_digests()))


def moved_certificate_digests() -> list[int]:
    """Indices of random_instance whose certificate digest differs from the golden one."""
    golden = GOLDEN_DIGESTS.read_text().split()
    return [index for index, (got, want) in enumerate(zip(certificate_digests(len(golden)), golden))
            if got != want]


def test_certificates_match_golden_digests():
    assert len(GOLDEN_DIGESTS.read_text().split()) == 200
    assert moved_certificate_digests() == []


def _check_trace_filter(weight, f, cfg) -> tuple[int, int, int]:
    """Every generation scan's condition-(1) mask equals the unfiltered one on
    every row, and at the default c1 each level sends at most half its rows to
    the eigensolve. Returns the rows, the rows that hold condition (1) and the
    rows sent.

    The family keeps the scans of its nodes with children; every node above
    the leaves is also scanned afresh, with top_eigenvalue_stack wrapped to
    count rows, each call counted at the level whose averages it read last.
    """
    import matw.sparse as sparse

    family = build_sparse_family(weight, f, cfg)
    coeffs = sparse.analyze(f)
    default_c1 = cfg.c1 == 2.0 * np.sqrt(weight.dim)
    sent: dict[int, int] = {}
    levels: list[int] = []
    real_top, real_averages = sparse.top_eigenvalue_stack, weight.field.level_averages

    def counting_top(ms):
        sent[levels[-1]] = sent.get(levels[-1], 0) + len(ms)
        return real_top(ms)

    def recording_averages(level):
        levels.append(level)
        return real_averages(level)

    rows = hits = total_sent = 0
    for root in family.intervals():
        if root.level >= weight.depth:
            continue
        sent.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sparse, "top_eigenvalue_stack", counting_top)
            patch.setattr(weight.field, "level_averages", recording_averages)
            fresh = sparse._GenerationScan(weight, coeffs, f.values, root, cfg)
        for scan in (fresh, family.scans.get(root, fresh)):
            for level, cond1 in scan.cond1.items():
                expected = norm_condition_mask(weight, root, level, cfg.c1)
                np.testing.assert_array_equal(cond1, expected, err_msg=f"{root} level {level}")
        for level, cond1 in fresh.cond1.items():
            if default_c1:
                assert 2 * sent.get(level, 0) <= len(cond1), f"{root} level {level}"
            rows += len(cond1)
            hits += int(np.count_nonzero(cond1))
            total_sent += sent.get(level, 0)
    return rows, hits, total_sent


def test_trace_filter_keeps_the_norm_condition_of_every_row():
    rows = hits = sent = 0
    for index in range(200):
        weight, f = random_instance(index)
        r, h, s = _check_trace_filter(weight, f, default_stopping_config(weight.dim))
        rows, hits, sent = rows + r, hits + h, sent + s
    # the pool exercises both sides of the filter and the eigensolve behind it
    assert 0 < hits < sent < rows


@st.composite
def _extreme_instances(draw):
    """Leaves s(x) Q(x) diag(lambda(x)) Q(x)^T with eigenvalue ratios down to
    eps_pd and scales s(x) anywhere in [1e-250, 1e250], plus a random f."""
    dim, depth = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    ratio_exp = draw(st.floats(0.0, 10.0))
    # + 0.0 turns a drawn -0.0 into 0.0: numpy's uniform rejects high = -0.0 above low = 0.0
    lo_exp, hi_exp = sorted(x + 0.0 for x in draw(st.lists(st.floats(-250.0, 250.0),
                                                           min_size=2, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 1 << depth
    floor = max(10.0 ** -ratio_exp, 1.01 * EPS_PD)
    lam = np.exp(rng.uniform(np.log(floor), 0.0, size=(n, dim)))
    lam[:, 0] = floor
    q, _ = np.linalg.qr(rng.standard_normal((n, dim, dim)))
    scale = 10.0 ** rng.uniform(lo_exp, hi_exp, size=n)
    values = np.einsum("nij,nj,nkj->nik", q, lam * scale[:, None], q)
    weight = MatrixWeight(GridMatrixField(depth, dim, values))
    return weight, random_grid_vector(depth, dim, rng)


@settings(max_examples=60, deadline=None)
@given(instance=_extreme_instances())
def test_trace_filter_keeps_the_norm_condition_on_extreme_weights(instance):
    weight, f = instance
    _check_trace_filter(weight, f, default_stopping_config(weight.dim))


def _check_type1_trace_sums(weight, f) -> int:
    """Every per-node sum of verify_type1_trace_bound equals the oracle's within
    1e-12 relative, widened to 32 u cond(<W>_R) for an ill-conditioned parent
    average: both routes invert it, so neither is closer than that. Returns the
    number of parents checked."""
    family = build_sparse_family(weight, f, default_stopping_config(weight.dim))
    rows = verify_type1_trace_bound(family, weight)["per_node"]
    for row in rows:
        parent = DyadicInterval(*row["interval"])
        kids = [c for c in family.nodes[parent].children
                if family.nodes[c].trigger in ("type1", "both")]
        cond = np.linalg.cond(direct_average(weight.field.values, weight.depth, parent))
        rel = max(1e-12, 32 * np.finfo(float).eps * cond)
        for key, want in type1_trace_sums(weight, parent, kids).items():
            assert abs(row[key] - want) <= rel * abs(want), f"{parent} {key}"
    return len(rows)


def test_type1_trace_sums_match_the_oracle():
    carrying = [index for index in range(1000) if _check_type1_trace_sums(*random_instance(index))]
    assert len(carrying) == 34


@settings(max_examples=60, deadline=None)
@given(instance=_extreme_instances())
def test_type1_trace_sums_match_the_oracle_on_extreme_weights(instance):
    _check_type1_trace_sums(*instance)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_average_reaches_the_eigensolve_and_raises(bad, monkeypatch):
    import matw.sparse as sparse

    weight, f = random_instance(3)
    assert weight.depth >= 2
    real_averages = weight.field.level_averages

    def poisoned(level):
        out = real_averages(level)
        if level == weight.depth:
            out = out.copy()
            out[-1, 0, 0] = bad
        return out

    monkeypatch.setattr(weight.field, "level_averages", poisoned)
    with pytest.raises(ValueError, match="non-finite entries"):
        sparse._GenerationScan(weight, sparse.analyze(f), f.values, ROOT,
                               default_stopping_config(weight.dim))


@pytest.mark.parametrize("kind", ["identity", "scalar_power", "block_scalar", "rotating",
                                  "random_log_pd"])
def test_certify_and_recheck_never_build_the_inverse(kind):
    # the certificate path reads averages of W only, so W^-1 stays unbuilt
    dim = 2 if kind == "rotating" else 3
    weight = generate_weight(WeightFamilySpec(kind, dim, 7, parameter=0.5, seed=1))
    f = random_grid_vector(7, dim, np.random.default_rng(1), scale=10.0)
    cert = certify(weight, f, default_stopping_config(dim))
    report = recheck_certificate(json.loads(json.dumps(cert)), weight, f)
    assert cert["ok"] and report["ok"]
    assert "inverse_field" not in vars(weight)
