"""Tests of the benchmark's own checks and tracer.

Every check passes on real gclab outputs and fails on a planted fault, so
none can pass vacuously. Run with:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def gc():
    return run.import_gclab()


@pytest.fixture(scope="module")
def spectral(gc, tmp_path_factory):
    """The spectral workload on the reference graph and one seeded n=16 graph."""
    cls = type("SmallSpectral", (workloads.SpectralOperators,), {"PLAN": {"n16": (16, 0.25, 1, 1)}})
    w = cls(gc, 3, workdir=tmp_path_factory.mktemp("spectral"))
    for op in w.parts[0].ops:
        op()
    return w


def test_spectral_checks_pass_on_real_outputs(spectral):
    assert spectral.check() == []


def test_eigenvalue_perturbed_by_1e_6_is_caught(spectral):
    basis = spectral.cases["n16"][1].result["basis"]
    basis.eigenvalues[5] += 1e-6
    try:
        fails = spectral.check()
    finally:
        basis.eigenvalues[5] -= 1e-6
    assert any("eigvalsh" in f for f in fails)
    assert any("LU - U Lambda" in f for f in fails)


def test_route_rows_swapped_is_caught(spectral):
    out = spectral.cases["n16"][0].result["routes"]["mimo_gc_pairwise"]
    out[[0, 1]] = out[[1, 0]]
    try:
        fails = spectral.check()
    finally:
        out[[0, 1]] = out[[1, 0]]
    assert any("mimo_gc_pairwise differs" in f for f in fails)


def test_lmgc_forward_fault_is_caught(spectral):
    out = spectral.cases["n16"][1].result["lmgc"]["lmgc_eq14"]
    out[2] *= 1.0 + 1e-8
    try:
        fails = spectral.check()
    finally:
        out[2] /= 1.0 + 1e-8
    assert any("lmgc lmgc_eq14" in f for f in fails)


def test_spectrum_csv_fault_is_caught(spectral):
    case = spectral.cases["n16"][1]
    lap = checks.laplacian(case.a)
    text = (case.out_dir / "spectrum.csv").read_text(encoding="utf-8")
    assert checks.check_spectrum_csv("g", text, lap) == []
    rows = text.splitlines()
    idx, val = rows[4].split(",")
    rows[4] = f"{idx},{float(val) + 1e-9:.12g}"
    assert checks.check_spectrum_csv("g", "\n".join(rows), lap)


def test_permuted_forward_rows_are_caught(gc):
    train, ad = gc.train, gc.autodiff
    g, x, y = train.experiment_data(train.ExperimentConfig())
    perm = np.random.default_rng(0).permutation(g.n)
    g_perm = gc.graph.Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges])
    x_perm = np.empty_like(x)
    x_perm[perm] = x
    for method in workloads.METHODS:
        def model_on(graph, method=method):
            return train.build_model(method, graph, 16, 16, np.random.default_rng(5), heads=4)
        out = model_on(g).forward(ad.Var(x)).value
        out_perm = model_on(g_perm).forward(ad.Var(x_perm)).value
        assert checks.check_equivariance(method, out, out_perm, perm) == []
        assert checks.check_equivariance(method, out, np.roll(out_perm, 1, axis=0), perm)


def test_model_checks_pass_on_reference_instance(gc):
    g, x, y = gc.train.experiment_data(gc.train.ExperimentConfig())
    assert workloads._model_checks(gc, g, x, y, seed=4) == []


def test_gradient_and_mse_faults_are_caught():
    assert checks.check_gradient("m", 1.0, 1.0 + 1e-9, scale=10.0) == []
    assert checks.check_gradient("m", 1.0, 1.001, scale=10.0)
    pred = np.arange(6.0).reshape(3, 2)
    target = np.ones((3, 2))
    loss = float(np.mean((pred - target) ** 2))
    assert checks.check_mse("m", pred, target, loss) == []
    assert checks.check_mse("m", pred, target, loss * (1 + 1e-9))


def test_baseline_below_1e_2_is_caught():
    best = {"gatv2": 0.067, "fagcn": 0.06, "acm": 0.45, "gin": 0.032, "lmgc": 3e-10}
    diverged = dict.fromkeys(best, False)
    assert checks.check_fit_gates(best, diverged) == []
    assert checks.check_fit_gates({**best, "gin": 9e-3}, diverged)
    assert checks.check_fit_gates({**best, "lmgc": 2e-6}, diverged)
    assert checks.check_fit_gates(best, {**diverged, "acm": True})


def test_fit_progress_fault_is_caught():
    assert checks.check_fit_progress({"gin": 0.5}, {"gin": 0.9}, {"gin": False}) == []
    assert checks.check_fit_progress({"gin": 0.9}, {"gin": 0.9}, {"gin": False})


@pytest.fixture(scope="module")
def verify(gc):
    cls = type("SmallVerify", (workloads.VerifyMultiset,), {"PAIRS": 20})
    w = cls(gc, 5)
    for op in w.warmup_ops:
        op()
    return w


def test_verify_checks_pass_on_real_outputs(verify):
    assert verify.check() == []


def test_nonzero_violation_count_is_caught(verify):
    key = ("lmgc_eq14", 4)
    saved = verify.reports[key]
    verify.reports[key] = (saved[0], 1, saved[2])
    try:
        fails = verify.check()
    finally:
        verify.reports[key] = saved
    assert fails == ["lmgc_eq14 K=4: 1 violations"]


def test_control_faults_are_caught(verify):
    a, b = verify.controls["gatv2_softmax"]
    assert checks.check_counterexamples({"gatv2_softmax": (a, b + 1e-9)})
    assert checks.check_counterexamples({"fagcn_tanh": (a, a.copy())})
    fa, fb = verify.controls["parallel"]
    assert checks.check_parallel(fa, fb + np.eye(len(fb))[0])


def test_aggregate_fault_is_caught(verify):
    inst = verify.instances[0]
    source = verify.sources["fagcn_tanh"]
    scale = verify.gc.verify.LATTICE_SCALE
    xc = np.array(inst.center) * scale
    xs = [np.array(e) * scale for e in inst.elements]
    alphas = [[checks.tanh_alpha("fagcn_tanh", k, xc, xj, source.gate) for xj in xs] for k in range(4)]
    ref = checks.aggregate_reference(xs, alphas, verify.agg_weights)
    got = verify.gc.verify.aggregate(inst, source, verify.agg_weights)
    assert checks.check_aggregate("a", got, ref) == []
    alphas[1][0] *= 1.0 + 1e-9
    assert checks.check_aggregate("a", got, checks.aggregate_reference(xs, alphas, verify.agg_weights))


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("op/a"):
        with tracer.span("x"):
            with tracer.span("y"):
                sum(range(10000))
            sum(range(10000))
    s = tracer.summary()
    assert s.calls[("op/a", "x")] == 1 and s.calls[("op/a", "y")] == 1
    assert s.self_ns[("op/a", "x")] + s.dur_ns[("op/a", "y")] == s.dur_ns[("op/a", "x")]
    assert s.dur_ns[("op/a", "op/a")] >= s.dur_ns[("op/a", "x")]


def test_tape_nodes_match_the_autodiff_graph(gc):
    """The traced primitive count equals the non-leaf nodes reachable from the loss."""
    train, ad = gc.train, gc.autodiff
    g, x, y = train.experiment_data(train.ExperimentConfig())
    for method in workloads.METHODS:
        model = train.build_model(method, g, 16, 16, np.random.default_rng(1), heads=4)
        tracer = spans.Tracer()
        tracer.install(gc)
        try:
            with tracer.span(f"op/{method}"):
                loss = ad.mse(model.forward(ad.Var(x)), y)
        finally:
            tracer.uninstall()
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        leaves = sum(1 for p in model.params) + 1  # parameters and the input
        constants = {"fagcn": 1, "acm": 2 + 2, "gin": 1}.get(method, 0)  # Var-wrapped arrays
        assert tracer.summary().tape_nodes[f"op/{method}"] == len(seen) - leaves - constants


def test_install_then_uninstall_restores_gclab(gc):
    before = (gc.autodiff.matmul, gc.optim.Adam.step, gc.verify.CoefficientSource.alpha)
    tracer = spans.Tracer()
    tracer.install(gc)
    assert gc.autodiff.matmul is not before[0]
    tracer.uninstall()
    assert (gc.autodiff.matmul, gc.optim.Adam.step, gc.verify.CoefficientSource.alpha) == before
    assert set(tracer.primitives) == set(workloads.PRIMITIVES)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert e2e == list(workloads.END_TO_END)
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == workloads.per_layer_catalog()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
