"""The four workloads: inputs made from --seed, timed parts, checks and layer metrics.

A workload object is built once per set-up. Its `parts` are timed by the
runner: one sample runs every operation of a part once and is timed as a
whole, and a round runs each part `reps` times. Outputs of the last sample
are kept for `check`, which runs outside the timed sections.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

METHODS = ("gatv2", "fagcn", "acm", "gin", "lmgc")
SOURCES = ("random_iid", "fagcn_tanh", "lmgc_eq14")
VARIANTS = ("gcn_norm", "gatv2_softmax", "fagcn_tanh", "acm_fixed", "lmgc_eq14", "random_iid")
ROUTES = (
    "mimo_gc",
    "mimo_gc_oracle",
    "mimo_gc_pairwise",
    "mimo_gc_vectorized_oracle",
    "universality_filter",
    "polynomial_stack",
)
SIZES = ("n16", "n128")
# public gclab.autodiff primitives when the benchmark was defined; spans.py
# finds them at run time, so one added later is traced and printed as well
PRIMITIVES = (
    "add", "concat", "gather_rows", "leaky_relu", "matmul", "mse", "mul",
    "relu", "reshape", "scale", "scatter_sum", "segment_softmax", "tanh",
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ops_per_s_gmean", "1/s", "higher"),
)


def per_layer_catalog() -> list:
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    rows = []
    for m in METHODS:
        rows += [
            (f"train.forward_us.{m}", "us", "lower"),
            (f"autodiff.backward_us.{m}", "us", "lower"),
            (f"optim.adam_step_us.{m}", "us", "lower"),
            (f"autodiff.tape_nodes.{m}", "count", "lower"),
        ]
    rows += [(f"autodiff.{p}_us", "us", "lower") for p in PRIMITIVES]
    rows.append(("train.build_ms", "ms", "lower"))
    rows += [(f"verify.{n}_us", "us", "lower") for n in ("aggregate", "alpha", "sample_instance")]
    rows += [(f"verify.alpha_calls_per_pair.{s}", "count", "lower") for s in SOURCES]
    for size in SIZES:
        rows.append((f"graph.generate_erdos_renyi_ms.{size}", "ms", "lower"))
        rows.append((f"spectral.eigendecompose_ms.{size}", "ms", "lower"))
        rows += [(f"convolution.{r}_ms.{size}", "ms", "lower") for r in ROUTES]
        rows += [(f"lmgc.forward_ms.{v}.{size}", "ms", "lower") for v in VARIANTS]
        rows.append((f"cli.spectra_ms.{size}", "ms", "lower"))
        rows.append((f"cli.spectra_bytes.{size}", "bytes", "lower"))
    rows.append(("trace.overhead_ops_per_s", "1/s", "lower"))
    rows.append(("trace.overhead_pct", "%", "lower"))
    return rows


def sub_seed(seed: int, *tags: int) -> int:
    """Benchmark-side seed derivation, independent of gclab's own seeding."""
    return int(np.random.SeedSequence([seed % 2**63, *tags]).generate_state(1, np.uint64)[0])


def no_span(name):
    return contextlib.nullcontext()


@dataclass
class Part:
    """One timed unit; throughput is work over the median sample time."""

    name: str
    metric: str
    unit: str
    work: int
    ops: list
    reps: int = 1
    in_gmean: bool = True


class Workload:
    """Base of the four workloads; the runner sets `span` per phase."""

    span = staticmethod(no_span)

    @property
    def warmup_ops(self):
        return [op for p in self.parts for op in p.ops]


@dataclass
class Fits:
    """Latest fitting-run outcome per method."""

    best: dict = field(default_factory=dict)
    diverged: dict = field(default_factory=dict)

    def record(self, method, min_mse, diverged):
        self.best[method] = min_mse
        self.diverged[method] = diverged


# ---------------------------------------------------------------- fitting


def _model_checks(gc, g, x, y, seed) -> list:
    """Equivariance, gradient and MSE checks that use only Model.params and forward.

    The relabeled twin of each model is built from the same RNG draws, so the
    two share parameter values whatever their layout.
    """
    ad, train = gc.autodiff, gc.train
    n, d = x.shape
    c = y.shape[1]
    rng = np.random.default_rng(sub_seed(seed, 90))
    perm = rng.permutation(n)
    g_perm = gc.graph.Graph.from_edges(n, [(perm[i], perm[j]) for i, j in g.edges])
    x_perm = np.empty_like(x)
    x_perm[perm] = x
    fails = []
    for idx, method in enumerate(METHODS):
        init = sub_seed(seed, 91, idx)

        def model_on(graph):
            return train.build_model(method, graph, d, c, np.random.default_rng(init), heads=4)

        model = model_on(g)
        pred = model.forward(ad.Var(x))
        loss = ad.mse(pred, y)
        fails += checks.check_mse(method, pred.value, y, float(loss.value))
        out_perm = model_on(g_perm).forward(ad.Var(x_perm)).value
        fails += checks.check_equivariance(method, pred.value, out_perm, perm)

        ad.backward(loss)
        params = model.params
        grads = [p.grad if p.grad is not None else np.zeros_like(p.value) for p in params]
        direction = [rng.standard_normal(p.value.shape) for p in params]
        analytic = sum(float(np.sum(g_ * r)) for g_, r in zip(grads, direction))
        scale = np.sqrt(sum(float(np.sum(g_ * g_)) for g_ in grads) * sum(float(np.sum(r * r)) for r in direction))
        origin = [p.value.copy() for p in params]
        h = 1e-8  # small enough that a kink inside [-h, h] is rare
        losses = []
        for sign in (1.0, -1.0):
            for p, o, r in zip(params, origin, direction):
                p.value = o + sign * h * r
            losses.append(float(ad.mse(model.forward(ad.Var(x)), y).value))
        for p, o in zip(params, origin):
            p.value = o
        fails += checks.check_gradient(method, analytic, (losses[0] - losses[1]) / (2 * h), scale)
    return fails


def _fit_layer_metrics(summary, rounds: int, steps: int, primitives) -> dict:
    out = {}
    for m in METHODS:
        part = [f"op/{m}"]
        fwd = summary.total("calls", "train.forward", part)
        for metric, span in (
            (f"train.forward_us.{m}", "train.forward"),
            (f"autodiff.backward_us.{m}", "autodiff.backward"),
            (f"optim.adam_step_us.{m}", "optim.adam_step"),
        ):
            calls = summary.total("calls", span, part)
            out[metric] = summary.total("dur_ns", span, part) / max(calls, 1) / 1e3
        out[f"autodiff.tape_nodes.{m}"] = summary.tape_nodes[part[0]] / max(fwd, 1)
    parts = [f"op/{m}" for m in METHODS]
    for prim in primitives:
        self_ns = summary.total("self_ns", f"autodiff.{prim}", parts)
        self_ns += summary.total("self_ns", f"autodiff.{prim}.backward", parts)
        out[f"autodiff.{prim}_us"] = self_ns / (rounds * steps) / 1e3
    setups = summary.total("calls", "setup", ["setup"])
    build = summary.total("dur_ns", "train.experiment_data", ["setup"])
    build += summary.total("dur_ns", "train.build_model", ["setup"])
    out["train.build_ms"] = build / max(setups, 1) / 1e6
    return out


class FitReference(Workload):
    """Each method fitted with Adam on the pinned criterion-4 reference instance."""

    name = "fit-reference"
    STEPS = 600
    LR = 0.01

    def __init__(self, gc, seed: int, span=no_span, workdir=None):
        self.gc, self.seed = gc, seed
        train = gc.train
        # the instance is pinned; --seed picks the initialization
        self.config = train.ExperimentConfig(steps=self.STEPS, lr=self.LR, run=sub_seed(seed, 1))
        self.g, self.x, self.y = train.experiment_data(self.config)
        self.fits = Fits()
        self.parts = [
            Part(m, f"fit_steps_per_s.{m}", "steps/s", self.STEPS, [self._op(m)]) for m in METHODS
        ]

    def _op(self, method):
        def run():
            r = self.gc.train.run_universality_experiment(method, self.config)
            self.fits.record(method, r.min_mse, r.diverged)

        return run

    def check(self) -> list:
        fails = checks.check_fit_gates(self.fits.best, self.fits.diverged)
        return fails + _model_checks(self.gc, self.g, self.x, self.y, self.seed)

    def layer_metrics(self, summary, rounds, primitives) -> dict:
        return _fit_layer_metrics(summary, rounds, self.STEPS, primitives)


class FitWide(Workload):
    """The same methods on a connected G(128, 0.05) instance with d = c = 32."""

    name = "fit-wide"
    N, D, P = 128, 32, 0.05
    STEPS = 30
    LR = 0.01

    def __init__(self, gc, seed: int, span=no_span, workdir=None):
        self.gc, self.seed = gc, seed
        train = gc.train
        # the instance is pinned, as on fit-reference, because the cost of a step
        # follows the edge count (363 to 446 over ten seeded instances); --seed
        # picks the initializations
        config = train.ExperimentConfig(n=self.N, d=self.D, c=self.D, p=self.P, steps=self.STEPS, lr=self.LR)
        self.g, self.x, self.y = train.experiment_data(config)
        self.inits = {m: sub_seed(seed, 4, i) for i, m in enumerate(METHODS)}
        self.models = {m: self._model(m) for m in METHODS}
        self.initial = {m: [p.value.copy() for p in model.params] for m, model in self.models.items()}
        self.fits = Fits()
        self.parts = [
            Part(m, f"fit_steps_per_s.{m}", "steps/s", self.STEPS, [self._op(m)]) for m in METHODS
        ]

    def _model(self, method):
        rng = np.random.default_rng(self.inits[method])
        return self.gc.train.build_model(method, self.g, self.D, self.D, rng, heads=4)

    def _op(self, method):
        # run_training from the initial parameters: run_universality_experiment
        # would also regenerate the n=128 instance, which costs more than gin's 30 steps
        model = self.models[method]

        def run():
            for p, value in zip(model.params, self.initial[method]):
                p.value = value.copy()
            min_mse, diverged = self.gc.train.run_training(model, self.x, self.y, self.STEPS, self.LR)
            self.fits.record(method, min_mse, diverged)

        return run

    def check(self) -> list:
        ad = self.gc.autodiff
        initial = {}
        for m in METHODS:
            pred = self._model(m).forward(ad.Var(self.x)).value
            initial[m] = float(np.mean((pred - self.y) ** 2))
        fails = checks.check_fit_progress(self.fits.best, initial, self.fits.diverged)
        return fails + _model_checks(self.gc, self.g, self.x, self.y, self.seed)

    def layer_metrics(self, summary, rounds, primitives) -> dict:
        return _fit_layer_metrics(summary, rounds, self.STEPS, primitives)


# ---------------------------------------------------------------- multisets


class VerifyMultiset(Workload):
    """Injectivity at K=1 and K=4 for each coefficient source, plus the controls."""

    name = "verify-multiset"
    PAIRS = 400
    KS = (1, 4)
    D = C = 4
    COUNTEREXAMPLES = ("gatv2_softmax", "fagcn_tanh", "lmgc_eq14")

    def __init__(self, gc, seed: int, span=no_span, workdir=None):
        self.gc, self.seed = gc, seed
        v = gc.verify
        self.trial_seeds = {k: sub_seed(seed, 10, k) for k in self.KS}
        self.reports = {}
        self.controls = {}
        self.parts = [
            Part(s, f"verify_pairs_per_s.{s}", "pairs/s", self.PAIRS * len(self.KS),
                 [self._trial(s, k) for k in self.KS])
            for s in SOURCES
        ]
        self.parts.append(Part("controls", "verify_controls_per_s", "calls/s", 4,
                               [self._counterexample(name) for name in self.COUNTEREXAMPLES]
                               + [self._parallel], in_gmean=False))
        # inputs of the aggregate check, drawn here rather than by sample_instance
        rng = np.random.default_rng(sub_seed(seed, 11))
        self.instances = []
        for _ in range(12):
            center = tuple(int(t) for t in rng.integers(-5, 6, self.D))
            elems = sorted(tuple(int(t) for t in rng.integers(-5, 6, self.D))
                           for _ in range(int(rng.integers(1, 6))))
            self.instances.append(v.MultisetInstance(center, tuple(elems)))
        self.agg_weights = rng.standard_normal((4, self.D, self.C))
        self.sources = {s: v.CoefficientSource(s, 4, self.D, self.C, sub_seed(seed, 12)) for s in SOURCES}

    def _trial(self, source, k):
        def run():
            r = self.gc.verify.injectivity_trial(self.PAIRS, k, self.D, self.C, self.trial_seeds[k], source)
            self.reports[(source, k)] = (f"{source} K={k}", r.violations, r.min_separation)

        return run

    def _counterexample(self, name):
        def run():
            variant = self.gc.lmgc.Variant(name)
            self.controls[name] = self.gc.verify.multiset_counterexample_outputs(variant, sub_seed(self.seed, 13))

        return run

    def _parallel(self):
        self.controls["parallel"] = self.gc.verify.parallel_control(2, self.D, self.C, sub_seed(self.seed, 14))

    def check(self) -> list:
        fails = checks.check_trials(self.reports.values())
        fails += checks.check_counterexamples({n: self.controls[n] for n in self.COUNTEREXAMPLES if n in self.controls})
        if "parallel" in self.controls:
            fails += checks.check_parallel(*self.controls["parallel"])
        scale = self.gc.verify.LATTICE_SCALE
        for s, source in self.sources.items():
            for i, inst in enumerate(self.instances):
                xc = np.array(inst.center, dtype=float) * scale
                xs = [np.array(e, dtype=float) * scale for e in inst.elements]
                if s == "random_iid":  # no closed form: the source's own draw
                    alphas = [[source.alpha(k, inst.center, e) for e in inst.elements] for k in range(4)]
                else:
                    alphas = [[checks.tanh_alpha(s, k, xc, xj, source.gate, getattr(source, "w", None))
                               for xj in xs] for k in range(4)]
                got = self.gc.verify.aggregate(inst, source, self.agg_weights)
                ref = checks.aggregate_reference(xs, alphas, self.agg_weights)
                fails += checks.check_aggregate(f"{s} instance {i}", got, ref)
        return fails

    def layer_metrics(self, summary, rounds, primitives) -> dict:
        parts = [f"op/{s}" for s in SOURCES]
        out = {}
        for metric, span in (
            ("verify.aggregate_us", "verify.aggregate"),
            ("verify.alpha_us", "verify.alpha"),
            ("verify.sample_instance_us", "verify.sample_instance"),
        ):
            calls = summary.total("calls", span, parts)
            out[metric] = summary.total("self_ns", span, parts) / max(calls, 1) / 1e3
        pairs = rounds * self.PAIRS * len(self.KS)
        for s in SOURCES:
            out[f"verify.alpha_calls_per_pair.{s}"] = summary.total("calls", "verify.alpha", [f"op/{s}"]) / pairs
        return out


# ---------------------------------------------------------------- spectra


@dataclass
class GraphCase:
    label: str
    g: object
    a: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    v_list: list
    layers: dict
    path: Path
    out_dir: Path
    result: dict = field(default_factory=dict)


def _write_edges(path: Path, n: int, edges) -> None:
    lines = [str(n)] + [f"{i} {j}" for i, j in sorted(edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class SpectralOperators(Workload):
    """Laplacian, eigensolver, MIMO routes, LMGC layers and `gclab spectra` per graph."""

    name = "spectral-operators"
    D = C = 4
    # (node count, edge probability, seeded graphs, samples of the part per round)
    PLAN = {"n16": (16, 0.25, 5, 5), "n128": (128, 0.05, 2, 1)}

    def __init__(self, gc, seed: int, span=no_span, workdir=None):
        self.gc, self.seed, self.span = gc, seed, span
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.cases = {}
        for size, (n, p, count, _) in self.PLAN.items():
            with span(f"setup/{size}"):
                graphs = []
                if size == "n16":  # the reference instance's graph has a repeated eigenvalue
                    ref = gc.train.ExperimentConfig()
                    graphs.append(gc.train.experiment_data(ref)[0])
                for i in range(count):
                    with span("graph.generate_erdos_renyi"):
                        graphs.append(gc.graph.generate_erdos_renyi(n, p, sub_seed(seed, 20, n, i)))
            self.cases[size] = [
                self._case(f"{size}-{i}", g, sub_seed(seed, 21, n, i), workdir)
                for i, g in enumerate(graphs)
            ]
        self.parts = [
            Part(size, f"spectral_graphs_per_s.{size}", "graphs/s", len(cases),
                 [step for case in cases for step in self._steps(case)], reps=self.PLAN[size][3])
            for size, cases in self.cases.items()
        ]

    def _case(self, label, g, seed, workdir) -> GraphCase:
        gc, d, c = self.gc, self.D, self.C
        n = g.n
        rng = np.random.default_rng(seed)
        a = checks.adjacency(n, g.edges)
        basis = np.linalg.eigh(checks.laplacian(a))[1]
        # the universality construction needs every spectral component of X away from 0
        x = rng.standard_normal((n, d))
        while np.min(np.abs(basis.T @ x)) <= 1e-3:
            x = rng.standard_normal((n, d))
        lm = gc.lmgc
        layers = {}
        for name in VARIANTS:
            variant = lm.Variant(name)
            k = {"gcn_norm": 1, "fagcn_tanh": 1}.get(name, 2)
            vectors = ()
            if name == "gatv2_softmax":
                vectors = tuple(rng.standard_normal(c) for _ in range(k))
            elif name == "fagcn_tanh":
                vectors = (rng.standard_normal(2 * d),)
            elif name == "lmgc_eq14":
                vectors = tuple(rng.standard_normal(2 * k * c) for _ in range(k))
            scheme = lm.CoefficientScheme(variant, k, vectors, seed=int(rng.integers(2**31)))
            layers[name] = lm.LmgcLayer(rng.standard_normal((k, d, c)), scheme)
        path = workdir / f"{label}.edges"
        _write_edges(path, n, g.edges)
        return GraphCase(
            label, g, a, x, rng.standard_normal((n, c)), rng.standard_normal((n, c, d)),
            [rng.standard_normal((d, c)) for _ in range(4)], layers, path, workdir / label,
        )

    def _steps(self, case: GraphCase) -> list:
        """The pipeline of one graph, split into steps the runner times one by one.

        Timing each step on its own puts a host probe between the n=128
        eigensolver and CLI calls instead of one every several seconds.
        """
        gc, cv, res = self.gc, self.gc.convolution, case.result

        def basis():
            with self.span("graph.laplacian"):
                res["lap"] = gc.graph.laplacian(case.g)
            with self.span("spectral.eigendecompose_symmetric"):
                res["basis"] = gc.spectral.eigendecompose_symmetric(res["lap"])

        def routes():
            basis, theta = res["basis"], cv.FilterTensor(case.theta, res["basis"].basis_id)
            out = res["routes"] = {}
            with self.span("convolution.mimo_gc"):
                out["mimo_gc"] = cv.mimo_gc(theta, case.x, basis)
            with self.span("convolution.mimo_gc_oracle"):
                out["mimo_gc_oracle"] = cv.mimo_gc_oracle(theta, case.x, basis)
            with self.span("convolution.mimo_gc_pairwise"):
                stack = cv.weight_stack_from_filter(theta, basis)
                out["mimo_gc_pairwise"] = cv.mimo_gc_pairwise(stack, case.x, basis)
            with self.span("convolution.mimo_gc_vectorized_oracle"):
                out["mimo_gc_vectorized_oracle"] = cv.mimo_gc_vectorized_oracle(theta, case.x, basis)
            with self.span("convolution.universality_filter"):
                res["universality"] = cv.universality_filter(case.x, case.y, basis)
            with self.span("convolution.polynomial_stack"):
                poly = cv.polynomial_as_mimo_filter(case.v_list, basis)
                res["polynomial"] = cv.mimo_gc_from_stack(poly, case.x, basis)

        def layers():
            out = res["lmgc"] = {}
            for name, layer in case.layers.items():
                with self.span(f"lmgc.forward.{name}"):
                    out[name] = gc.lmgc.lmgc_forward(layer, case.x, case.g)

        def spectra():
            with self.span("cli.spectra"):
                res["cli_exit"] = gc.cli.main(["spectra", "--graph-file", str(case.path), "--out", str(case.out_dir)])
            res["cli_bytes"] = sum(f.stat().st_size for f in case.out_dir.iterdir())

        return [basis, routes, layers, spectra]

    @property
    def warmup_ops(self):
        return self.parts[0].ops  # the n=16 graphs; one n=128 graph alone takes seconds

    def check(self) -> list:
        fails = []
        for case in (c for cases in self.cases.values() for c in cases):
            res, label = case.result, case.label
            if "basis" not in res:
                continue  # not run: only warmed-up or failed
            lap_ref = checks.laplacian(case.a)
            basis = res["basis"]
            fails += checks.check_eigen(label, lap_ref, basis.eigenvalues, basis.eigenvectors)
            fails += checks.check_routes(label, res["routes"])
            y_hat = checks.mimo_apply(res["universality"].values, case.x, basis.eigenvectors)
            fails += checks.check_close(f"{label} universality", y_hat, case.y, 1e-8)
            a_sym = checks.sym_normalized(case.a)
            fails += checks.check_close(
                f"{label} polynomial", res["polynomial"], checks.polynomial_reference(a_sym, case.x, case.v_list), 1e-10
            )
            for name, layer in case.layers.items():
                if name in ("gatv2_softmax", "random_iid"):
                    cgs = self.gc.lmgc.compute_coefficients(layer.scheme, case.x, case.g, layer.weights)
                    fails += checks.check_coefficients(label, name, cgs.matrices, case.a)
                if name != "random_iid":  # its draws have no closed form to compare with
                    ref = checks.lmgc_reference(name, case.a, case.x, layer.weights, layer.scheme.vectors)
                    fails += checks.check_close(f"{label} lmgc {name}", res["lmgc"][name], ref, 1e-10)
            if res["cli_exit"] != 0:
                fails.append(f"{label}: gclab spectra exited {res['cli_exit']}")
            else:
                text = (case.out_dir / "spectrum.csv").read_text(encoding="utf-8")
                fails += checks.check_spectrum_csv(label, text, lap_ref)
        return fails

    def layer_metrics(self, summary, rounds, primitives) -> dict:
        out = {}
        for size in SIZES:
            part = [f"op/{size}"]

            def per_call_ms(span, parts=part):
                return summary.total("self_ns", span, parts) / max(summary.total("calls", span, parts), 1) / 1e6

            out[f"graph.generate_erdos_renyi_ms.{size}"] = per_call_ms("graph.generate_erdos_renyi", [f"setup/{size}"])
            out[f"spectral.eigendecompose_ms.{size}"] = per_call_ms("spectral.eigendecompose_symmetric")
            for route in ROUTES:
                out[f"convolution.{route}_ms.{size}"] = per_call_ms(f"convolution.{route}")
            for name in VARIANTS:
                out[f"lmgc.forward_ms.{name}.{size}"] = per_call_ms(f"lmgc.forward.{name}")
            out[f"cli.spectra_ms.{size}"] = per_call_ms("cli.spectra")
            out[f"cli.spectra_bytes.{size}"] = float(np.mean([c.result["cli_bytes"] for c in self.cases[size]]))
        return out


WORKLOADS = {w.name: w for w in (FitReference, FitWide, VerifyMultiset, SpectralOperators)}
