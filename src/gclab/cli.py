"""Command-line front end: experiment runs, spectra/response plots, verification.

Exit codes: 0 success, 1 usage or input error, 2 verification violation,
3 numeric failure. All randomness derives from --seed through splitmix
sub-streams, so every subcommand is deterministic in single-job mode.

Each file a run writes is rewritten in place: a rerun into the same --out
overwrites the files it writes and leaves any other file there alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from pathlib import Path

import numpy as np

from .convolution import (
    FilterTensor,
    mimo_gc,
    mimo_gc_oracle,
    mimo_gc_pairwise,
    mimo_gc_vectorized_oracle,
    sca_repeated_gcn,
    weight_stack_from_filter,
)
from .graph import count_error, generate_erdos_renyi, laplacian, load_edge_list
from .lmgc import Variant
from .optim import rate_error
from .seeding import derive_seed
from .spectral import eigendecompose_symmetric, symmetric_spectrum
from .svgplot import line_plot_svg
from .train import DEFAULT_LR_GRID, METHODS, REFERENCE_INSTANCE_SEED, run_grid
from .verify import (
    independence_trial,
    injectivity_trial,
    multiset_counterexample_outputs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    value = int(text)
    if (error := count_error(value)) is not None:
        raise argparse.ArgumentTypeError(error)
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if (error := rate_error(value)) is not None:
        raise argparse.ArgumentTypeError(error)
    return value


class _ErdosRenyi(argparse.Action):
    """--er N P as (int N, float P); generate_erdos_renyi checks their ranges."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            setattr(namespace, self.dest, (int(values[0]), float(values[1])))
        except ValueError:
            raise argparse.ArgumentError(self, "expected an integer N and a number P, got %r %r" % tuple(values))


def _rewrite(path: Path, text: str) -> None:
    """Write text to path as UTF-8 from its start through one descriptor and cut any longer old tail.

    open(path, "w") would truncate the old file to zero on open, and on ext4
    (auto_da_alloc) the close after such a truncation waits on a flush to
    disk; writing over the old bytes and truncating at the end gives the same
    file without that wait. os.write may write fewer bytes than it is given,
    so the rest is written until none is left.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _write_csv(path: Path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _rewrite(path, buf.getvalue())


def _write_table(path: Path, header, formats, columns):
    """A numeric CSV: each row is the columns' values through their %-formats.

    The cells need no quoting, so one template over the whole table stands
    in for csv.writer.
    """
    table = np.column_stack(columns)
    row = ",".join(formats) + "\n"
    _rewrite(path, ",".join(header) + "\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def cmd_universality(args, out: Path) -> int:
    methods = list(METHODS) if args.method == "all" else [args.method]
    lrs = [args.lr] if args.lr is not None else list(DEFAULT_LR_GRID)
    runs = [derive_seed(args.seed, s) for s in range(args.seeds)]
    results = run_grid(methods, lrs, runs, args.steps, args.instance_seed, args.jobs)

    rows = [  # the seed column is the run's index s, which cycles fastest in the job order
        (r.method, r.lr, i % args.seeds, r.steps, f"{r.min_mse:.6e}", int(r.diverged), f"{r.wall_seconds:.2f}")
        for i, r in enumerate(results)
    ]
    header = ["method", "lr", "seed", "steps", "min_mse", "diverged", "wall_seconds"]
    _write_csv(out / "results.csv", header, rows)

    best = {}
    for r in results:
        if r.diverged:
            continue
        key = r.method
        if key not in best or r.min_mse < best[key].min_mse:
            best[key] = r
    ranked = sorted(best.values(), key=lambda r: r.min_mse)
    lines = [f"{'method':<8} {'lr':>8} {'min_mse':>14}\n"]
    lines += [f"{r.method:<8} {r.lr:>8} {r.min_mse:>14.3e}\n" for r in ranked]
    _rewrite(out / "summary.txt", "".join(lines))
    failed = [r for r in results if r.diverged]
    if len(failed) == len(results):
        print("all trials diverged", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_spectra(args, out: Path) -> int:
    if args.graph_file:
        g = load_edge_list(args.graph_file)
    else:
        g = generate_erdos_renyi(*args.er, derive_seed(args.seed, 0))
    spectrum = symmetric_spectrum(laplacian(g))
    lam = spectrum.eigenvalues
    mu = spectrum.adjacency_eigenvalues()
    n = spectrum.n

    _write_table(out / "spectrum.csv", ["index", "eigenvalue"], ["%d", "%.12g"], [np.arange(n), lam])

    rng = np.random.default_rng(derive_seed(args.seed, 1))

    def dump(name, title, series, labels):
        _write_table(
            out / f"{name}.csv", ["eigenvalue"] + labels, ["%.12g"] * (1 + len(series)), [lam, *series]
        )
        _rewrite(out / f"{name}.svg", line_plot_svg(lam, series, title=title, labels=labels))

    random_series = [rng.standard_normal(n) for _ in range(3)]
    dump("random_filter", "Random spectral filters", random_series, ["r1", "r2", "r3"])

    cheb_series = []
    cheb_labels = []
    for degree in (2, 8, 16):
        coeffs = rng.standard_normal(degree + 1)
        cheb_series.append(np.polynomial.chebyshev.chebval(mu, coeffs))
        cheb_labels.append(f"K={degree}")
    dump("chebyshev_filter", "Chebyshev polynomial filters", cheb_series, cheb_labels)

    gcn_series = [w * mu for w in (4.0, 0.1, -1.0)]
    dump("gcn_filter", "First-order filters w*mu", gcn_series, ["w=4", "w=0.1", "w=-1"])

    rep_series = []
    rep_labels = []
    for depth in (2, 4, 16):
        w = rng.standard_normal(depth)
        rep_series.append(sca_repeated_gcn(w, spectrum).response)
        rep_labels.append(f"k={depth}")
    dump("repeated_gcn", "Repeated first-order filters", rep_series, rep_labels)
    return EXIT_OK


def _equivalence_suite(trials: int, seed: int):
    rows = []
    violations = 0
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng(derive_seed(seed, t))
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        g = generate_erdos_renyi(n, 0.4, derive_seed(seed, t, 1))
        basis = eigendecompose_symmetric(laplacian(g))
        theta = FilterTensor(rng.standard_normal((n, c, d)), basis.basis_id)
        x = rng.standard_normal((n, d))
        ref = mimo_gc(theta, x, basis)
        stack = weight_stack_from_filter(theta, basis)
        diffs = [
            np.max(np.abs(ref - mimo_gc_oracle(theta, x, basis))),
            np.max(np.abs(ref - mimo_gc_pairwise(stack, x, basis))),
            np.max(np.abs(ref - mimo_gc_vectorized_oracle(theta, x, basis))),
        ]
        gap = float(max(diffs))
        worst = max(worst, gap)
        ok = gap <= 1e-9
        if not ok:
            violations += 1
        rows.append((t, n, d, c, f"{gap:.3e}", int(not ok)))
    return rows, violations, worst


def _write_report(path: Path, report) -> None:
    """One results.csv row for an injectivity or independence TrialReport.

    The witness columns replay the pair behind min_separation: its index in
    the pair stream, and each instance as the Python literal (center, elements).
    """
    _write_csv(
        path,
        ["trial_kind", "K", "d", "c", "pairs", "violations", "min_separation",
         "witness_pair", "witness_a", "witness_b"],
        [
            (
                report.kind,
                report.k,
                report.d,
                report.c,
                report.trials,
                report.violations,
                f"{report.min_separation:.3e}",
                report.witness_pair,
                repr((report.witness_a.center, report.witness_a.elements)),
                repr((report.witness_b.center, report.witness_b.elements)),
            )
        ],
    )


def cmd_verify(args, out: Path) -> int:
    if args.kind == "equivalence":
        rows, violations, worst = _equivalence_suite(args.pairs, args.seed)
        _write_csv(
            out / "results.csv",
            ["trial", "n", "d", "c", "max_abs_diff", "violation"],
            rows,
        )
        print(f"equivalence: {len(rows)} trials, {violations} violations, worst {worst:.3e}")
        return EXIT_VIOLATION if violations else EXIT_OK

    # K defaults to 1, or 2 for independence; independence at K = 1 raises its trial's ValueError (exit 1)
    trial = injectivity_trial if args.kind == "injectivity" else independence_trial
    k = args.k if args.k is not None else (2 if args.kind == "independence" else 1)
    report = trial(args.pairs, k, args.d, args.c, args.seed)
    summary = f"{args.kind}: {report.trials} pairs, {report.violations} violations"
    violated = report.violations > 0
    if args.kind == "injectivity":
        counter_a, counter_b = multiset_counterexample_outputs(Variant.GATV2_SOFTMAX, args.seed)
        counter_collides = np.max(np.abs(counter_a - counter_b)) <= 1e-12
        summary += f", softmax counterexample collides: {counter_collides}"
        violated = violated or not counter_collides
    _write_report(out / "results.csv", report)
    print(summary)
    return EXIT_VIOLATION if violated else EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The gclab argument parser, built once per process.

    Parsing keeps no state in the parser: each call fills a new namespace.
    """
    parser = _Parser(prog="gclab", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_uni = sub.add_parser("universality", help="single-layer target-fitting runs")
    p_uni.add_argument("--method", choices=list(METHODS) + ["all"], default="all")
    p_uni.add_argument("--lr", type=positive_float, default=None, help="single rate; default runs the grid")
    p_uni.add_argument("--steps", type=positive_int, default=40000)
    p_uni.add_argument("--seeds", type=positive_int, default=3, help="number of repeated runs (initializations)")
    p_uni.add_argument(
        "--instance-seed",
        type=int,
        default=REFERENCE_INSTANCE_SEED,
        help="seed of the fixed (graph, X, Y) instance; defaults to the reference instance",
    )
    p_uni.add_argument("--jobs", type=positive_int, default=1)
    p_uni.add_argument("--out", required=True)

    p_spec = sub.add_parser("spectra", help="eigenvalue and filter-response tables/plots")
    group = p_spec.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph-file", default=None)
    group.add_argument("--er", nargs=2, metavar=("N", "P"), default=None, action=_ErdosRenyi)
    p_spec.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="randomized property suites")
    p_ver.add_argument("--kind", choices=["injectivity", "independence", "equivalence"], required=True)
    p_ver.add_argument("--pairs", type=positive_int, default=1000)
    p_ver.add_argument("--k", type=positive_int, default=None, help="heads K; defaults to 1, or 2 for independence")
    p_ver.add_argument("--d", type=positive_int, default=4)
    p_ver.add_argument("--c", type=positive_int, default=4)
    p_ver.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "universality":
            return cmd_universality(args, out)
        if args.command == "spectra":
            return cmd_spectra(args, out)
        return cmd_verify(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
