"""CLI subcommands: artifacts, determinism, and exit-code mapping."""

import ast
import csv
import errno
import os
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import reference_writers as ref

from gclab import cli
from gclab.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, build_parser, main
from gclab.convolution import sca_repeated_gcn
from gclab.graph import generate_erdos_renyi, laplacian, save_edge_list
from gclab.seeding import derive_seed
from gclab.spectral import symmetric_spectrum
from gclab.train import ExperimentConfig, experiment_data
from gclab.verify import MultisetInstance, injectivity_trial


def read_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestUniversality:
    def test_single_method_smoke(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "universality",
                "--method",
                "lmgc",
                "--lr",
                "0.03",
                "--steps",
                "100",
                "--seeds",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(out / "results.csv")
        assert rows[0] == ["method", "lr", "seed", "steps", "min_mse", "diverged", "wall_seconds"]
        assert len(rows) == 1 + 2  # one method, one rate, two runs
        assert {r[5] for r in rows[1:]} == {"0"}
        assert {r[0] for r in rows[1:]} == {"lmgc"}
        assert {r[2] for r in rows[1:]} == {"0", "1"}
        summary = (out / "summary.txt").read_text()
        assert "lmgc" in summary

    def test_all_methods_full_grid_row_count(self, tmp_path):
        out = tmp_path / "grid"
        code = main(
            ["universality", "--steps", "1", "--seeds", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_csv(out / "results.csv")
        assert len(rows) == 1 + 5 * 3 * 2  # methods x rate grid x runs

    def test_deterministic_outputs(self, tmp_path):
        argv = [
            "universality",
            "--method",
            "gin",
            "--lr",
            "0.01",
            "--steps",
            "30",
            "--seeds",
            "1",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        rows_a = read_csv(a / "results.csv")
        rows_b = read_csv(b / "results.csv")
        # wall-clock column differs; everything else must match bitwise
        assert [r[:6] for r in rows_a] == [r[:6] for r in rows_b]

    def test_custom_instance_seed_changes_results(self, tmp_path):
        argv = [
            "universality",
            "--method",
            "fagcn",
            "--lr",
            "0.01",
            "--steps",
            "10",
            "--seeds",
            "1",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--instance-seed", "123", "--out", str(b)]) == EXIT_OK
        assert read_csv(a / "results.csv")[1][4] != read_csv(b / "results.csv")[1][4]

    def test_all_diverged_maps_to_numeric_exit(self, tmp_path):
        out = tmp_path / "div"
        code = main(
            [
                "universality",
                "--method",
                "gin",
                "--lr",
                "1e200",
                "--steps",
                "20",
                "--seeds",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_NUMERIC

    def test_two_jobs_write_what_one_job_writes(self, tmp_path):
        argv = ["universality", "--method", "fagcn", "--lr", "0.01", "--steps", "20", "--seeds", "2"]
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(argv + ["--jobs", "1", "--out", str(one)]) == EXIT_OK
        assert main(argv + ["--jobs", "2", "--out", str(two)]) == EXIT_OK
        rows = read_csv(one / "results.csv")
        assert len(rows) == 1 + 2 and rows[0][-1] == "wall_seconds"
        assert [r[:-1] for r in read_csv(two / "results.csv")] == [r[:-1] for r in rows]
        assert (two / "summary.txt").read_bytes() == (one / "summary.txt").read_bytes()

    def test_diverged_run_is_flagged_in_results(self, tmp_path):
        out = tmp_path / "div"
        argv = ["universality", "--method", "fagcn", "--lr", "1e200", "--steps", "20"]
        assert main(argv + ["--seeds", "1", "--out", str(out)]) == EXIT_NUMERIC
        rows = read_csv(out / "results.csv")
        assert rows[0][5] == "diverged"
        assert [r[5] for r in rows[1:]] == ["1"]


def reference_spectra(g, seed):
    """The nine files of `gclab --seed <seed> spectra` for g, written one value at a time."""
    spectrum = symmetric_spectrum(laplacian(g))
    lam, mu, n = spectrum.eigenvalues, spectrum.adjacency_eigenvalues(), spectrum.n
    rng = np.random.default_rng(derive_seed(seed, 1))
    random = [rng.standard_normal(n) for _ in range(3)]
    cheb = [np.polynomial.chebyshev.chebval(mu, rng.standard_normal(k + 1)) for k in (2, 8, 16)]
    gcn = [w * mu for w in (4.0, 0.1, -1.0)]
    rep = [sca_repeated_gcn(rng.standard_normal(k), spectrum).response for k in (2, 4, 16)]
    plots = [
        ("random_filter", "Random spectral filters", random, ["r1", "r2", "r3"]),
        ("chebyshev_filter", "Chebyshev polynomial filters", cheb, ["K=2", "K=8", "K=16"]),
        ("gcn_filter", "First-order filters w*mu", gcn, ["w=4", "w=0.1", "w=-1"]),
        ("repeated_gcn", "Repeated first-order filters", rep, ["k=2", "k=4", "k=16"]),
    ]
    files = {"spectrum.csv": ref.spectrum_csv(lam)}
    for name, title, series, labels in plots:
        files[f"{name}.csv"] = ref.series_csv(lam, series, labels)
        files[f"{name}.svg"] = ref.line_plot_svg(lam, series, title=title, labels=labels)
    return files


class TestSpectra:
    @pytest.mark.parametrize("case", ["er-2-1.0", "reference-graph-file", "er-40-0.1"])
    def test_files_match_the_per_element_writers(self, tmp_path, case):
        seed = 7
        if case == "reference-graph-file":  # its Laplacian has a repeated eigenvalue
            g = experiment_data(ExperimentConfig())[0]
            save_edge_list(g, tmp_path / "g.txt")
            source = ["--graph-file", str(tmp_path / "g.txt")]
        else:
            n, p = case.split("-")[1:]
            g = generate_erdos_renyi(int(n), float(p), derive_seed(seed, 0))
            source = ["--er", n, p]
        out = tmp_path / "spec"
        assert main(["--seed", str(seed), "spectra", *source, "--out", str(out)]) == EXIT_OK
        expected = reference_spectra(g, seed)
        assert sorted(f.name for f in out.iterdir()) == sorted(expected)
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode("utf-8"), name

    def test_er_graph_artifacts(self, tmp_path):
        out = tmp_path / "spec"
        code = main(["spectra", "--er", "10", "0.4", "--out", str(out)])
        assert code == EXIT_OK
        spectrum = read_csv(out / "spectrum.csv")
        assert len(spectrum) == 11  # header + one row per eigenvalue
        assert spectrum[0] == ["index", "eigenvalue"]
        lam = [float(r[1]) for r in spectrum[1:]]
        assert lam == sorted(lam)
        for name in ("random_filter", "chebyshev_filter", "gcn_filter", "repeated_gcn"):
            table = read_csv(out / f"{name}.csv")
            assert len(table) == 11
            svg = (out / f"{name}.svg").read_text()
            root = ET.fromstring(svg)  # must be well-formed XML
            assert root.tag.endswith("svg")

    def test_graph_file_input(self, tmp_path):
        g = generate_erdos_renyi(8, 0.5, seed=3)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        out = tmp_path / "spec"
        code = main(["spectra", "--graph-file", str(path), "--out", str(out)])
        assert code == EXIT_OK
        assert len(read_csv(out / "spectrum.csv")) == 9

    def test_malformed_graph_file_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n0 x\n")
        code = main(["spectra", "--graph-file", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("text, lineno, message", [
        ("3\n0 1\n2 2\n", 3, "self-loop (2,2) not allowed"),
        ("3\n0 1\n\n1 5\n", 4, "edge (1,5) out of range for n=3"),
        ("3\n5 1\n", 2, "edge (1,5) out of range for n=3"),
        ("3\n-1 2\n", 2, "edge (-1,2) out of range for n=3"),
        ("3\n0 1\n1 7\n2 2\n", 3, "edge (1,7) out of range for n=3"),  # the first bad line is named
        ("0\n", 1, "graph needs at least one node"),
        ("-2\n0 1\n", 1, "graph needs at least one node"),
    ], ids=["self-loop", "after-blank-line", "reversed", "negative", "first-of-two", "no-nodes", "negative-count"])
    def test_rejected_graph_file_names_its_file_and_line(self, tmp_path, capsys, text, lineno, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert main(["spectra", "--graph-file", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"

    def test_missing_graph_source_is_usage_error(self, tmp_path):
        assert main(["spectra", "--out", str(tmp_path / "o")]) == EXIT_USAGE

    def test_unreachable_connectivity_is_numeric_failure(self, tmp_path, capsys):
        # G(2, 1e-9) draws its one edge about once in 10^9 attempts
        assert main(["spectra", "--er", "2", "1e-9", "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numeric failure: connectivity unreachable: ")


class TestVerify:
    def test_injectivity_passes(self, tmp_path, capsys):
        out = tmp_path / "inj"
        code = main(
            ["verify", "--kind", "injectivity", "--pairs", "200", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "counterexample collides: True" in capsys.readouterr().out
        rows = read_csv(out / "results.csv")
        assert rows[1][0] == "injectivity" and rows[1][5] == "0"

    def test_report_names_the_witness_pair(self, tmp_path):
        out = tmp_path / "inj"
        assert main(["--seed", "5", "verify", "--kind", "injectivity", "--pairs", "300", "--out", str(out)]) == EXIT_OK
        header, row = read_csv(out / "results.csv")
        assert header[7:] == ["witness_pair", "witness_a", "witness_b"]
        report = injectivity_trial(300, 1, 4, 4, 5)
        assert int(row[7]) == report.witness_pair
        assert MultisetInstance(*ast.literal_eval(row[8])) == report.witness_a
        assert MultisetInstance(*ast.literal_eval(row[9])) == report.witness_b

    def test_independence_passes(self, tmp_path):
        out = tmp_path / "ind"
        code = main(
            ["verify", "--kind", "independence", "--pairs", "200", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_csv(out / "results.csv")
        assert rows[1][0] == "independence" and rows[1][1] == "2"

    def test_independence_k1_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--kind",
                "independence",
                "--k",
                "1",
                "--pairs",
                "10",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_USAGE
        assert "requires K > 1" in capsys.readouterr().err

    def test_independence_c1_is_usage_error(self, tmp_path, capsys):
        # two outputs in R^1 are always parallel; the trial used to die with an IndexError
        out = tmp_path / "o"
        code = main(["verify", "--kind", "independence", "--c", "1", "--pairs", "10", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "error: c must be at least 2 for independence, got 1" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_equivalence_passes(self, tmp_path, capsys):
        out = tmp_path / "eq"
        code = main(
            ["verify", "--kind", "equivalence", "--pairs", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "0 violations" in capsys.readouterr().out
        assert len(read_csv(out / "results.csv")) == 6

    def test_equivalence_gap_is_a_violation(self, tmp_path, capsys, monkeypatch):
        # one route off by 1e-6 everywhere, above the 1e-9 tolerance
        pairwise = cli.mimo_gc_pairwise
        monkeypatch.setattr(cli, "mimo_gc_pairwise", lambda *args: pairwise(*args) + 1e-6)
        out = tmp_path / "eq"
        assert main(["verify", "--kind", "equivalence", "--pairs", "3", "--out", str(out)]) == EXIT_VIOLATION
        assert "3 trials, 3 violations, worst 1.000e-06" in capsys.readouterr().out
        assert [row[-1] for row in read_csv(out / "results.csv")] == ["violation", "1", "1", "1"]


class TestUsageErrors:
    def test_zero_seeds_is_usage_error(self, tmp_path, capsys):
        code = main(["universality", "--seeds", "0", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "--seeds: must be at least 1" in capsys.readouterr().err

    def test_steps_below_one_is_usage_error(self, tmp_path, capsys):
        code = main(["universality", "--steps", "-5", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "--steps: must be at least 1" in capsys.readouterr().err

    def test_zero_pairs_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["verify", "--kind", "injectivity", "--pairs", "0", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE
        assert "--pairs: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--d", "--c"])
    def test_zero_dimension_is_usage_error(self, tmp_path, capsys, flag):
        code = main(
            ["verify", "--kind", "injectivity", flag, "0", "--pairs", "5", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE
        assert f"{flag}: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["universality", "--jobs", "0"], "--jobs: must be at least 1"),
            (["universality", "--lr", "-1"], "--lr: must be a finite number above 0"),
            (["universality", "--lr", "nan"], "--lr: must be a finite number above 0"),
            (["spectra", "--er", "16", "abc"], "--er: expected an integer N and a number P"),
            (["verify", "--kind", "injectivity", "--k", "0"], "--k: must be at least 1"),
            (["verify", "--kind", "independence", "--k", "-2"], "--k: must be at least 1"),
        ],
        ids=["jobs-zero", "lr-negative", "lr-nan", "er-not-a-number", "k-zero", "k-negative"],
    )
    def test_bad_value_names_its_flag(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()  # rejected before any work

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_out(self):
        assert main(["verify", "--kind", "injectivity"]) == EXIT_USAGE

    def test_bad_method_choice(self, tmp_path):
        assert (
            main(
                [
                    "universality",
                    "--method",
                    "transformer",
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            == EXIT_USAGE
        )


class TestSharedParser:
    CALLS = [
        ("usage", ["spectra"]),  # no graph source
        ("injectivity", ["verify", "--kind", "injectivity", "--pairs", "40"]),  # default --k
        ("independence", ["verify", "--kind", "independence", "--pairs", "40"]),
        ("spectra", ["--seed", "2", "spectra", "--er", "12", "0.3"]),
    ]

    @staticmethod
    def run(argv, out):
        code = main([*argv, "--out", str(out)])
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
        return code, files

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_interleaved_calls_match_calls_alone(self, tmp_path):
        alone = {}
        for name, argv in self.CALLS:
            build_parser.cache_clear()  # a fresh parser, as in a new process
            alone[name] = self.run(argv, tmp_path / "alone" / name)
        build_parser.cache_clear()
        for name, argv in self.CALLS:
            assert self.run(argv, tmp_path / "shared" / name) == alone[name], name
        assert [alone[name][0] for name, _ in self.CALLS] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]
        assert read_csv(tmp_path / "shared" / "independence" / "results.csv")[1][1] == "2"
        assert read_csv(tmp_path / "shared" / "injectivity" / "results.csv")[1][1] == "1"


def files(out: Path):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


class TestRewriteInPlace:
    """A rerun into the same --out writes exactly the bytes of a fresh run, and no other file."""

    @staticmethod
    def rerun_matches_fresh(tmp_path, earlier, argv):
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert main([*argv, "--out", str(fresh)]) == EXIT_OK
        reused.mkdir()
        (reused / "notes.txt").write_text("kept\n")
        for run in (earlier, argv, argv):
            assert main([*run, "--out", str(reused)]) == EXIT_OK
        assert (reused / "notes.txt").read_text() == "kept\n"
        for name, data in files(fresh).items():
            assert (reused / name).read_bytes() == data, name

    def test_spectra_over_a_larger_graph(self, tmp_path):
        self.rerun_matches_fresh(tmp_path, ["spectra", "--er", "40", "0.1"], ["spectra", "--er", "10", "0.4"])

    def test_universality_over_a_larger_grid(self, tmp_path, monkeypatch):
        # a zero clock makes the wall_seconds column reproducible
        monkeypatch.setattr("gclab.train.time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        self.rerun_matches_fresh(
            tmp_path,
            ["universality", "--steps", "1", "--seeds", "2"],
            ["universality", "--method", "gin", "--lr", "0.01", "--steps", "5", "--seeds", "1"],
        )

    def test_verify_over_a_longer_table(self, tmp_path):
        self.rerun_matches_fresh(
            tmp_path,
            ["verify", "--kind", "equivalence", "--pairs", "8"],
            ["verify", "--kind", "injectivity", "--pairs", "50"],
        )

    def test_short_writes_still_write_every_byte(self, tmp_path, monkeypatch):
        argv = ["--seed", "4", "spectra", "--er", "40", "0.1", "--out"]
        assert main([*argv, str(tmp_path / "fresh")]) == EXIT_OK
        real_write, sizes = os.write, []

        def short_write(fd, data):  # the kernel may write fewer bytes than it is given
            sizes.append(len(data))
            return real_write(fd, data[:7])

        monkeypatch.setattr(cli.os, "write", short_write)
        assert main([*argv, str(tmp_path / "short")]) == EXIT_OK
        assert files(tmp_path / "short") == files(tmp_path / "fresh")
        assert len(sizes) > 1000 and max(sizes) > 7  # every file came in many partial writes

    def test_longer_old_file_is_cut_to_the_new_length(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"x" * 5000)
        cli._rewrite(path, "λ,mu\n1,2\n")  # the cut is at the byte length, not the character count
        assert path.read_bytes() == "λ,mu\n1,2\n".encode("utf-8")

    def test_output_path_that_is_a_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "inj"
        (out / "results.csv").mkdir(parents=True)
        assert main(["verify", "--kind", "injectivity", "--pairs", "5", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Is a directory" in err and "results.csv" in err

    def test_read_only_output_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "inj"
        out.mkdir()
        target = out / "results.csv"
        target.write_text("old\n")
        target.chmod(0o444)
        if os.access(target, os.W_OK):
            # a privileged user may write any file; refuse it as the kernel refuses anyone else
            real_open = os.open

            def guarded_open(path, flags, *args):
                if Path(path) == target and flags & (os.O_WRONLY | os.O_RDWR):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
                return real_open(path, flags, *args)

            monkeypatch.setattr(cli.os, "open", guarded_open)
        assert main(["verify", "--kind", "injectivity", "--pairs", "5", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Permission denied" in err and "results.csv" in err
        assert target.read_text() == "old\n"


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = ["--seed", "3", "spectra", "--er", "10", "0.4", "--out"]
    done = subprocess.run(
        [sys.executable, "-m", "gclab", *argv, str(tmp_path / "module")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert main([*argv, str(tmp_path / "in-process")]) == EXIT_OK
    assert files(tmp_path / "module") == files(tmp_path / "in-process")
