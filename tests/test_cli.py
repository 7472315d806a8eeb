import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import mschwarz._kernels as kernels_module
import mschwarz.cli as cli_module
import mschwarz.distributions as distributions_module
import mschwarz.problems as problems_module
import mschwarz.solver as solver_module
from mschwarz import DiagonalModel
from mschwarz.cli import main

DIAG_GREEDY = """
problem:
  kind: diagonal
  coefficients: [0.5, 0.25, 0.125]
selection:
  kind: greedy
  beta: 1.0
  pool: support_union
relaxation: gawr
steps: 50
seed: 7
bounds: true
"""

ORACLE_EXPECT = """
problem:
  kind: diagonal
  coefficients: [0.6, 0.3, 0.1]
selection:
  kind: random
  family:
    kind: explicit
    probs: [0.5, 0.4, 0.1]
relaxation: pure
steps: 12
trials: 400
seed: 5
"""


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_columns(path, *names):
    """The named CSV columns as float arrays (17 digits read back exactly)."""
    header, rows = read_csv(path)
    return [np.array([float(r[header.index(name)]) for r in rows]) for name in names]


def first_violation(observed, limit):
    return int(np.nonzero(observed > limit + cli_module.BOUND_SLACK)[0][0])


class TestRunCommand:
    def test_zero_steps_two_line_csv(self, tmp_path):
        cfg = write_config(tmp_path, DIAG_GREEDY.replace("steps: 50", "steps: 0"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header[:7] == ["m", "index", "alpha", "omega", "local_norm",
                              "error_a", "error_a_sq"]
        assert len(rows) == 1
        assert rows[0][0] == "0"

    def test_same_config_twice_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, DIAG_GREEDY)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()

    def test_constant_column_count_and_bound_column(self, tmp_path):
        cfg = write_config(tmp_path, DIAG_GREEDY)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trace.csv")
        assert header[-1] == "greedy_bound"
        assert all(len(r) == len(header) for r in rows)

    def test_metadata_sidecar_fields(self, tmp_path):
        cfg = write_config(tmp_path, DIAG_GREEDY)
        main(["run", "--config", cfg, "--out", str(tmp_path)])
        meta = json.loads((tmp_path / "summary.json").read_text())
        assert meta["tool"] == "mschwarz"
        assert meta["rng"] == "PCG64"
        assert meta["seed"] == 7
        assert meta["lambda"] == 1.0
        assert meta["stability"]["lam_min"] == 1.0
        assert meta["a_norms"]["estimate"] == "exact"
        assert len(meta["config_hash"]) == 64

    def test_assert_bounds_passes_for_greedy_theorem(self, tmp_path):
        cfg = write_config(tmp_path, DIAG_GREEDY)
        assert main(["run", "--config", cfg, "--out", str(tmp_path),
                     "--assert-bounds"]) == 0

    def test_assert_bounds_single_trajectory_violation_exits_one(self, tmp_path, capsys):
        # the Theorem 1b bound controls the expectation; seed 1959 produces a
        # single trajectory that stays above it (one coordinate unhit for 12
        # steps), so --assert-bounds must fail with exit code 1
        text = """
problem:
  kind: diagonal
  coefficients: [0.5, 0.5]
selection:
  kind: random
  family:
    kind: uniform
    n: 2
relaxation: pure
steps: 16
seed: 1959
bounds: true
"""
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path),
                     "--assert-bounds"]) == 1
        err_sq, bound = read_columns(tmp_path / "trace.csv", "error_a_sq", "random_bound")
        m = first_violation(err_sq, bound)
        assert capsys.readouterr().err == (
            f"run: bound violated at m={m}: error_sq={err_sq[m]!r} > bound={bound[m]!r}\n")

    def test_seed_override_changes_random_trace(self, tmp_path):
        cfg = write_config(tmp_path, ORACLE_EXPECT)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "77"])
        assert (tmp_path / "a/trace.csv").read_bytes() != (tmp_path / "b/trace.csv").read_bytes()


class TestExpectCommand:
    def test_oracle_columns_agree(self, tmp_path):
        cfg = write_config(tmp_path, ORACLE_EXPECT)
        assert main(["expect", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "expect.csv")
        assert header == ["m", "mean_err_sq", "stderr", "K", "exact", "bruteforce"]
        for r in rows:
            m = int(r[0])
            mean, stderr, exact = float(r[1]), float(r[2]), float(r[4])
            assert abs(mean - exact) <= 4.0 * stderr + 1e-12
            if m <= 8:
                assert abs(float(r[5]) - exact) <= 1e-12
            else:
                assert r[5] == ""

    def test_trials_must_exceed_one(self, tmp_path):
        cfg = write_config(tmp_path, ORACLE_EXPECT.replace("trials: 400", "trials: 1"))
        assert main(["expect", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_assert_bounds_violation_exits_one(self, tmp_path, capsys, monkeypatch):
        # a bound far below the mean from m = 3 on; the check allows the mean
        # three standard errors above it
        monkeypatch.setattr(cli_module, "random_bound",
                            lambda m, spec: np.where(m < 3, 10.0, 0.0))
        cfg = write_config(tmp_path, ORACLE_EXPECT + "bounds: true\n")
        assert main(["expect", "--config", cfg, "--out", str(tmp_path),
                     "--assert-bounds"]) == 1
        mean, stderr, bound = read_columns(
            tmp_path / "expect.csv", "mean_err_sq", "stderr", "random_bound")
        m = first_violation(mean, bound + 3.0 * stderr)
        assert m == 3
        assert capsys.readouterr().err == (
            f"expect: bound violated at m={m}: mean={mean[m]!r} > bound={bound[m]!r}"
            " + 3*stderr\n")

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, ORACLE_EXPECT)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        main(["expect", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["expect", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/expect.csv").read_bytes() == (tmp_path / "b/expect.csv").read_bytes()


class TestOtherCommands:
    def test_bounds_curve(self, tmp_path):
        cfg = write_config(tmp_path, DIAG_GREEDY)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "bounds.csv")
        assert header == ["m", "greedy_bound"]
        vals = [float(r[1]) for r in rows]
        assert vals == sorted(vals, reverse=True)

    def test_bounds_rejects_deterministic_selection(self, tmp_path):
        text = DIAG_GREEDY.replace(
            "kind: greedy\n  beta: 1.0\n  pool: support_union",
            "kind: sequence\n  sequence: [1, 2, 3]",
        )
        cfg = write_config(tmp_path, text)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_rate_prints_slope(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DIAG_GREEDY.replace("steps: 50", "steps: 2000"))
        assert main(["rate", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "slope" in out
        slope = float(out.split()[1])
        assert slope < -0.45

    def test_check_passes_on_valid_configs(self, tmp_path):
        for text in (DIAG_GREEDY, ORACLE_EXPECT):
            cfg = write_config(tmp_path, text)
            assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_check_poisson(self, tmp_path):
        text = """
problem:
  kind: poisson_1d
  n: 31
  splitting:
    kind: overlapping_blocks
    block_size: 8
    overlap: 2
selection:
  kind: cyclic
relaxation: pure
steps: 60
seed: 3
"""
        cfg = write_config(tmp_path, text)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0


class TestErrorPaths:
    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DIAG_GREEDY.replace("beta: 1.0", "beta: 2.0"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "selection.beta" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)]) == 2

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_bytes(DIAG_GREEDY.encode() + b"# \xff\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config: ") and "utf-8" in err and "Traceback" not in err

    def test_bad_seed_override_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, DIAG_GREEDY)
        assert main(["run", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "-1"]) == 2


POISSON_SMALL = """
problem:
  kind: poisson_1d
  n: 31
  splitting:
    kind: overlapping_blocks
    block_size: 8
    overlap: 2
selection:
  kind: greedy
  beta: 1.0
  pool: growing
relaxation: gawr
steps: 60
seed: 3
"""


class TestLibraryErrors:
    @pytest.mark.parametrize(
        "old, new, message",
        [("block_size: 8", "block_size: 64", "block size 64"),
         ("overlap: 2", "overlap: 8", "overlap 8")],
    )
    def test_bad_splitting_exits_two_with_message(self, tmp_path, capsys, old, new, message):
        cfg = write_config(tmp_path, POISSON_SMALL.replace(old, new))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"run: {message}")
        assert "Traceback" not in err

    def test_check_with_growing_pool_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POISSON_SMALL)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)


def count_steps(monkeypatch):
    """A list that gets one entry per local solve, scan or update of a
    matrix model."""
    calls = []
    model_class = problems_module.MatrixSchwarzModel
    for name in ("local_residual", "pool_local_norms", "apply_update"):
        method = getattr(model_class, name)
        monkeypatch.setattr(model_class, name,
                            lambda *a, _m=method, _n=name: calls.append(_n) or _m(*a))
    return calls


FIVE_BLOCKS = POISSON_SMALL.replace("n: 31", "n: 64").replace(
    "block_size: 8", "block_size: 16").replace("overlap: 2", "overlap: 4").replace(
    "steps: 60", "steps: 3")


class TestComponentOutsideTheSplitting:
    """A selection that could pick past the N = 5 blocks is refused before
    the first step, exit 2 with one line that names the config key and N,
    so that whether a config runs does not depend on its seed."""

    SELECTIONS = {
        "sequence": ("selection.sequence", "kind: sequence\n  sequence: [1, 99]"),
        "uniform-50": ("selection.family", "kind: random\n  family: {kind: uniform, n: 50}"),
        "power-law": ("selection.family", "kind: random\n  family: {kind: power_law, s: 0.5}"),
        "log": ("selection.family", "kind: random\n  family: {kind: log}"),
        "explicit-mass-on-6": ("selection.family", "kind: random\n  family: {kind: explicit, "
                                                   "probs: [0.5, 0, 0, 0, 0, 0.5]}"),
        "truncation": ("selection.truncation", "kind: random\n  family: {kind: power_law, "
                                               "s: 0.5}\n  truncation: {D: 1.0}"),
        "support-union": ("selection.pool", "kind: greedy\n  beta: 1.0\n  pool: support_union"),
    }
    ACCEPTED = {
        "uniform-5": "kind: random\n  family: {kind: uniform, n: 5}",
        "explicit-zero-tail": "kind: random\n  family: {kind: explicit, "
                              "probs: [0.5, 0.5, 0, 0, 0, 0]}",
        "truncation-within-5": "kind: random\n  family: {kind: power_law, s: 0.5}\n"
                               "  truncation: {D: 4.0}",
        "sequence-5": "kind: sequence\n  sequence: [1, 5]",
    }

    @staticmethod
    def config(tmp_path, text, selection, seed=3, steps=None):
        text = text.replace("kind: greedy\n  beta: 1.0\n  pool: growing", selection)
        text = text.replace("seed: 3", f"seed: {seed}")
        if steps is not None:
            text = text.replace("steps: 3", f"steps: {steps}")
        return write_config(tmp_path, text + "trials: 2\n")

    @pytest.mark.parametrize("command", ["run", "expect", "check"])
    @pytest.mark.parametrize("selection", sorted(SELECTIONS))
    def test_exits_two_naming_the_index_and_n(self, tmp_path, capsys, monkeypatch, command,
                                             selection):
        calls = count_steps(monkeypatch)
        key, text = self.SELECTIONS[selection]
        cfg = self.config(tmp_path, POISSON_SMALL, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        match = re.fullmatch(r"config error: (selection\.\w+): (.*); "
                             r"the splitting has components 1\.\.5", lines[0])
        assert match and match.group(1) == key, lines[0]
        index = {"sequence": "99", "uniform-50": "50", "explicit-mass-on-6": "6"}.get(selection)
        assert index is None or re.search(rf"\b{index}\b", match.group(2)), lines[0]
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "expect", "check"])
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_uniform_6_is_refused_on_every_seed(self, tmp_path, capsys, monkeypatch,
                                                seed, command):
        # before the check at build time, seeds 2, 3, 5 and 6 ran all three
        # steps and exited 0, the others exited 2 at their first draw of 6
        calls = count_steps(monkeypatch)
        cfg = self.config(tmp_path, FIVE_BLOCKS,
                          "kind: random\n  family: {kind: uniform, n: 6}", seed)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: selection.family: puts mass on component 6; "
            "the splitting has components 1..5"]
        assert calls == []
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("name", sorted(ACCEPTED))
    def test_accepted_within_n(self, tmp_path, monkeypatch, name):
        calls = count_steps(monkeypatch)
        cfg = self.config(tmp_path, FIVE_BLOCKS, self.ACCEPTED[name])
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls.count("apply_update") == 3

    def test_truncation_checked_at_the_last_step(self, tmp_path, capsys):
        # N_m grows with m: N_0 = 5 and N_1 = 7, so one step stays within 1..5;
        # a cutoff past the partial-sum table's limit is past N too
        _, selection = self.SELECTIONS["truncation"]
        for steps, code in ((0, 0), (1, 0), (2, 2), (3, 2), (10 ** 9, 2)):
            cfg = self.config(tmp_path, FIVE_BLOCKS, selection, steps=steps)
            assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == code, steps
        err = capsys.readouterr().err
        assert "the cutoff N_1 exceeds 5" in err and "the cutoff N_2 exceeds 5" in err
        assert "the cutoff N_999999999 exceeds 5; the splitting has components 1..5" in err

    def test_long_truncation_is_refused_with_a_small_table(self, tmp_path, capsys, monkeypatch):
        # deciding N_m > 5 needs the table only up to the first power of two
        # >= 5, not up to N_{steps-1} (about 2.3 steps entries)
        sizes = []
        extend = distributions_module._SeriesDistribution._extend_to
        monkeypatch.setattr(distributions_module._SeriesDistribution, "_extend_to",
                            lambda self, N: sizes.append(N) or extend(self, N))
        _, selection = self.SELECTIONS["truncation"]
        cfg = self.config(tmp_path, FIVE_BLOCKS, selection, steps=10 ** 7)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: selection.truncation: the cutoff N_9999999 exceeds 5; "
            "the splitting has components 1..5"]
        assert max(sizes, default=0) <= 64


class TestDuplicatedKeys:
    @pytest.mark.parametrize("text, path", [
        (DIAG_GREEDY.replace("[0.5, 0.25, 0.125]", "{1: 0.5, 1.0: 0.3}"),
         "problem.coefficients.1.0"),
        (DIAG_GREEDY + "steps: 5\n", "steps"),
    ], ids=["coefficient-index", "steps"])
    def test_duplicated_key_exits_2_with_its_path(self, tmp_path, capsys, text, path):
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: duplicated key" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()


class TestCheckSetupWork:
    def test_check_solves_the_stability_eigenproblem_once(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, POISSON_SMALL + "bounds: true\n")
        calls = []
        eigvalsh = kernels_module.eigvalsh
        # the stability spectrum is the one eigensolve of a single matrix;
        # Lambda's per-form solves are of pencils (eigvalsh_pencil).  The
        # library imports the wrapper inside its set-up functions, so it
        # calls the patched one
        monkeypatch.setattr(kernels_module, "eigvalsh",
                            lambda *a, **k: calls.append(a) or eigvalsh(*a, **k))
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("text", [POISSON_SMALL, DIAG_GREEDY], ids=["poisson", "diagonal"])
    def test_determinism_run_builds_everything_again(self, tmp_path, monkeypatch, text):
        cfg = write_config(tmp_path, text)
        built = []
        build = cli_module._build
        monkeypatch.setattr(cli_module, "_build",
                            lambda config: built.append(build(config)) or built[-1])
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        # model, selection and relaxation of the second run are all new
        assert len(built) == 2
        assert all(a is not b for a, b in zip(*built))
        assert built[0][1].pool is not built[1][1].pool

    @pytest.mark.parametrize("text", [POISSON_SMALL, ORACLE_EXPECT],
                             ids=["poisson-greedy", "diagonal-random"])
    def test_check_iterates_twice(self, tmp_path, monkeypatch, text):
        """The determinism run, and one checked run that also records the
        trace the determinism, monotonicity and bound checks read."""
        cfg = write_config(tmp_path, text + "bounds: true\n")
        passes = []
        iterate = solver_module.iterate
        spy = lambda *a, **k: passes.append(a) or iterate(*a, **k)
        # run() looks up the solver's iterate, the step checks the CLI's
        monkeypatch.setattr(solver_module, "iterate", spy)
        monkeypatch.setattr(cli_module, "iterate", spy)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(passes) == 2


POWER_LAW_EXPECT = DIAG_GREEDY.replace(
    "kind: greedy\n  beta: 1.0\n  pool: support_union",
    "kind: random\n  family:\n    kind: power_law\n    s: 0.5\n  truncation:\n    D: 1.0",
).replace("steps: 50", "steps: 20\ntrials: 20")

POISSON_UNIFORM_RUN = POISSON_SMALL.replace(
    "kind: greedy\n  beta: 1.0\n  pool: growing",
    "kind: random\n  family:\n    kind: uniform",
)


class TestMetadataPass:
    """Every subcommand builds the additive Schwarz sum S twice, once for
    the class norms and once for the stability form, and none leaves an
    n x n array on the splitting.  The second build (about 6 ms at
    n = 1024) is the price of holding one n x n array at a time instead of
    keeping S for the stability form."""

    @pytest.mark.parametrize("command, text, builds", [
        ("run", POISSON_SMALL, 2),
        ("run", POISSON_UNIFORM_RUN, 2),
        ("expect", POISSON_UNIFORM_RUN + "trials: 4\n", 2),
        ("bounds", POISSON_UNIFORM_RUN, 2),
        ("rate", POISSON_SMALL, 2),
        # the stability check reads the constants of the one metadata pass
        ("check", POISSON_SMALL, 2),
    ], ids=["run-greedy", "run-random", "expect", "bounds", "rate", "check"])
    def test_schwarz_sum_built_per_use_and_not_kept(self, tmp_path, monkeypatch,
                                                    command, text, builds):
        cfg = write_config(tmp_path, text + "bounds: true\n")
        models, built = [], []
        metadata = cli_module._model_metadata
        schwarz_sum = problems_module.additive_schwarz_sum

        def spy_metadata(config, model, ms=None):
            models.append(model)
            return metadata(config, model, ms)

        def spy_sum(*args, **kwargs):
            built.append(args)
            return schwarz_sum(*args, **kwargs)

        monkeypatch.setattr(cli_module, "_model_metadata", spy_metadata)
        monkeypatch.setattr(problems_module, "additive_schwarz_sum", spy_sum)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert models
        for model in models:
            n = model.problem.n
            assert not [a for a in reached_arrays(model.splitting) if a.shape == (n, n)]
            # the walk reaches into the scan plan's tuples
            model.splitting._blocks.append((np.zeros((n, n)),))
            assert [a for a in reached_arrays(model.splitting) if a.shape == (n, n)]
        assert len(built) == builds


def reached_arrays(obj, seen=None):
    """Every ndarray reachable from the attributes of ``obj`` through
    lists, tuples, dicts and objects of the library."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from reached_arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from reached_arrays(item, seen)
    elif type(obj).__module__.startswith("mschwarz"):
        for item in vars(obj).values():
            yield from reached_arrays(item, seen)


SETUP_CONSTANTS = ("uniform_bound_lambda", "stability_constants", "representation_block_norms")


@pytest.mark.parametrize("bounds", ["true", "false"])
@pytest.mark.parametrize("command, text", [
    ("run", POISSON_SMALL),
    ("expect", POISSON_UNIFORM_RUN + "trials: 4\n"),
    ("bounds", POISSON_UNIFORM_RUN),
    ("rate", POISSON_SMALL),
    ("check", POISSON_SMALL),
], ids=["run", "expect", "bounds", "rate", "check"])
def test_each_setup_constant_is_computed_once(tmp_path, monkeypatch, command, text, bounds):
    """One metadata pass per command: ``check`` reads Lambda and the
    stability constants from the sidecar's metadata instead of asking
    again."""
    calls = []
    for module in (cli_module, problems_module):
        for name in SETUP_CONSTANTS:
            monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), _n=name:
                                calls.append(_n) or _f(*a))
    cfg = write_config(tmp_path, text + f"bounds: {bounds}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert sorted(calls) == sorted(SETUP_CONSTANTS)


class TestOutputFiles:
    """Writing the outputs ends in exit 2 with a one-line message, not a
    traceback, and a trace and a summary that name one file are refused
    before the first step."""

    @staticmethod
    def one_line(err, prefix):
        assert err.startswith(prefix) and len(err.splitlines()) == 1, err
        assert "Traceback" not in err

    def test_out_naming_a_file_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DIAG_GREEDY)
        (tmp_path / "taken").write_text("")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "taken")]) == 2
        self.one_line(capsys.readouterr().err, "run: cannot write the outputs: ")

    def test_trace_in_a_missing_directory_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DIAG_GREEDY + "outputs: {trace: nope/trace.csv}\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        self.one_line(capsys.readouterr().err, "run: cannot write the outputs: ")

    # ``rate`` writes no trace, so a trace name is no output of it
    @pytest.mark.parametrize("command, case", [
        (command, case) for command in ("run", "expect", "bounds", "rate")
        for case in ("summary-in-missing-dir", "trace-in-missing-dir", "out-is-a-file",
                     "summary-is-out")
        if (command, case) != ("rate", "trace-in-missing-dir")])
    def test_unwritable_output_exits_two_before_a_step(self, tmp_path, capsys, monkeypatch,
                                                       command, case):
        calls = []
        for name in ("_build", "run", "mc_expected_error", "_model_metadata"):
            monkeypatch.setattr(cli_module, name, lambda *a, _n=name, _f=getattr(cli_module, name),
                                **k: calls.append(_n) or _f(*a, **k))
        outputs = {"summary-in-missing-dir": "{summary: missing/s.json}",
                   "trace-in-missing-dir": "{trace: missing/t.csv}",
                   "summary-is-out": "{summary: ''}"}.get(case, "{}")
        cfg = write_config(tmp_path, DIAG_GREEDY + f"trials: 2\noutputs: {outputs}\n")
        out = tmp_path / "out"
        if case == "out-is-a-file":
            out.write_text("")
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        self.one_line(captured.err, f"{command}: cannot write the outputs: ")
        assert calls == [] and captured.out == ""
        assert out.is_file() if case == "out-is-a-file" else list(out.iterdir()) == []

    @pytest.mark.parametrize("command, text, outputs", [
        ("run", POISSON_SMALL, "{trace: same.json, summary: same.json}"),
        ("run", POISSON_SMALL, "{summary: trace.csv}"),
        ("run", POISSON_SMALL, "{trace: sub/../same.json, summary: same.json}"),
        ("expect", POISSON_UNIFORM_RUN + "trials: 4\n", "{trace: same.json, summary: same.json}"),
        ("expect", POISSON_UNIFORM_RUN + "trials: 4\n", "{trace: summary.json}"),
        ("bounds", POISSON_UNIFORM_RUN, "{trace: same.json, summary: same.json}"),
        ("bounds", POISSON_UNIFORM_RUN, "{summary: bounds.csv}"),
    ], ids=["run-same", "run-default-trace", "run-dot-dot", "expect-same", "expect-default-summary",
            "bounds-same", "bounds-default-trace"])
    def test_one_file_for_trace_and_summary_exits_two_before_a_step(
            self, tmp_path, capsys, monkeypatch, command, text, outputs):
        steps = count_steps(monkeypatch)
        cfg = write_config(tmp_path, text + f"outputs: {outputs}\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        self.one_line(capsys.readouterr().err,
                      "config error: outputs: the trace and the summary are one file, ")
        assert steps == [] and not out.exists()

    def test_summary_named_as_another_commands_csv_is_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, POISSON_UNIFORM_RUN + "trials: 4\noutputs: {summary: trace.csv}\n")
        assert main(["expect", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.split() == [
            "wrote", str(tmp_path / "out" / "expect.csv"),
            "wrote", str(tmp_path / "out" / "trace.csv")]
        assert "trials" in json.loads((tmp_path / "out" / "trace.csv").read_text())


TWO_LEVEL_TINY = """
problem:
  kind: poisson_1d
  n: 64
  splitting:
    kind: two_level
    coarse_stride: 8
    block_size: 16
    overlap: 4
selection:
  kind: random
  family:
    kind: uniform
relaxation: gawr
steps: 40
trials: 4
seed: 3
bounds: true
"""


@pytest.mark.parametrize("command, text", [
    ("run", TWO_LEVEL_TINY),
    ("run", TWO_LEVEL_TINY.replace("kind: random\n  family:\n    kind: uniform",
                                   "kind: greedy\n  beta: 1.0\n  pool: fixed")),
    ("expect", TWO_LEVEL_TINY),
    ("check", TWO_LEVEL_TINY),
    ("bounds", TWO_LEVEL_TINY),
], ids=["run-random", "run-greedy", "expect", "check", "bounds"])
def test_no_command_reads_the_dense_a(tmp_path, monkeypatch, capsys, command, text):
    """With ``Problem.A`` made to raise, every command gives the same
    outputs: the library reads A through its band only."""
    cfg = write_config(tmp_path, text)
    outputs = []
    for name in ("dense", "band"):
        out = tmp_path / name
        out.mkdir()
        if name == "band":
            def refuse(problem):
                raise AssertionError("the dense A was read")
            monkeypatch.setattr(problems_module.Problem, "A", property(refuse))
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    # every command writes files but check, which prints its verdicts
    assert outputs[1][1] if command != "check" else "PASS" in outputs[1][0]
    assert outputs[0] == outputs[1]


def _loaded(modules, name):
    return any(m == name or m.startswith(name + ".") for m in modules)


def _subpackages(modules):
    """The public scipy subpackages among ``modules``, such as ``scipy.special``."""
    return {".".join(m.split(".")[:2]) for m in modules
            if m.count(".") and not m.split(".")[1].startswith("_")
            and m.split(".")[1] != "version"}


def run_fresh(code):
    """The stdout of ``code`` run in a fresh interpreter on this ``src``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def modules_after(tmp_path, command, text):
    """The names in ``sys.modules`` of a fresh interpreter after ``import
    mschwarz.cli`` and, unless ``command`` is None, ``command`` on the
    config ``text``."""
    code = "import sys\nfrom mschwarz.cli import main\n"
    if command is not None:
        cfg = write_config(tmp_path, text)
        code += f"assert main([{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0\n"
    code += "print(' '.join(sorted(sys.modules)))\n"
    return run_fresh(code).splitlines()[-1].split()


POWER_LAW_ABOVE_NINE = POWER_LAW_EXPECT.replace("s: 0.5", "s: 9.5")


# The compiled modules of scipy a Poisson config calls (see _kernels), and
# what importing them through their packages would load besides.
POISSON_MODULES = ["scipy.linalg._flapack", "scipy.sparse._sparsetools"]
NOT_IMPORTED_BY_POISSON = ["scipy", "scipy.linalg", "scipy.sparse", "scipy._lib._array_api"]


# A power law with s <= 9 takes its constant from the Cephes port in
# distributions._zeta; only s > 9 asks scipy.special for it.  ``loaded``
# names modules or packages that must be loaded, ``not_loaded`` packages of
# which nothing may be, and ``not_imported`` modules that may not be
# although a module under them is.
@pytest.mark.parametrize("command, text, loaded, not_loaded, not_imported", [
    (None, None, [], ["scipy"], []),
    ("expect", POWER_LAW_EXPECT, [], ["scipy"], []),
    ("run", POWER_LAW_EXPECT, [], ["scipy"], []),
    ("check", POWER_LAW_EXPECT, [], ["scipy"], []),
    ("expect", POWER_LAW_ABOVE_NINE, ["scipy.special"], ["scipy.linalg", "scipy.sparse"], []),
    ("expect", ORACLE_EXPECT, [], ["scipy"], []),
    ("run", POISSON_UNIFORM_RUN, POISSON_MODULES, ["scipy.special"], NOT_IMPORTED_BY_POISSON),
    ("expect", POISSON_UNIFORM_RUN + "trials: 4\n", POISSON_MODULES, ["scipy.special"],
     NOT_IMPORTED_BY_POISSON),
    ("check", POISSON_UNIFORM_RUN, POISSON_MODULES, ["scipy.special"], NOT_IMPORTED_BY_POISSON),
], ids=["import-cli", "diagonal-power-law", "diagonal-power-law-run",
        "diagonal-power-law-check", "diagonal-power-law-above-nine", "diagonal-explicit",
        "poisson-uniform", "poisson-uniform-expect", "poisson-uniform-check"])
def test_scipy_modules_loaded_only_where_the_config_needs_them(
        tmp_path, command, text, loaded, not_loaded, not_imported):
    modules = [m for m in modules_after(tmp_path, command, text) if m.startswith("scipy")]
    for name in loaded:
        assert _loaded(modules, name), name
    assert _subpackages(modules) <= _subpackages(loaded), modules
    for name in not_loaded:
        assert not _loaded(modules, name), name
    for name in not_imported:
        assert name not in modules, name


# What a plain import of numpy.random loads besides itself: secrets, and
# through hmac OpenSSL.
OPENSSL_MODULES = ["secrets", "hmac", "_hashlib"]
POISSON_CYCLIC = POISSON_SMALL.replace("kind: greedy\n  beta: 1.0\n  pool: growing",
                                       "kind: cyclic")


@pytest.mark.parametrize("command, text, draws", [
    (None, None, False),
    ("run", POISSON_SMALL, False),
    ("run", POISSON_CYCLIC, False),
    ("run", DIAG_GREEDY, False),
    ("run", POISSON_UNIFORM_RUN, True),
    ("expect", POWER_LAW_EXPECT, True),
    # the uniform-bound certificate draws its test vectors
    ("check", POISSON_SMALL, True),
], ids=["import-cli", "poisson-greedy", "poisson-cyclic", "diagonal-greedy", "poisson-uniform",
        "diagonal-power-law-expect", "poisson-greedy-check"])
def test_numpy_random_loaded_only_by_runs_that_draw(tmp_path, command, text, draws):
    """A run whose rule draws nothing loads no numpy.random, and no run
    loads secrets, hmac or OpenSSL, neither for its draws nor for the
    config hash."""
    modules = modules_after(tmp_path, command, text)
    assert ("numpy.random" in modules) == draws
    assert not [m for m in OPENSSL_MODULES if m in modules]


# Builds a RandomRule, which imports numpy.random, in a fresh interpreter.
BUILD_RANDOM_RULE = """\
import sys
from mschwarz.distributions import uniform_distribution
from mschwarz.solver import RandomRule
RandomRule(uniform_distribution(3))
import numpy as np
"""


class TestImportNumpyRandom:
    """numpy.random is imported with a stand-in secrets module, which
    leaves no trace once the import is done."""

    def test_secrets_is_the_standard_library_module_afterwards(self):
        out = run_fresh(BUILD_RANDOM_RULE + """\
assert "secrets" not in sys.modules
import os, secrets, sysconfig
assert hasattr(secrets, "token_bytes")
print(os.path.samefile(secrets.__file__,
                       os.path.join(sysconfig.get_paths()["stdlib"], "secrets.py")))
""")
        assert out.split() == ["True"]

    def test_unseeded_seed_sequences_draw_fresh_entropy(self):
        out = run_fresh(BUILD_RANDOM_RULE + """\
print(np.random.SeedSequence().entropy, np.random.SeedSequence().entropy)
""")
        first, second = out.split()
        assert first != second

    def test_secrets_loaded_first_is_what_numpy_binds(self):
        out = run_fresh("import secrets\n" + BUILD_RANDOM_RULE + """\
import numpy.random.bit_generator as bit_generator
print(bit_generator.randbits is secrets.randbits)
""")
        assert out.split() == ["True"]

    def test_a_refused_stand_in_falls_back_to_the_plain_import(self):
        out = run_fresh("""\
import sys, types
import mschwarz.solver as solver
solver._secrets_stand_in = lambda: types.ModuleType("secrets")
solver._import_numpy_random()
import numpy as np
import numpy.random.bit_generator as bit_generator
import secrets
print(bit_generator.randbits is secrets.randbits, hasattr(secrets, "token_bytes"),
      np.random.default_rng(5).integers(1000))
""")
        assert out.split() == ["True", "True", "670"]


LOG_FAMILY_RUN = POWER_LAW_EXPECT.replace("kind: power_law\n    s: 0.5", "kind: log")


@pytest.mark.parametrize("command", ["run", "expect"])
@pytest.mark.parametrize("old, new, message", [
    ("s: 0.5", "s: 1.0e-300", "power-law exponent s=1e-300 is too small"),
    ("s: 0.5\n  truncation:\n    D: 1.0", "s: 2.0\n  truncation:\n    D: 1.0e-300",
     "tail budget 3.54e-301 is below 2^-53"),
], ids=["s-1e-300", "s-2-D-1e-300"])
def test_unresolvable_power_law_exits_two_with_a_small_table(tmp_path, capsys, monkeypatch,
                                                             command, old, new, message):
    """An exponent whose constant zeta(1 + s) is infinite, and a tail
    budget below 2^-53, exit 2 before the partial-sum table grows past
    its 64 initial entries."""
    sizes = []
    extend = distributions_module._SeriesDistribution._extend_to
    monkeypatch.setattr(distributions_module._SeriesDistribution, "_extend_to",
                        lambda self, N: sizes.append(N) or extend(self, N))
    text = POWER_LAW_EXPECT.replace(old, new)
    assert new in text
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{command}: {message}"), err
    assert max(sizes, default=0) <= 64


def test_log_family_run_leaves_mpmath_unloaded(tmp_path):
    """The log family's constant is a stored float, so a run with it
    computes nothing with mpmath."""
    assert "kind: log" in LOG_FAMILY_RUN
    modules = modules_after(tmp_path, "run", LOG_FAMILY_RUN)
    assert "mschwarz.distributions" in modules
    assert "mpmath" not in modules


def test_scipy_linalg_imports_after_a_poisson_run(tmp_path):
    """A process that imports ``scipy.linalg`` after a Poisson run gets a
    working package, built on the compiled module the run loaded, with
    the bits of the run's wrappers; only the package's private attribute
    ``_flapack`` is missing."""
    src = Path(__file__).resolve().parent.parent / "src"
    cfg = write_config(tmp_path, POISSON_UNIFORM_RUN)
    code = f"""
import sys
import numpy as np
from mschwarz.cli import main
assert main(['run', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0
from mschwarz import _kernels
import scipy.linalg
from scipy.linalg import _flapack
assert _flapack is _kernels.flapack is scipy.linalg.lapack._flapack
assert not hasattr(scipy.linalg, "_flapack")
rng = np.random.default_rng(4)
Q = rng.standard_normal((136, 136))
A = Q @ Q.T + 136 * np.eye(136)
w = scipy.linalg.eigh(A, eigvals_only=True)
assert w.tobytes() == _kernels.eigvalsh(A.copy()).tobytes()
assert scipy.linalg.cholesky(A, lower=True).tobytes() == _kernels.potrf(A).tobytes()
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0 and out.stdout.splitlines()[-1] == "ok", out.stderr


POISSON_GREEDY_FIXED = POISSON_SMALL.replace("pool: growing", "pool: fixed")


class TestGreedyComplianceCheck:
    """`check` compares the picks with per-component solves, so a scan that
    misreports a norm fails it even when a second scan would agree."""

    # from step 30 on, the check must reach past the 25 steps of the omega test
    @pytest.mark.parametrize("model_class, text, from_step", [
        (problems_module.MatrixSchwarzModel, POISSON_GREEDY_FIXED, 0),
        (DiagonalModel, DIAG_GREEDY, 0),
        (problems_module.MatrixSchwarzModel, POISSON_GREEDY_FIXED, 30),
        (DiagonalModel, DIAG_GREEDY, 30),
    ], ids=["poisson", "diagonal", "poisson-from-step-30", "diagonal-from-step-30"])
    def test_scan_that_shrinks_the_largest_norm_fails(self, tmp_path, capsys, monkeypatch,
                                                      model_class, text, from_step):
        cfg = write_config(tmp_path, text)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        scan = model_class.pool_local_norms

        def shrunk(self, state):
            norms, residual = scan(self, state)
            if state.steps >= from_step:
                norms[np.argmax(norms)] *= 0.5
            return norms, residual

        monkeypatch.setattr(model_class, "pool_local_norms", shrunk)
        capsys.readouterr()
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "FAIL greedy compliance" in capsys.readouterr().out.splitlines()


def _reference_csv(header, columns):
    """The CSV text one cell at a time: the writer's format, spelled out."""
    rows = [",".join(v if isinstance(v, str) else cli_module._fmt(v) for v in row)
            for row in zip(*columns)]
    return "\n".join([",".join(header)] + rows) + "\n"


class TestCsvWriter:
    def test_blocks_match_the_cell_by_cell_text(self, tmp_path):
        rows = 2 * cli_module.CSV_BLOCK_ROWS + 1
        rng = np.random.default_rng(3)
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 301, rows)
        floats[:6] = [np.nan, np.inf, -np.inf, -0.0, 1e300, -1e-300]
        floats[-1] = np.nan
        ints = rng.integers(-2 ** 62, 2 ** 62, rows, dtype=np.int64)
        ints[:2] = [-1, 0]
        strings = ["" if k % 3 else cli_module._fmt(v) for k, v in enumerate(floats)]
        header = ["m", "index", "value", "text"]
        columns = [np.arange(rows), ints, floats, strings]
        path = tmp_path / "t.csv"
        cli_module._write_csv(path, header, columns)
        assert path.read_text() == _reference_csv(header, columns)

    def test_peak_memory_is_a_few_blocks(self, tmp_path):
        # seven trace columns of 1e5 rows; the text alone is about 11 MiB
        rows = 100_000
        rng = np.random.default_rng(0)
        columns = [np.arange(rows), rng.integers(0, 50, rows)]
        columns += [rng.standard_normal(rows) for _ in range(5)]
        tracemalloc.start()
        try:
            cli_module._write_csv(tmp_path / "t.csv", list("abcdefg"), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


class TestOmegaOptimalityCheck:
    def test_relaxation_off_the_optimal_omega_fails(self, tmp_path, capsys, monkeypatch):
        parameters = solver_module.Relaxation.parameters

        def overshoot(self, model, state, res, m):
            alpha, omega = parameters(self, model, state, res, m)
            return alpha, 1.5 * omega

        monkeypatch.setattr(solver_module.Relaxation, "parameters", overshoot)
        cfg = write_config(tmp_path, DIAG_GREEDY)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "FAIL omega optimality" in capsys.readouterr().out.splitlines()


class TestNonFiniteAndHugeInput:
    @pytest.mark.parametrize("old, new, path", [
        ("[0.5, 0.25, 0.125]", "[0.5, .nan, 0.125]", "problem.coefficients[1]"),
        ("[0.5, 0.25, 0.125]", "[0.5, 0.25, .inf]", "problem.coefficients[2]"),
        ("[0.5, 0.25, 0.125]", "{1: 0.5, 4: -.inf}", "problem.coefficients.4"),
        ("beta: 1.0", "beta: .nan", "selection.beta"),
    ])
    def test_non_finite_greedy_config_exits_two(self, tmp_path, capsys, old, new, path):
        cfg = write_config(tmp_path, DIAG_GREEDY.replace(old, new))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: expected a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family, path", [
        ("kind: explicit\n    probs: [0.5, .nan, 0.5]", "selection.family.probs"),
        ("kind: power_law\n    s: .inf", "selection.family.s"),
        ("kind: power_law\n    s: 0.5\n  truncation:\n    D: .nan", "selection.truncation.D"),
    ])
    def test_non_finite_distribution_exits_two(self, tmp_path, capsys, family, path):
        text = ORACLE_EXPECT.replace(
            "kind: explicit\n    probs: [0.5, 0.4, 0.1]", family)
        assert family in text
        cfg = write_config(tmp_path, text)
        assert main(["expect", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}:" in err and "finite" in err

    @pytest.mark.parametrize("command, text", [
        ("run", DIAG_GREEDY),
        ("expect", ORACLE_EXPECT.replace("relaxation: pure", "relaxation: gawr")),
    ], ids=["run", "expect"])
    def test_unallocatable_step_count_exits_two(self, tmp_path, command, text):
        """8e13 bytes per step-indexed array: numpy refuses the allocation
        outright.  The child runs under a 1 GiB address-space limit, so a
        per-step table built before that allocation fails fast instead of
        taking the machine's memory."""
        cfg = write_config(tmp_path, re.sub(r"steps: \d+", "steps: 10000000000000", text))
        argv = [command, "--config", cfg, "--out", str(tmp_path)]
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                f"from mschwarz.cli import main\nsys.exit(main({argv!r}))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"{command}: out of memory: Unable to allocate")
        assert "Traceback" not in proc.stderr

    def test_overflowing_coefficients_exit_two(self, tmp_path, capsys):
        # every r ** 2 of a step stays finite when the sum of squares does
        text = ORACLE_EXPECT.replace("[0.6, 0.3, 0.1]", "{1: 1.0e+300, 3: 0.25}")
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "run: coefficients are too large: their sum of squares overflows\n")

    @pytest.mark.parametrize("command", ["run", "bounds"])
    def test_overflowing_bound_constant_is_inf(self, tmp_path, command):
        cfg = write_config(tmp_path, DIAG_GREEDY.replace("beta: 1.0", "beta: 1.0e-300"))
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        csv_name = "trace.csv" if command == "run" else "bounds.csv"
        (bound,) = read_columns(tmp_path / csv_name, "greedy_bound")
        assert np.all(bound == np.inf)

    def test_summary_is_strict_json_when_pi_misses_a_coefficient(self, tmp_path):
        text = ORACLE_EXPECT.replace("[0.6, 0.3, 0.1]", "[1.0, 0.5]").replace(
            "[0.5, 0.4, 0.1]", "[1.0, 0.0]") + "bounds: true\n"
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=lambda name: pytest.fail(f"{name} in summary.json"))
        assert summary["a_norms"]["ainf_pi"] is None
        (bound,) = read_columns(tmp_path / "trace.csv", "random_bound")
        assert np.all(bound == np.inf)


# the path of each choice key: (a config that sets it, the line that does)
CHOICES = {
    "problem.kind": (DIAG_GREEDY, "kind: diagonal"),
    "selection.kind": (DIAG_GREEDY, "kind: greedy"),
    "selection.pool": (DIAG_GREEDY, "pool: support_union"),
    "relaxation": (DIAG_GREEDY, "relaxation: gawr"),
    "selection.family.kind": (ORACLE_EXPECT, "kind: explicit"),
    "problem.splitting.kind": (TWO_LEVEL_TINY, "kind: two_level"),
}


class TestConfigValuesOfAnyType:
    """A list or mapping where the config wants a string, and a null
    truncation, are config errors: exit 2 with one line, no traceback."""

    @pytest.mark.parametrize("value", ["[gawr]", "{a: 1}"])
    @pytest.mark.parametrize("path", sorted(CHOICES))
    def test_list_or_mapping_for_a_choice(self, tmp_path, capsys, path, value):
        text, line = CHOICES[path]
        key = line.split(":")[0]
        cfg = write_config(tmp_path, text.replace(line, f"{key}: {value}", 1))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: must be one of ")
        assert len(err.splitlines()) == 1

    def test_null_truncation_on_a_poisson_splitting(self, tmp_path, capsys):
        text = POISSON_UNIFORM_RUN.replace("kind: uniform", "kind: uniform\n  truncation: null")
        assert "truncation: null" in text
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: selection.truncation: expected a mapping, got NoneType\n")
