"""Run one `mschwarz` CLI command in this fresh interpreter and report on it.

    python3 perfbench/child.py REPORT TRACED CLI-ARGS...

This is what ``python -m mschwarz.cli CLI-ARGS...`` does, with one wrapper
around the iteration call (``run`` or ``mc_expected_error`` as the CLI looks
it up) that times it. With TRACED = 1 it also wraps the public functions of
every package module listed in TARGETS and records one span per call: name,
start, end, parent span and, for truncations, the cutoff built. Spans stay in
memory; the JSON REPORT is written when the command returns. The exit code
is the CLI's.
"""

import functools
import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (span name, module, attribute). Each callable is patched where its caller
# looks it up: the modules import names with `from .x import y`, so e.g. the
# CLI's `run` is `mschwarz.cli.run`, while the pool scan calls
# `mschwarz.problems.local_solve`. The layer is the part before the first dot.
TARGETS = [
    ("cli.main", "mschwarz.cli", "main"),
    ("config.parse_config", "mschwarz.cli", "parse_config"),
    ("config.build_model", "mschwarz.config", "ExperimentConfig.build_model"),
    ("config.build_selection", "mschwarz.config", "ExperimentConfig.build_selection"),
    ("config.build_distribution", "mschwarz.config", "ExperimentConfig.build_distribution"),
    ("poisson.make_poisson_1d", "mschwarz.config", "make_poisson_1d"),
    ("problems.Problem.init", "mschwarz.problems", "Problem.__init__"),
    ("problems.SplittingComponent.init", "mschwarz.problems", "SplittingComponent.__init__"),
    ("problems.FiniteSplitting.init", "mschwarz.problems", "FiniteSplitting.__init__"),
    ("problems.stability_constants", "mschwarz.cli", "stability_constants"),
    ("problems.uniform_bound_lambda", "mschwarz.cli", "uniform_bound_lambda"),
    ("problems.representation_block_norms", "mschwarz.cli", "representation_block_norms"),
    ("problems.local_solve", "mschwarz.problems", "local_solve"),
    ("problems.model.pool_local_norms", "mschwarz.problems", "MatrixSchwarzModel.pool_local_norms"),
    ("problems.model.local_residual", "mschwarz.problems", "MatrixSchwarzModel.local_residual"),
    ("problems.model.dir_energy_sq", "mschwarz.problems", "MatrixSchwarzModel.dir_energy_sq"),
    ("problems.model.apply_update", "mschwarz.problems", "MatrixSchwarzModel.apply_update"),
    ("problems.model.error", "mschwarz.problems", "MatrixSchwarzModel.error"),
    ("solver.run", "mschwarz.cli", "run"),
    ("solver.select_greedy", "mschwarz.solver", "select_greedy"),
    ("solver.parameters", "mschwarz.solver", "Relaxation.parameters"),
    ("diagonal.ainfty_pi_norm", "mschwarz.cli", "ainfty_pi_norm"),
    ("distributions.truncate_distribution", "mschwarz.distributions", "truncate_distribution"),
    ("distributions.sample_from_uniform", "mschwarz.distributions",
     "ExplicitDistribution.sample_from_uniform"),
    ("analysis.mc_expected_error", "mschwarz.cli", "mc_expected_error"),
    ("analysis.greedy_bound", "mschwarz.cli", "greedy_bound"),
    ("analysis.random_bound", "mschwarz.cli", "random_bound"),
]

# Values recorded on a span from the call's result.
OBSERVE = {"distributions.truncate_distribution": lambda dist: dist.n}

ITERATION_CALLS = ("run", "mc_expected_error")


def _patch(module, attribute, make_wrapper):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, name, make_wrapper(getattr(owner, name)))


class Tracer:
    """Spans [name, start, end, parent index, observed value], in call order."""

    def __init__(self):
        self.spans = []
        self.errors = 0
        self._stack = []

    def wrap(self, name, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span[4] = observe(result)
            return result

        return traced

    def install(self):
        for name, module, attribute in TARGETS:
            _patch(module, attribute, functools.partial(self.wrap, name))


def main():
    report_path, traced, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    import mschwarz.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"child: imported mschwarz from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    iteration = []

    def timed(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                iteration.append(time.perf_counter() - start)

        return call

    tracer = Tracer()
    if traced:
        tracer.install()
    else:
        for name in ITERATION_CALLS:
            _patch("mschwarz.cli", name, timed)
    try:
        return cli.main(argv)
    finally:
        report = {
            "iteration_s": iteration[0] if iteration else None,
            "spans": tracer.spans if traced else None,
            "errors": tracer.errors,
        }
        report_path.write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
