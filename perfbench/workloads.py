"""The benchmark's workloads and the seeded generation of their configs.

Each workload is one `mschwarz` CLI experiment. The benchmark generates its
YAML config from the workload seed and writes it to a file, so the library
only ever sees the generated file. The seed goes into the config ``seed``,
which draws the random picks of ``poisson_random`` and the Monte Carlo
trials of ``diagonal_expect``. ``poisson_greedy`` has no randomness: greedy selection draws nothing, so its
trace is the same for every seed and only the sidecar's ``seed`` and
``config_hash`` change.

Stored reference outputs exist for ``DEFAULT_SEED`` only. ``HELD_OUT_SEED``
is the seed kept back for checking a change on inputs it was not written
against; on it, and on every other seed, only the intrinsic checks apply.
"""

from dataclasses import dataclass

import yaml

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# The measured sizes ("full") and the sizes the self-test runs ("tiny"). The
# step and trial counts are small enough that several fresh-process samples
# fit into one run.
SIZES = {
    "full": {
        "poisson_n": 1024,
        "poisson_greedy_steps": 400,
        "poisson_random_steps": 1000,
        "expect_d": 200,
        "expect_steps": 400,
        "expect_trials": 2000,
    },
    "tiny": {
        "poisson_n": 128,
        "poisson_greedy_steps": 20,
        "poisson_random_steps": 20,
        "expect_d": 20,
        "expect_steps": 30,
        "expect_trials": 50,
    },
}

POISSON_SPLITTING = {
    "kind": "two_level",
    "coarse_stride": 32,
    "block_size": 64,
    "overlap": 16,
}


def _poisson(seed, size, selection, steps_key):
    return {
        "problem": {
            "kind": "poisson_1d",
            "n": size["poisson_n"],
            "splitting": dict(POISSON_SPLITTING),
        },
        "selection": selection,
        "relaxation": "gawr",
        "steps": size[steps_key],
        "seed": seed,
        "bounds": True,
    }


def poisson_greedy(seed, size):
    selection = {"kind": "greedy", "beta": 1.0, "pool": "fixed"}
    return _poisson(seed, size, selection, "poisson_greedy_steps")


def poisson_random(seed, size):
    selection = {"kind": "random", "family": {"kind": "uniform"}}
    return _poisson(seed, size, selection, "poisson_random_steps")


def diagonal_expect(seed, size):
    coefficients = [i ** -1.5 for i in range(1, size["expect_d"] + 1)]
    return {
        "problem": {"kind": "diagonal", "coefficients": coefficients},
        "selection": {
            "kind": "random",
            "family": {"kind": "power_law", "s": 0.5},
            "truncation": {"D": 1.0},
        },
        "relaxation": "gawr",
        "steps": size["expect_steps"],
        "trials": size["expect_trials"],
        "seed": seed,
        "bounds": True,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    assert_bounds: bool
    make: object  # (seed, size) -> config dict

    def config(self, seed, size="full", steps=None):
        """The config dict for ``seed``; ``steps`` overrides the step count."""
        data = self.make(seed, SIZES[size])
        if steps is not None:
            data["steps"] = steps
        return data

    def argv(self, config_path, out_dir):
        """The CLI arguments a user would pass for this workload."""
        args = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        return args + ["--assert-bounds"] if self.assert_bounds else args

    @property
    def output_files(self):
        return ("trace.csv" if self.command == "run" else "expect.csv", "summary.json")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poisson_greedy", "run", True, poisson_greedy),
        Workload("poisson_random", "run", False, poisson_random),
        Workload("diagonal_expect", "expect", True, diagonal_expect),
    )
}


def config_text(data):
    """The YAML text the benchmark writes for a config dict."""
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)
