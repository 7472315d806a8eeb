"""A config fuzzer: every one-mutation variant of four small valid configs
through all five subcommands (generate-and-mutate after Claessen and Hughes,
"QuickCheck", ICFP 2000).

A mutation deletes a key, sets it to one of ``VALUES`` (or, for an output
name, of ``PATHS``), switches a kind to another one of the kinds ``_SCHEMA``
lists, adds an unknown key, or writes a key twice in its mapping.  Whatever
the config, ``main`` returns 0, 1 or 2 without raising, exit 2 comes with a
message on stderr and no traceback, a repeated key exits 2 with "duplicated
key", no file is reported written twice, and every summary it writes is
strict JSON.  The bases are small (n <= 31, steps and trials <= 20) and
``VALUES`` holds no valid value that costs work, so the whole sweep takes a
few seconds.
"""

import contextlib
import copy
import functools
import json
import math
import resource
import shutil

import yaml

import mschwarz.cli as cli_module
from mschwarz.cli import main
from mschwarz.config import _SCHEMA

BASES = {
    "diagonal-greedy": {
        "problem": {"kind": "diagonal", "coefficients": [0.5, 0.25, 0.125]},
        "selection": {"kind": "greedy", "beta": 1.0, "pool": "support_union"},
        "relaxation": "gawr", "steps": 20, "trials": 2, "seed": 7, "bounds": True,
        "rate_fit": {"lo": 2, "hi": 10},
    },
    "diagonal-random-truncated": {
        "problem": {"kind": "diagonal", "coefficients": {1: 0.5, 3: 0.25}},
        "selection": {"kind": "random", "family": {"kind": "power_law", "s": 2.0},
                      "truncation": {"D": 1.0}},
        "relaxation": "gawr", "steps": 20, "trials": 3, "seed": 1, "bounds": True,
    },
    "poisson-two-level-random": {
        "problem": {"kind": "poisson_1d", "n": 31,
                    "splitting": {"kind": "two_level", "block_size": 8, "overlap": 2,
                                  "coarse_stride": 4}},
        "selection": {"kind": "random", "family": {"kind": "uniform"}},
        "relaxation": "pure", "steps": 10, "trials": 2, "seed": 3, "bounds": True,
    },
    "sequence": {
        "problem": {"kind": "diagonal", "coefficients": [1.0, 0.5]},
        "selection": {"kind": "sequence", "sequence": [1, 2, 1]},
        "relaxation": "two_param", "steps": 6, "seed": 0,
        "outputs": {"trace": "t.csv", "summary": "s.json"},
    },
}

# Wrong types, null, negative, fractional, non-finite and huge numbers, lists
# and mappings.
VALUES = [None, True, "x", -1, 0, 3, -0.5, 0.5, 1.5, 1e-300, 1e300, 2 ** 70,
          math.inf, -math.inf, math.nan, [], [1, 2], ["x"], {}, {"x": 1}, {1: 0.5}]
# Valid values that cost work, left out for their keys: ``expect`` with 2 ** 70
# trials never ends.
COSTLY = {"trials": [2 ** 70]}
# Output names that break writing: ``--out`` itself, a file in a missing
# directory, and the ``sequence`` base's summary name (one file for both as
# its trace).
PATHS = ["", "missing/x.csv", "s.json"]

COMMANDS = ["run", "expect", "bounds", "rate", "check"]


class _Twice:
    """A mapping key that ``dump`` writes twice, with equal values."""

    def __init__(self, key):
        self.key = key


def _represent_dict(dumper, mapping):
    if not any(isinstance(key, _Twice) for key in mapping):
        return dumper.represent_dict(mapping)
    pairs = []
    for key, value in mapping.items():
        if isinstance(key, _Twice):
            # a copy, so that the second value is not written as an alias
            pairs += [(key.key, value), (key.key, copy.deepcopy(value))]
        else:
            pairs.append((key, value))
    return dumper.represent_mapping("tag:yaml.org,2002:map", pairs)


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(dict, _represent_dict)


def dump(data):
    """``yaml.safe_dump(data)``, with every ``_Twice`` key written twice."""
    return yaml.dump(data, Dumper=_Dumper)


def _sections(node, schema, path=()):
    """(path, mapping, its schema or None) for every mapping in ``node``."""
    yield path, node, schema
    rules = {}
    if schema is not None:
        kind = node.get("kind")
        own = schema["kind"].get(kind, {}) if isinstance(kind, str) and "kind" in schema else {}
        rules = {key.rstrip("?"): rule for key, rule in {**schema, **own}.items()}
    for key, value in node.items():
        if isinstance(value, dict):
            sub = rules.get(key)
            yield from _sections(value, sub if isinstance(sub, dict) else None, path + (key,))


def _mutations(base):
    """(label, config) for every one-mutation variant of ``base``."""
    for path, node, schema in list(_sections(base, _SCHEMA)):
        where = ".".join(map(str, path))

        def variant(change):
            data = copy.deepcopy(base)
            target = data
            for key in path:
                target = target[key]
            change(target)
            return data

        for key in node:
            yield f"delete {where}.{key}", variant(lambda m, k=key: m.pop(k))
            for value in VALUES + (PATHS if path == ("outputs",) else []):
                if value in COSTLY.get(key, ()):
                    continue
                yield (f"{where}.{key} = {value!r}",
                       variant(lambda m, k=key, v=value: m.__setitem__(k, copy.deepcopy(v))))
            yield f"repeat {where}.{key}", variant(lambda m, k=key: m.__setitem__(_Twice(k),
                                                                                  m.pop(k)))
        if schema is not None and "kind" in schema:
            for kind in sorted(schema["kind"]):
                if kind != node.get("kind"):
                    yield (f"{where}.kind -> {kind}",
                           variant(lambda m, v=kind: m.__setitem__("kind", v)))
        yield f"unknown key in {where}", variant(lambda m: m.__setitem__("unknown_key", 1))


CASES = [(name, label, data) for name, base in BASES.items() for label, data in _mutations(base)]


@contextlib.contextmanager
def address_space_headroom(nbytes):
    """Lower this process's soft address-space limit to its current size
    plus ``nbytes`` while the block runs, so that a run which grows a table
    with its step count fails with MemoryError instead of taking the
    machine's memory.  Without /proc (not Linux) the block runs unlimited."""
    try:
        with open("/proc/self/status") as fh:
            size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    except OSError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = size + nbytes if hard == resource.RLIM_INFINITY else min(size + nbytes, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_bases_run_cleanly(tmp_path, capsys):
    """Every base runs every subcommand, but for the two a sequence config
    has no use for: ``expect`` (one trial) and ``bounds`` (no bound)."""
    for name, base in BASES.items():
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump(base))
        for command in COMMANDS:
            code = main([command, "--config", str(cfg), "--out", str(tmp_path / name)])
            refused = name == "sequence" and command in ("expect", "bounds")
            assert code == (2 if refused else 0), (name, command, capsys.readouterr().err)


def test_every_one_mutation_config(tmp_path, capsys, monkeypatch):
    # one argument parser for the whole sweep: building it is most of the
    # time of a run that stops at the config
    monkeypatch.setattr(cli_module, "_parser", functools.lru_cache(cli_module._parser))
    cfg = tmp_path / "config.yaml"
    out = tmp_path / "out"
    failures = []
    with address_space_headroom(2 << 30):
        for name, label, data in CASES:
            cfg.write_text(dump(data))
            outputs = data.get("outputs")
            summary = outputs.get("summary") if isinstance(outputs, dict) else None
            summary = out / (summary if isinstance(summary, str) else "summary.json")
            for command in COMMANDS:
                case = f"{name}: {label}: {command}"
                shutil.rmtree(out, ignore_errors=True)
                try:
                    code = main([command, "--config", str(cfg), "--out", str(out)])
                except Exception as exc:  # nothing may escape main
                    failures.append(f"{case}: raised {type(exc).__name__}: {exc}")
                    capsys.readouterr()
                    continue
                captured = capsys.readouterr()
                err = captured.err
                wrote = [line for line in captured.out.splitlines() if line.startswith("wrote ")]
                if len(set(wrote)) < len(wrote):
                    failures.append(f"{case}: one file written twice: {wrote}")
                if code not in (0, 1, 2):
                    failures.append(f"{case}: exit {code}")
                if label.startswith("repeat ") and (code != 2 or "duplicated key" not in err):
                    failures.append(f"{case}: exit {code} with stderr {err!r}")
                if code == 2 and (not err.strip() or "Traceback" in err
                                  or any(line.rstrip().endswith(":") for line in err.splitlines())):
                    failures.append(f"{case}: exit 2 with stderr {err!r}")
                if summary.is_file():
                    try:
                        json.loads(summary.read_text(), parse_constant=_refuse_constant)
                    except ValueError as exc:
                        failures.append(f"{case}: summary is not strict JSON: {exc}")
    assert not failures, f"{len(failures)} of {len(CASES)} cases:\n" + "\n".join(failures[:20])
