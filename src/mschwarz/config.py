"""Declarative experiment configuration: strict YAML parsing and builders.

The config is a single YAML tree with nested sections for the problem, the
selection rule, the relaxation variant and outputs, described by the one
table ``_SCHEMA``.  Unknown keys are errors, every violation is reported with
its path, and serialize/parse round-trips to an equal config.  A key given
twice in one mapping is an error too (YAML loaders otherwise keep the last
value silently).
"""

import io
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .diagonal import DiagonalModel
from .distributions import (
    ExplicitDistribution,
    LogFamilyDistribution,
    PowerLawDistribution,
    TruncatedSchedule,
    truncation_cutoff,
    uniform_distribution,
)
from .poisson import MAX_GRID, make_poisson_1d
from .problems import MatrixSchwarzModel
from .solver import (
    DeterministicRule,
    FixedPool,
    GAWRRelaxation,
    GreedyRule,
    GrowingPool,
    PureRelaxation,
    RandomRule,
    TwoParamRelaxation,
    cyclic_rule,
)

MAX_SEED = 2 ** 64 - 1


class ConfigError(ValueError):
    """Validation failure(s); ``errors`` lists "path: message" strings."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _join(path, key):
    """The path of ``key`` under ``path`` ("" is the root)."""
    return f"{path}.{key}" if path else str(key)


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``data`` is the normalized tree."""

    data: dict

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and self.data == other.data

    # -- builders -----------------------------------------------------------

    def build_model(self):
        prob = self.data["problem"]
        if prob["kind"] == "diagonal":
            return DiagonalModel(prob["coefficients"])
        problem, splitting = make_poisson_1d(prob["n"], prob["splitting"])
        return MatrixSchwarzModel(problem, splitting)

    def build_distribution(self, model):
        fam = self.data["selection"]["family"]
        kind = fam["kind"]
        if kind == "explicit":
            base = ExplicitDistribution(fam["probs"])
        elif kind == "uniform":
            n = fam.get("n")
            if n is None:
                n = model.component_count()
                if n is None:
                    raise ConfigError(["selection.family.n: required for uniform on a lazy model"])
            base = uniform_distribution(n)
        elif kind == "power_law":
            base = PowerLawDistribution(fam["s"])
        else:
            base = LogFamilyDistribution()
        trunc = self.data["selection"].get("truncation")
        if trunc is not None:
            return TruncatedSchedule(base, trunc["D"]), base
        return base, base

    def build_selection(self, model):
        sel = self.data["selection"]
        n = model.component_count()
        pool = GrowingPool() if sel.get("pool") == "growing" else FixedPool()
        refused = self._refusal(model, n, pool)
        if refused:
            raise ConfigError([refused + (f"; the splitting has components 1..{n}" if n else "")])
        if sel["kind"] == "cyclic":
            return cyclic_rule(n)
        if sel["kind"] == "sequence":
            return DeterministicRule(sel["sequence"])
        if sel["kind"] == "greedy":
            return GreedyRule(sel["beta"], pool)
        return RandomRule(self.build_distribution(model)[0])

    def _refusal(self, model, n, pool):
        """The "path: message" of a selection ``model`` cannot run, else None.
        On n components a sequence entry or a family with mass past n is
        refused whatever ``steps`` is, a truncation by its last cutoff
        N_{steps-1}: so no run's outcome depends on its seed."""
        sel, steps = self.data["selection"], self.data["steps"]
        kind = sel["kind"]
        if kind == "greedy":
            if sel.get("pool") == "support_union" and not isinstance(model, DiagonalModel):
                return "selection.pool: support pools are only available on the diagonal model"
            try:
                pool.size(model, 0)  # a growing pool refuses a lazy model
            except ValueError as exc:
                return f"selection.pool: {exc}"
        if n is None:
            if kind == "cyclic":
                return "selection.kind: cyclic needs a finite splitting"
            if sel.get("pool") == "fixed":
                return "selection.pool: lazy splittings support only support_union pools"
            return None
        if kind == "sequence" and max(sel["sequence"]) > n:
            return f"selection.sequence: picks component {max(sel['sequence'])}"
        if kind != "random":
            return None
        _, base = self.build_distribution(model)  # a base of its own: the check grows its table
        if "truncation" in sel:
            try:
                cut = steps and truncation_cutoff(base, steps - 1, sel["truncation"]["D"], past=n)
            except ValueError:  # past the table limit, so past any splitting
                cut = math.inf
            if cut > n:
                return f"selection.truncation: the cutoff N_{steps - 1} exceeds {n}"
        elif base.support_bound() is None:
            return f"selection.family: an untruncated series puts mass past {n}"
        elif np.flatnonzero(base.probs)[-1] >= n:
            return f"selection.family: puts mass on component {np.flatnonzero(base.probs)[-1] + 1}"
        return None

    def build_relaxation(self):
        return {
            "gawr": GAWRRelaxation,
            "pure": PureRelaxation,
            "two_param": TwoParamRelaxation,
        }[self.data["relaxation"]]()


def _is_finite_number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


# -- the schema ----------------------------------------------------------------
#
# A check is a function of a key's value that returns None when the value is
# valid, else its error message, or a list of (path suffix, message) pairs for
# errors of single entries.

def _number(lo=None, hi=None, integer=False, lo_open=False):
    """The check of a finite number (an integer if ``integer``) that is >=
    ``lo`` (> ``lo`` if ``lo_open``) and <= ``hi``."""
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return f"expected a number, got {v!r}"
        if integer and not isinstance(v, int):
            return f"expected an integer, got {v!r}"
        if not _is_finite_number(v):
            return f"expected a finite number, got {v!r}"
        if lo is not None and (v <= lo if lo_open else v < lo):
            return f"must be {'>' if lo_open else '>='} {lo}, got {v}"
        if hi is not None and v > hi:
            return f"must be <= {hi}, got {v}"
        return None
    return check


def _choice(*options):
    """The check of one of the strings ``options``."""
    return lambda v: (None if isinstance(v, str) and v in options
                      else f"must be one of {sorted(options)}, got {v!r}")


def _coefficients(v):
    if isinstance(v, dict):
        return [(f".{i}", "indices must be integers >= 1" if not isinstance(i, int) or i < 1
                 else f"expected a finite number, got {x!r}")
                for i, x in v.items()
                if not isinstance(i, int) or i < 1 or not _is_finite_number(x)]
    if isinstance(v, list):
        return [(f"[{k}]", f"expected a finite number, got {x!r}")
                for k, x in enumerate(v) if not _is_finite_number(x)]
    return "expected a list or an index mapping"


def _sequence(v):
    ints = isinstance(v, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in v)
    return None if ints and v and min(v) >= 1 else "expected a nonempty list of indices >= 1"


def _probs(v):
    if not isinstance(v, list) or not v:
        return "expected a nonempty list of probabilities"
    bad = [p for p in v if not _is_finite_number(p) or p < 0]
    if bad:
        return f"entries must be finite numbers >= 0, got {bad[0]!r}"
    if abs(sum(v) - 1.0) > 1e-12:
        return f"must sum to 1, got {sum(v)!r}"
    return None


_COUNT = _number(lo=0, integer=True)
_POSITIVE = _number(lo=0, lo_open=True)


def _beta(v):
    return _POSITIVE(v) or (f"must lie in (0, 1], got {v}" if v > 1.0 else None)


def _path(v):
    return None if isinstance(v, str) else f"expected a path string, got {v!r}"


def _flag(v):
    return None if isinstance(v, bool) else f"expected true/false, got {v!r}"


# Each key maps to its check or, for a nested mapping, to that mapping's
# schema; a key ending in "?" may be left out.  Under "kind" each kind maps to
# the keys that only a mapping of that kind takes.
_SCHEMA = {
    "problem": {
        "kind": {
            "diagonal": {"coefficients": _coefficients},
            "poisson_1d": {
                "n": _number(lo=1, hi=MAX_GRID, integer=True),
                "splitting": {
                    "kind": {
                        "overlapping_blocks": {},
                        "two_level": {"coarse_stride": _number(lo=1, integer=True)},
                    },
                    "block_size": _number(lo=1, integer=True),
                    "overlap?": _COUNT,
                },
            },
        },
    },
    "selection": {
        "kind": {
            "cyclic": {},
            "sequence": {"sequence": _sequence},
            "greedy": {"beta": _beta, "pool?": _choice("fixed", "support_union", "growing")},
            "random": {
                "family": {
                    "kind": {
                        "explicit": {"probs": _probs},
                        "uniform": {"n?": _number(lo=1, integer=True)},
                        "power_law": {"s": _POSITIVE},
                        "log": {},
                    },
                },
                "truncation?": {"D": _POSITIVE},
            },
        },
    },
    "relaxation": _choice("gawr", "pure", "two_param"),
    "steps": _COUNT,
    "trials?": _number(lo=1, integer=True),
    "seed": _number(lo=0, hi=MAX_SEED, integer=True),
    "outputs?": {"trace?": _path, "summary?": _path},
    "bounds?": _flag,
    "rate_fit?": {"lo": _COUNT, "hi": _COUNT},
}


def _walk(schema, node, path, errors):
    """Append to ``errors`` the "path: message" of each way the mapping
    ``node`` at ``path`` breaks ``schema``.

    A key of another kind is reported only under a valid kind, and no
    kind-only key is checked under an invalid or missing one.
    """
    if not isinstance(node, dict):
        errors.append(f"{path or '<root>'}: expected a mapping, got {type(node).__name__}")
        return
    kinds = schema.get("kind", {})
    kind = node.get("kind")
    valid = isinstance(kind, str) and kind in kinds
    rules = {key.rstrip("?"): (rule, key.endswith("?"))
             for key, rule in {**schema, **(kinds[kind] if valid else {})}.items()}
    kind_only = {key.rstrip("?") for keys in kinds.values() for key in keys}
    for key in node:
        if key not in rules and key not in kind_only:
            errors.append(f"{_join(path, key)}: unknown key")
        elif key not in rules and valid:
            errors.append(f"{_join(path, key)}: not valid for kind {kind!r}")
    for key, (rule, optional) in rules.items():
        where = _join(path, key)
        if key not in node:
            if not optional:
                errors.append(f"{where}: missing required key")
        elif isinstance(rule, dict) and key != "kind":
            _walk(rule, node[key], where, errors)
        else:
            found = (_choice(*kinds) if key == "kind" else rule)(node[key])
            for sub, message in [("", found)] if isinstance(found, str) else found or ():
                errors.append(f"{where}{sub}: {message}")


def _safe_load(text):
    """``yaml.safe_load(text)`` plus the "path: duplicated key" errors of
    every mapping key that equals an earlier key of the same mapping.

    This is safe_load's own sequence (compose the node tree, then construct
    it) with a walk over the composed tree in between, so the parse is the
    same and equal keys are compared as the constructed values (1 and 1.0
    are one key).  It parses with libyaml (``CSafeLoader``, the same
    constructor and resolver) when PyYAML has it: the 200-coefficient
    ``diagonal_expect`` config parses in 1.1 ms instead of 8.3 ms.  Text that
    libyaml rejects is parsed again with the pure-Python ``SafeLoader``,
    whose result or error stands, so every error message is that loader's.
    """
    if yaml.__with_libyaml__:
        try:
            return _load(yaml.CSafeLoader, text)
        except yaml.YAMLError:
            pass
    return _load(yaml.SafeLoader, text)


def _load(loader_class, text):
    """The (document, duplicated-key errors) of ``text`` under ``loader_class``."""
    loader = loader_class(io.StringIO(text))
    try:
        node = loader.get_single_node()
        if node is None:
            return None, []
        duplicates = []
        _find_duplicate_keys(loader, node, "", duplicates, set())
        return loader.construct_document(node), duplicates
    finally:
        loader.dispose()


def _find_duplicate_keys(loader, node, path, out, seen):
    if id(node) in seen:  # an alias of a node already walked
        return
    seen.add(id(node))
    if isinstance(node, yaml.SequenceNode):
        for k, item in enumerate(node.value):
            _find_duplicate_keys(loader, item, f"{path}[{k}]", out, seen)
    elif isinstance(node, yaml.MappingNode):
        keys = set()
        for key_node, value_node in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # merged keys may be overridden by design
            key = loader.construct_object(key_node, deep=True)
            sub = _join(path, key)
            try:
                if key in keys:
                    out.append(f"{sub}: duplicated key")
                keys.add(key)
            except TypeError:  # unhashable; construction reports it
                continue
            _find_duplicate_keys(loader, value_node, sub, out, seen)


def parse_config(text):
    """Parse and validate a YAML experiment config.

    Raises :class:`ConfigError` listing every violation with its path.
    """
    try:
        raw, duplicates = _safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"<yaml>: {exc}"]) from exc
    if duplicates:
        raise ConfigError(duplicates)
    errors = []
    _walk(_SCHEMA, raw, "", errors)
    fit = raw.get("rate_fit") if isinstance(raw, dict) else None
    lo, hi = (fit.get("lo"), fit.get("hi")) if isinstance(fit, dict) else (None, None)
    if not (_COUNT(lo) or _COUNT(hi)) and hi < lo:
        errors.append(f"rate_fit.hi: must be >= rate_fit.lo, got {hi} < {lo}")
    if errors:
        raise ConfigError(errors)
    data = dict(raw)
    data.setdefault("trials", 1)
    data.setdefault("bounds", False)
    return ExperimentConfig(data)


def serialize(config):
    """Canonical YAML text for a config; parse(serialize(c)) == c.

    The text of ``yaml.safe_dump``, written by libyaml (``CSafeDumper``, the
    same representer and resolver) when PyYAML has it, as ``_safe_load``
    reads: ``diagonal_expect``'s config dumps in 1.6 ms instead of 7.8 ms.
    """
    dumper = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper
    return yaml.dump(config.data, Dumper=dumper, sort_keys=True, default_flow_style=False)
