"""Declarative experiment configuration: strict YAML parsing and builders.

The config is a single YAML tree with nested sections for the problem, the
selection rule, the relaxation variant and outputs.  Unknown keys are errors,
every violation is reported with its path, and serialize/parse round-trips to
an equal config.  A key given twice in one mapping is an error too (YAML
loaders otherwise keep the last value silently).
"""

import io
import math
from dataclasses import dataclass, field

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


class _Checker:
    def __init__(self):
        self.errors = []

    def fail(self, path, message):
        self.errors.append(f"{path}: {message}")

    def require_keys(self, node, path, allowed, required=()):
        if not isinstance(node, dict):
            self.fail(path, f"expected a mapping, got {type(node).__name__}")
            return False
        ok = True
        for key in node:
            if key not in allowed:
                # recorded but not fatal: the known keys still get validated
                self.fail(_join(path, key), "unknown key")
        for key in required:
            if key not in node:
                self.fail(_join(path, key), "missing required key")
                ok = False
        return ok

    def number(self, node, path, key, lo=None, hi=None, integer=False, required=True, lo_open=False):
        where = _join(path, key)
        if key not in node:
            if required:
                self.fail(where, "missing required key")
            return None
        val = node[key]
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.fail(where, f"expected a number, got {val!r}")
            return None
        if integer and not isinstance(val, int):
            self.fail(where, f"expected an integer, got {val!r}")
            return None
        if not _is_finite_number(val):
            self.fail(where, f"expected a finite number, got {val!r}")
            return None
        if lo is not None and (val <= lo if lo_open else val < lo):
            cmp = ">" if lo_open else ">="
            self.fail(where, f"must be {cmp} {lo}, got {val}")
            return None
        if hi is not None and val > hi:
            self.fail(where, f"must be <= {hi}, got {val}")
            return None
        return val

    def choice(self, node, path, key, options, required=True):
        where = _join(path, key)
        if key not in node:
            if required:
                self.fail(where, f"missing required key (one of {sorted(options)})")
            return None
        val = node[key]
        if val not in options:
            self.fail(where, f"must be one of {sorted(options)}, got {val!r}")
            return None
        return val


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


_PROBLEM_KEYS = {"kind", "coefficients", "n", "splitting"}
_SPLITTING_KEYS = {"kind", "block_size", "overlap", "coarse_stride"}
_SELECTION_KEYS = {"kind", "sequence", "beta", "pool", "family", "truncation"}
_FAMILY_KEYS = {"kind", "probs", "s", "n"}
_TOP_KEYS = {
    "problem", "selection", "relaxation", "steps", "trials", "seed",
    "outputs", "bounds", "rate_fit",
}


def _is_finite_number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _validate_problem(ck, node):
    if not ck.require_keys(node, "problem", _PROBLEM_KEYS, required=("kind",)):
        return
    kind = ck.choice(node, "problem", "kind", {"diagonal", "poisson_1d"})
    if kind == "diagonal":
        for key in ("n", "splitting"):
            if key in node:
                ck.fail(f"problem.{key}", "not valid for diagonal problems")
        coeffs = node.get("coefficients")
        if coeffs is None:
            ck.fail("problem.coefficients", "missing required key")
        elif isinstance(coeffs, dict):
            for i, v in coeffs.items():
                if not isinstance(i, int) or i < 1:
                    ck.fail(f"problem.coefficients.{i}", "indices must be integers >= 1")
                elif not _is_finite_number(v):
                    ck.fail(f"problem.coefficients.{i}", f"expected a finite number, got {v!r}")
        elif isinstance(coeffs, list):
            for k, v in enumerate(coeffs):
                if not _is_finite_number(v):
                    ck.fail(f"problem.coefficients[{k}]", f"expected a finite number, got {v!r}")
        else:
            ck.fail("problem.coefficients", "expected a list or an index mapping")
    elif kind == "poisson_1d":
        if "coefficients" in node:
            ck.fail("problem.coefficients", "not valid for poisson_1d problems")
        ck.number(node, "problem", "n", lo=1, hi=MAX_GRID, integer=True)
        split = node.get("splitting")
        if split is None:
            ck.fail("problem.splitting", "missing required key")
        elif ck.require_keys(split, "problem.splitting", _SPLITTING_KEYS, required=("kind",)):
            skind = ck.choice(split, "problem.splitting", "kind",
                              {"overlapping_blocks", "two_level"})
            ck.number(split, "problem.splitting", "block_size", lo=1, integer=True)
            ck.number(split, "problem.splitting", "overlap", lo=0, integer=True, required=False)
            if skind == "two_level":
                ck.number(split, "problem.splitting", "coarse_stride", lo=1, integer=True)
            elif "coarse_stride" in split:
                ck.fail("problem.splitting.coarse_stride",
                        "only valid for two_level splittings")


def _validate_family(ck, node):
    if not ck.require_keys(node, "selection.family", _FAMILY_KEYS, required=("kind",)):
        return
    own_keys = {"explicit": {"probs"}, "uniform": {"n"}, "power_law": {"s"}, "log": set()}
    kind = ck.choice(node, "selection.family", "kind", set(own_keys))
    if kind is None:
        return  # no kind to check the other keys against
    if kind == "explicit":
        probs = node.get("probs")
        if not isinstance(probs, list) or not probs:
            ck.fail("selection.family.probs", "expected a nonempty list of probabilities")
        else:
            bad = [p for p in probs if not _is_finite_number(p) or p < 0]
            if bad:
                ck.fail("selection.family.probs",
                        f"entries must be finite numbers >= 0, got {bad[0]!r}")
            elif abs(sum(probs) - 1.0) > 1e-12:
                ck.fail("selection.family.probs", f"must sum to 1, got {sum(probs)!r}")
    elif kind == "uniform":
        ck.number(node, "selection.family", "n", lo=1, integer=True, required=False)
    elif kind == "power_law":
        ck.number(node, "selection.family", "s", lo=0, lo_open=True)
    for key in ("probs", "s", "n"):
        if key in node and key not in own_keys[kind]:
            ck.fail(f"selection.family.{key}", f"not valid for family kind {kind!r}")


def _validate_selection(ck, node):
    if not ck.require_keys(node, "selection", _SELECTION_KEYS, required=("kind",)):
        return
    kind = ck.choice(node, "selection", "kind", {"cyclic", "sequence", "greedy", "random"})
    if kind == "sequence":
        seq = node.get("sequence")
        if not isinstance(seq, list) or not seq or not all(
            isinstance(i, int) and not isinstance(i, bool) and i >= 1 for i in seq
        ):
            ck.fail("selection.sequence", "expected a nonempty list of indices >= 1")
    elif "sequence" in node:
        ck.fail("selection.sequence", "only valid for sequence selection")
    if kind == "greedy":
        beta = ck.number(node, "selection", "beta", lo=0, lo_open=True)
        if beta is not None and beta > 1.0:
            ck.fail("selection.beta", f"must lie in (0, 1], got {beta}")
        ck.choice(node, "selection", "pool", {"fixed", "support_union", "growing"},
                  required=False)
    else:
        for key in ("beta", "pool"):
            if key in node:
                ck.fail(f"selection.{key}", "only valid for greedy selection")
    if kind == "random":
        fam = node.get("family")
        if fam is None:
            ck.fail("selection.family", "missing required key")
        else:
            _validate_family(ck, fam)
        trunc = node.get("truncation")
        if trunc is not None and ck.require_keys(
            trunc, "selection.truncation", {"D"}, required=("D",)
        ):
            ck.number(trunc, "selection.truncation", "D", lo=0, lo_open=True)
    else:
        for key in ("family", "truncation"):
            if key in node:
                ck.fail(f"selection.{key}", "only valid for random selection")


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
    ck = _Checker()
    if not isinstance(raw, dict):
        raise ConfigError([f"<root>: expected a mapping, got {type(raw).__name__}"])
    ck.require_keys(raw, "", _TOP_KEYS,
                    required=("problem", "selection", "relaxation", "steps", "seed"))
    if "problem" in raw:
        _validate_problem(ck, raw["problem"])
    if "selection" in raw:
        _validate_selection(ck, raw["selection"])
    if "relaxation" in raw and raw["relaxation"] not in {"gawr", "pure", "two_param"}:
        ck.fail("relaxation", f"must be one of ['gawr', 'pure', 'two_param'], got {raw.get('relaxation')!r}")
    # steps and seed are required above
    ck.number(raw, "", "steps", lo=0, integer=True, required=False)
    ck.number(raw, "", "trials", lo=1, integer=True, required=False)
    ck.number(raw, "", "seed", lo=0, hi=MAX_SEED, integer=True, required=False)
    if "outputs" in raw and ck.require_keys(raw["outputs"], "outputs", {"trace", "summary"}):
        for key, val in raw["outputs"].items():
            if not isinstance(val, str):
                ck.fail(f"outputs.{key}", f"expected a path string, got {val!r}")
    if "bounds" in raw and not isinstance(raw["bounds"], bool):
        ck.fail("bounds", f"expected true/false, got {raw['bounds']!r}")
    if "rate_fit" in raw and ck.require_keys(raw["rate_fit"], "rate_fit", {"lo", "hi"},
                                             required=("lo", "hi")):
        lo = ck.number(raw["rate_fit"], "rate_fit", "lo", lo=0, integer=True)
        hi = ck.number(raw["rate_fit"], "rate_fit", "hi", lo=0, integer=True)
        if lo is not None and hi is not None and hi < lo:
            ck.fail("rate_fit.hi", f"must be >= rate_fit.lo, got {hi} < {lo}")
    if ck.errors:
        raise ConfigError(ck.errors)
    data = dict(raw)
    data.setdefault("trials", 1)
    data.setdefault("bounds", False)
    return ExperimentConfig(data)


def serialize(config):
    """Canonical YAML text for a config; parse(serialize(c)) == c."""
    return yaml.safe_dump(config.data, sort_keys=True, default_flow_style=False)
