import pytest
import yaml

import mschwarz.config as config_module
from mschwarz import ConfigError, parse_config, serialize
from mschwarz.config import ExperimentConfig
from mschwarz.diagonal import DiagonalModel
from mschwarz.problems import MatrixSchwarzModel
from mschwarz.solver import FixedPool, GreedyRule, RandomRule

MINIMAL = """
problem:
  kind: diagonal
  coefficients: [1.0, 0.5]
selection:
  kind: greedy
  beta: 1.0
relaxation: gawr
steps: 100
seed: 1
"""

POISSON_GREEDY = """
problem:
  kind: poisson_1d
  n: 15
  splitting:
    kind: overlapping_blocks
    block_size: 8
    overlap: 2
selection:
  kind: greedy
  beta: 1.0
  pool: fixed
relaxation: gawr
steps: 10
seed: 0
"""


class TestParsing:
    def test_minimal_config_parses(self):
        config = parse_config(MINIMAL)
        assert config.data["steps"] == 100
        assert config.data["trials"] == 1  # default
        assert config.data["bounds"] is False

    def test_beta_constraint_named_in_error(self):
        bad = MINIMAL.replace("beta: 1.0", "beta: 1.5")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert any("selection.beta" in e and "(0, 1]" in e for e in exc.value.errors)

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\nunexpected: 1\n")
        assert any("unexpected" in e and "unknown key" in e for e in exc.value.errors)

    def test_nested_unknown_key_path(self):
        bad = MINIMAL.replace("kind: greedy", "kind: greedy\n  typo: 2")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert any(e.startswith("selection.typo") for e in exc.value.errors)

    def test_multiple_errors_collected(self):
        bad = (
            MINIMAL.replace("beta: 1.0", "beta: 1.5")
            .replace("steps: 100", "steps: -1")
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        paths = "\n".join(exc.value.errors)
        assert "selection.beta" in paths and "steps" in paths

    def test_duplicated_index_key_rejected(self):
        # 1 and 1.0 are one mapping key; YAML alone would keep 0.3 silently
        bad = MINIMAL.replace("[1.0, 0.5]", "{1: 0.5, 1.0: 0.3}")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert exc.value.errors == ["problem.coefficients.1.0: duplicated key"]

    def test_duplicated_top_level_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "steps: 5\n")
        assert exc.value.errors == ["steps: duplicated key"]

    def test_duplicated_nested_key_reports_its_path(self):
        bad = MINIMAL + "rate_fit: {lo: 1, hi: 2, lo: 3}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert exc.value.errors == ["rate_fit.lo: duplicated key"]

    def test_aliases_and_merge_keys_still_parse(self):
        text = MINIMAL.replace(
            "problem:\n  kind: diagonal\n  coefficients: [1.0, 0.5]",
            "problem:\n  <<: &p {kind: diagonal, coefficients: [2.0]}\n"
            "  coefficients: [1.0, 0.5]",
        )
        assert parse_config(text).data["problem"] == {"kind": "diagonal",
                                                      "coefficients": [1.0, 0.5]}

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("problem:\n  kind: diagonal\n  coefficients: [1.0]\n")
        msgs = "\n".join(exc.value.errors)
        assert "selection" in msgs and "relaxation" in msgs and "seed" in msgs

    def test_type_mismatch_reported(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("steps: 100", "steps: soon"))
        assert any("steps" in e and "number" in e for e in exc.value.errors)

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("seed: 1", "seed: -3"))
        parse_config(MINIMAL.replace("seed: 1", f"seed: {2**64 - 1}"))

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError):
            parse_config("problem: [unclosed")

    def test_probs_must_normalize(self):
        text = MINIMAL.replace(
            "kind: greedy\n  beta: 1.0",
            "kind: random\n  family:\n    kind: explicit\n    probs: [0.5, 0.6]",
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any("probs" in e and "sum to 1" in e for e in exc.value.errors)

    def test_cross_section_key_rejected(self):
        # greedy-only keys under random selection
        text = MINIMAL.replace(
            "kind: greedy\n  beta: 1.0",
            "kind: random\n  beta: 0.5\n  family:\n    kind: uniform\n    n: 4",
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any("selection.beta" in e for e in exc.value.errors)


class TestErrorPaths:
    """Exact error lists: top-level paths, missing keys, invalid family kinds."""

    @staticmethod
    def errors(text):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        return exc.value.errors

    def test_top_level_numbers_have_no_leading_dot(self):
        assert self.errors(MINIMAL.replace("steps: 100", "steps: x")) == [
            "steps: expected a number, got 'x'"]
        assert self.errors(MINIMAL.replace("seed: 1", "seed: -1")) == [
            "seed: must be >= 0, got -1"]
        assert self.errors(MINIMAL + "trials: 0\n") == ["trials: must be >= 1, got 0"]

    @pytest.mark.parametrize("key", ["steps", "seed"])
    def test_missing_key_is_reported_once(self, key):
        text = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith(key))
        assert self.errors(text) == [f"{key}: missing required key"]

    def test_invalid_family_kind_is_the_one_family_error(self):
        text = MINIMAL.replace("kind: greedy\n  beta: 1.0",
                               "kind: random\n  family: {kind: zipf, s: 2}")
        assert self.errors(text) == [
            "selection.family.kind: must be one of ['explicit', 'log', 'power_law', "
            "'uniform'], got 'zipf'"]

    def test_key_of_another_kind_names_the_kind(self):
        text = MINIMAL.replace("kind: greedy", "kind: random\n  family: {kind: log}")
        assert self.errors(text) == ["selection.beta: not valid for kind 'random'"]

    @pytest.mark.parametrize("kind", ["kind: zipf\n  ", "kind: [greedy]\n  ", ""],
                             ids=["invalid", "unhashable", "missing"])
    def test_no_kind_only_key_is_judged_under_an_invalid_or_missing_kind(self, kind):
        # beta: 7 is out of range, but only a greedy selection has a beta
        errors = self.errors(MINIMAL.replace("kind: greedy\n  beta: 1.0", f"{kind}beta: 7"))
        assert len(errors) == 1 and errors[0].startswith("selection.kind: ")

    def test_null_truncation_is_refused_on_every_model(self):
        text = MINIMAL.replace("kind: greedy\n  beta: 1.0",
                               "kind: random\n  family: {kind: log}\n  truncation: null")
        assert self.errors(text) == ["selection.truncation: expected a mapping, got NoneType"]

    def test_null_value_gets_its_checks_message(self):
        text = MINIMAL.replace("[1.0, 0.5]", "null")
        assert self.errors(text) == ["problem.coefficients: expected a list or an index mapping"]


def _keys_by_section(schema, path=""):
    """(section path, every key it names, shared or of a kind) of ``schema``."""
    kinds = schema.get("kind", {})
    keys = [key.rstrip("?") for key in schema] + [
        key.rstrip("?") for own in kinds.values() for key in own]
    yield path, keys
    for rules in [schema, *kinds.values()]:
        for key, rule in rules.items():
            if isinstance(rule, dict) and key != "kind":
                yield from _keys_by_section(rule, config_module._join(path, key.rstrip("?")))


def test_schema_names_each_key_once():
    sections = dict(_keys_by_section(config_module._SCHEMA))
    for path, keys in sections.items():
        assert len(keys) == len(set(keys)), path
    assert sections["selection"] == ["kind", "sequence", "beta", "pool", "family", "truncation"]


class TestRoundTrip:
    def test_serialize_reparses_equal(self):
        config = parse_config(MINIMAL)
        again = parse_config(serialize(config))
        assert again == config

    def test_round_trip_complex_config(self):
        text = """
problem:
  kind: poisson_1d
  n: 31
  splitting:
    kind: two_level
    block_size: 8
    overlap: 2
    coarse_stride: 4
selection:
  kind: random
  family:
    kind: power_law
    s: 1.0
  truncation:
    D: 1.0
relaxation: two_param
steps: 50
trials: 4
seed: 99
bounds: true
outputs:
  trace: t.csv
  summary: s.json
rate_fit:
  lo: 10
  hi: 50
"""
        config = parse_config(text)
        assert parse_config(serialize(config)) == config


# output names whose quoting a dumper could get wrong: non-ASCII, long
# enough to be folded, a tab, and words the resolver reads as a bool or null
ODD_NAMES = ["résumé/σ.csv", "x" * 200 + ".csv", "a\tb.csv", "yes", "null"]


class TestSerializeText:
    """serialize writes through libyaml when PyYAML has it; the text equals
    ``yaml.safe_dump``'s, the pure-Python dumper's."""

    @staticmethod
    def accepted_fuzzer_configs():
        from test_config_fuzz import CASES, dump

        configs = []
        for _, _, data in CASES:
            try:
                configs.append(parse_config(dump(data)))
            except ConfigError:
                pass
        return configs

    def test_text_equals_safe_dump(self, workloads):
        configs = self.accepted_fuzzer_configs()
        assert len(configs) >= 100
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            configs += [parse_config(workloads.config_text(w.config(seed)))
                        for w in workloads.WORKLOADS.values()]
        for name in ODD_NAMES:
            configs.append(parse_config(MINIMAL + yaml.safe_dump({"outputs": {"trace": name}})))
        for config in configs:
            text = serialize(config)
            assert text == yaml.safe_dump(config.data, sort_keys=True, default_flow_style=False)
            assert parse_config(text) == config


class TestBuilders:
    def test_builds_diagonal_model_and_greedy_rule(self):
        config = parse_config(MINIMAL)
        model = config.build_model()
        assert isinstance(model, DiagonalModel)
        rule = config.build_selection(model)
        assert isinstance(rule, GreedyRule)
        assert rule.beta == 1.0

    def test_builds_poisson_model(self):
        text = """
problem:
  kind: poisson_1d
  n: 15
  splitting:
    kind: overlapping_blocks
    block_size: 8
    overlap: 2
selection:
  kind: cyclic
relaxation: pure
steps: 10
seed: 0
"""
        config = parse_config(text)
        model = config.build_model()
        assert isinstance(model, MatrixSchwarzModel)
        config.build_selection(model)  # cyclic needs the component count

    @pytest.mark.parametrize("selection, error", [
        ("kind: cyclic", "selection.kind: cyclic needs a finite splitting"),
        ("kind: greedy\n  beta: 1.0\n  pool: fixed",
         "selection.pool: lazy splittings support only support_union pools"),
        ("kind: greedy\n  beta: 1.0\n  pool: growing",
         "selection.pool: growing pools need a finite splitting"),
    ], ids=["cyclic", "fixed", "growing"])
    def test_lazy_model_refuses_finite_rules(self, selection, error):
        config = parse_config(MINIMAL.replace("kind: greedy\n  beta: 1.0", selection))
        with pytest.raises(ConfigError) as exc:
            config.build_selection(config.build_model())
        assert exc.value.errors == [error]

    @pytest.mark.parametrize("text", [
        MINIMAL,
        MINIMAL.replace("beta: 1.0", "beta: 1.0\n  pool: support_union"),
        POISSON_GREEDY,
        POISSON_GREEDY.replace("  pool: fixed\n", ""),
    ], ids=["diagonal-default", "support-union", "fixed", "poisson-default"])
    def test_whole_pool_spellings_build_one_pool(self, text):
        config = parse_config(text)
        rule = config.build_selection(config.build_model())
        assert type(rule.pool) is FixedPool

    def test_finite_model_refuses_support_union_pool(self):
        """The diagonal-only refusal of support_union is the config's: the
        pool it builds scans any model."""
        config = parse_config(POISSON_GREEDY.replace("pool: fixed", "pool: support_union"))
        with pytest.raises(ConfigError) as exc:
            config.build_selection(config.build_model())
        assert exc.value.errors == ["selection.pool: support pools are only available on the "
                                    "diagonal model; the splitting has components 1..3"]

    def test_random_selection_with_truncation(self):
        text = MINIMAL.replace(
            "kind: greedy\n  beta: 1.0",
            "kind: random\n  family:\n    kind: power_law\n    s: 1.0\n"
            "  truncation:\n    D: 1.0",
        )
        config = parse_config(text)
        rule = config.build_selection(config.build_model())
        assert isinstance(rule, RandomRule)
        assert callable(rule.schedule)

    def test_config_equality_is_data_equality(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL)
        assert a == b and a is not b
        assert a != ExperimentConfig(dict(b.data, steps=5))


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")


def under_both_loaders(text):
    """(repr of the document, duplicated-key errors) of ``text`` under the
    pure-Python and the libyaml loader; repr tells True, 1 and 1.0 apart."""
    return [(repr(doc), dups) for doc, dups in
            (config_module._load(cls, text) for cls in (yaml.SafeLoader, yaml.CSafeLoader))]


@needs_libyaml
class TestLibyamlLoader:
    """libyaml parses every config as the pure-Python loader does, and text
    that it rejects gets the pure-Python loader's error."""

    @pytest.mark.parametrize("text", [
        "a: &x [1, 2.5, {k: v}]\nb: *x\n",
        "base: &b {k: 1, j: 2}\nd:\n  <<: *b\n  k: 3\nlist:\n  <<: [*b, {z: 0}]\n",
        "a: 1\nb: {c: 1, c: 2}\na: 2\nd: {1: x, 1.0: y, true: z}\n",
        "x: .inf\ny: -.inf\nz: ~\nw: null\nn:\n",
        "t: [true, false, True, FALSE, yes, no, on, off, 'true']\n",
        "i: [0x1f, 0o17, 1_000, 1e3, 1.0e+3, 12:30, -0.0]\n",
        "",
        MINIMAL,
        POISSON_GREEDY,
    ], ids=["aliases", "merge-keys", "duplicates", "inf-and-null", "booleans", "numbers",
            "empty", "minimal", "poisson"])
    def test_same_values_and_duplicates(self, text):
        pure, libyaml = under_both_loaders(text)
        assert libyaml == pure

    def test_workload_configs(self, workloads):
        for name, workload in workloads.WORKLOADS.items():
            text = workloads.config_text(workload.config(workloads.DEFAULT_SEED))
            pure, libyaml = under_both_loaders(text)
            assert libyaml == pure, name

    @pytest.mark.parametrize("text", [
        "problem: [unclosed",
        "a: b: c\n",
        "a:\n\t- 1\n",
        "seed: !!python/object:os.system x\n",
        "a: 1\n---\nb: 2\n",
        "a: *nowhere\n",
    ], ids=["unclosed", "nested-colon", "tab", "unsafe-tag", "two-documents", "unknown-alias"])
    def test_errors_are_the_pure_loaders(self, text, monkeypatch):
        errors = []
        for libyaml in (True, False):
            monkeypatch.setattr(yaml, "__with_libyaml__", libyaml)
            with pytest.raises(ConfigError) as exc:
                parse_config(text)
            errors.append(exc.value.errors)
        assert errors[0] == errors[1]
        assert errors[0][0].startswith("<yaml>: ")
