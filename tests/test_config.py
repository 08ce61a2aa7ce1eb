"""The one config reader and writer: every config class written by
``config_to_json`` reads back equal, a strict document lacking a key is an
error, and a partial section takes the missing key's default."""

import dataclasses
import json
import pickle

import pytest

from archsmith.errors import FormatError, config_to_json
from archsmith.experiments import (
    ArchiveGenConfig,
    GuidedSearchConfig,
    InitializationConfig,
    LikelihoodConfig,
    SamplingConfig,
)
from archsmith.genotype import GenotypeConfig
from archsmith.landscape import LandscapeConfig
from archsmith.metamodel import LearnConfig
from archsmith.search import EaConfig

# Every field off its default, so a default that fills a key shows.
GENOTYPE = GenotypeConfig.per_network(arity=3, activations=("relu", "tanh"),
                                      weight_inits=("normal", "xavier"))
LANDSCAPE = LandscapeConfig(genotype=GENOTYPE, family_seed=2,
                            sigma_noise=0.5, margin=0.2, base_scale=3.0,
                            flip_prob=0.4, jitter=0.1, n_pairs=5)
LEARN = LearnConfig(genotype=GENOTYPE, structure="chow_liu", min_samples=3,
                    alpha=0.5, super_pseudocount=2.0, dpi_tolerance=0.2,
                    mi_correction=False)
EA = EaConfig(crossover_rate=0.25, mutation_rate=0.5, tournament_size=3,
              elitism=2)
STRICT = (GENOTYPE, LANDSCAPE, LEARN,
          LandscapeConfig(genotype=GenotypeConfig.joint()))
EXPERIMENT_CONFIGS = (
    ArchiveGenConfig(landscape=LANDSCAPE, problem_seeds=(7, 8),
                     runs_per_problem=2, population=5, generations=3,
                     base_seed=4, ea=EA),
    LikelihoodConfig(landscape=LANDSCAPE, n=4, seed=3, min_scored=5,
                     learn=LEARN),
    SamplingConfig(landscape=LANDSCAPE, train_seeds=(1, 2),
                   holdout_seeds=(9,), n=4, n_each=7, seed=2, learn=LEARN),
    InitializationConfig(landscape=LANDSCAPE, target_seed=9, replicates=3,
                         population=5, generations=4, n=2, seed=1, ea=EA,
                         learn=LEARN),
    GuidedSearchConfig(landscape=LANDSCAPE, target_seed=8, replicates=2,
                       budget=5, n=3, seed=6, learn=LEARN),
)


def _default(field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def _cases():
    """(config, path of the dropped key, the config read without it, or
    None where the key is required)."""
    for config in STRICT:
        for key in config_to_json(config):
            yield pytest.param(config, (key,), None,
                               id=f"{type(config).__name__}-{key}")
    for config in EXPERIMENT_CONFIGS:
        name = type(config).__name__
        for field in dataclasses.fields(config):
            value = _default(field)
            yield pytest.param(
                config, (field.name,),
                None if value is dataclasses.MISSING
                else dataclasses.replace(config, **{field.name: value}),
                id=f"{name}-{field.name}")
        # Sections fill a key from the defaults: the learn genotype is the
        # landscape's.
        for section, base in (("ea", EaConfig()),
                              ("learn", LearnConfig(genotype=GENOTYPE))):
            if not hasattr(config, section):
                continue
            for key in config_to_json(base):
                filled = dataclasses.replace(getattr(config, section),
                                             **{key: getattr(base, key)})
                yield pytest.param(
                    config, (section, key),
                    dataclasses.replace(config, **{section: filled}),
                    id=f"{name}-{section}.{key}")


@pytest.mark.parametrize("config,path,expected", list(_cases()))
def test_read_policy(config, path, expected):
    read = type(config).from_json_obj
    doc = json.loads(json.dumps(config_to_json(config)))
    assert read(doc) == config
    *sections, key = path
    target = doc
    for section in sections:
        target = target[section]
    del target[key]
    if expected is None:
        with pytest.raises(FormatError, match=f"missing key '{key}'$"):
            read(doc)
    else:
        assert read(doc) == expected


@pytest.mark.parametrize("config", (*STRICT, *EXPERIMENT_CONFIGS),
                         ids=lambda config: type(config).__name__)
def test_a_hashed_config_writes_the_same_json(config):
    # A genotype config caches its hash on first use; the cached value
    # is not a field and never reaches the JSON or a copy.
    genotypes = [config] if isinstance(config, GenotypeConfig) else []
    genotypes += [getattr(config, "genotype", None),
                  getattr(getattr(config, "landscape", None), "genotype",
                          None)]
    fresh = type(config).from_json_obj(config_to_json(config))
    before = json.dumps(config_to_json(fresh))
    for genotype in filter(None, genotypes):
        hash(genotype)
    hash(fresh)
    assert json.dumps(config_to_json(fresh)) == before
    assert json.dumps(config_to_json(config)) == before


def test_equal_genotype_configs_hash_equally():
    a = GenotypeConfig.per_network(arity=3)
    b = GenotypeConfig.from_json_obj(json.loads(json.dumps(
        config_to_json(a))))
    assert a is not b and a == b
    assert hash(a) == hash(a) == hash(b)
    assert hash(a) == hash(dataclasses.astuple(a))
    assert {a: 1}[b] == 1
    c = dataclasses.replace(a, arity=4)
    assert c != a and "_hash" not in vars(c)
    copied = pickle.loads(pickle.dumps(a))
    assert copied == a and "_hash" not in vars(copied)
    assert hash(copied) == hash(a)
