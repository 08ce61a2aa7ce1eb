"""Probabilistic metamodels of GAN architectures.

Learns a two-level model (depth supermodel + per-depth Bayesian network
submodels) from archives of evaluated genotypes, then scores, samples
and guides architecture search on seeded surrogate landscapes.
"""

from .archive import (
    EliteSets,
    Individual,
    RunArchive,
    extract_sets,
    load_archive,
    save_archive,
)
from .bayesnet import (
    BayesNet,
    Dag,
    aracne_skeleton,
    chow_liu,
    enumerate_joint,
    fit_cpts,
    orient,
    log_likelihood_many,
    mi_matrix,
    pls_sample_many,
)
from .errors import ArchsmithError, FormatError, ValidationError
from .genotype import (
    DepthKey,
    GanSpec,
    GenotypeConfig,
    LayerSpec,
    DnnSpec,
    flatten_joint,
    gan_hash,
    parse_genotype,
    random_genotype,
    unflatten_joint,
)
from .landscape import (
    LandscapeConfig,
    SurrogateLandscape,
    load_landscape,
    make_landscape,
    save_landscape,
)
from .metamodel import (
    LearnConfig,
    Metamodel,
    ScoreBreakdown,
    learn,
    load_metamodel,
    provenance_mismatch,
    save_metamodel,
)
from .search import (
    EaConfig,
    EaResult,
    Population,
    SearchTrace,
    guided_hc,
    init_population,
    mutate,
    random_hc,
    simple_ea,
)
from .stats import DunnResult, TestResult, dunn, kruskal_wallis, rank_sum

__version__ = "0.1.0"

__all__ = [
    "ArchsmithError",
    "BayesNet",
    "Dag",
    "DepthKey",
    "DnnSpec",
    "DunnResult",
    "EaConfig",
    "EaResult",
    "EliteSets",
    "FormatError",
    "GanSpec",
    "GenotypeConfig",
    "Individual",
    "LandscapeConfig",
    "LayerSpec",
    "LearnConfig",
    "Metamodel",
    "Population",
    "RunArchive",
    "ScoreBreakdown",
    "SearchTrace",
    "SurrogateLandscape",
    "TestResult",
    "ValidationError",
    "aracne_skeleton",
    "chow_liu",
    "dunn",
    "enumerate_joint",
    "extract_sets",
    "fit_cpts",
    "flatten_joint",
    "gan_hash",
    "guided_hc",
    "init_population",
    "kruskal_wallis",
    "learn",
    "load_archive",
    "load_landscape",
    "load_metamodel",
    "log_likelihood_many",
    "make_landscape",
    "mi_matrix",
    "mutate",
    "orient",
    "parse_genotype",
    "pls_sample_many",
    "provenance_mismatch",
    "random_genotype",
    "random_hc",
    "rank_sum",
    "save_archive",
    "save_landscape",
    "save_metamodel",
    "simple_ea",
    "unflatten_joint",
]
