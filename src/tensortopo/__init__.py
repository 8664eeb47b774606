"""Topology of tensor rank strata: certificates, component invariants,
explicit in-stratum paths, and Monte Carlo experiments."""

from .certify import (Classification222, DecompositionCount, Kind222,
                      brank3_conj_pair, classify_222,
                      count_rank2_decompositions, hyperdet222, is_rank_one,
                      rank2_decompose)
from .classifiers import (ComponentLabel, SINGLE, classify,
                          classify_brank3_222, det_sign_mrank,
                          orientation_area, sign_label, sign_triple_label,
                          sym_sign_rank1, sym_signature)
from .core import (COMPLEX, DEFAULT_TOL, Hypermatrix, MultilinearRank,
                   RankOneFactors, REAL, SymRankDecomposition, SymTensor,
                   TolerancePolicy, flatten, frobenius_inner, hypermatrix,
                   mode_multiply, mrank, numerical_rank, outer_product,
                   sym_diagonal_sum, sym_embed, sym_extract,
                   sym_packed_length, sym_power)
from .errors import (DegenerateError, DifferentComponents, RetryExhausted,
                     StratumSyntaxError, TensorTopoError, ToleranceError,
                     UnsupportedStratumError)
from .geometry import (GrassmannGeodesic, GrassmannPoint, OrientationLoop,
                       TuckerRep, dominant_subspace, geodesic,
                       gl_interpolator, orthogonal_interpolator,
                       principal_angles, so_rotation_path, sym_tucker_compress,
                       sym_tucker_expand, tucker_compress, tucker_expand)
from .io import dumps_canonical, load_tensor, save_tensor
from .lab import (CensusReport, IdentifiabilityReport, PairwiseReport,
                  census, expected_component_count,
                  identifiability_experiment, pairwise_connect_experiment,
                  run_verify_suite, strip_runtime)
from .paths import (PathReport, TensorPath, connect, connect_brank3_222,
                    connect_mrank, connect_rank_one, connect_rank_r,
                    connect_sym_mrank, connect_sym_rank_one,
                    connect_sym_rank_r, path_verify, verify_paths)
from .rng import SplitMix64, derive_seed
from .sampling import (expected_generic_mrank, random_invertible,
                       random_orthogonal, sample_fixed_mrank, sample_rank_r,
                       sample_sym_mrank, sample_sym_rank_r)
from .stratum import StratumDescriptor, format_stratum, parse_stratum

__all__ = [name for name in dir() if not name.startswith("_")]
