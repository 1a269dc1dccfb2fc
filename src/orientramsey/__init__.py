"""Exact arrow-relation solving and random-graph threshold experiments
for small oriented patterns."""

__version__ = "0.1.0"

from .arrow import (ArrowResult, arrow, arrow_exhaustive, contains_copy,
                    count_copies, enumerate_copies, oriented_ramsey_number,
                    verify_certificate)
from .constructions import (TreeParams, random_oriented_tree, rooted_product,
                            rooted_tt3, rooted_tt3_variants, tree_params)
from .containers import (ContainerHypergraph, DegreeProfile, PowerSum,
                         build_container_hypergraph, co_degree_profile,
                         emb_count, f_table, saturation_check, tau_power)
from .density import DensityReport, d2, m, m2
from .errors import (BudgetExceededError, GraphFormatError,
                     HypothesisUnmetError, TooLargeError)
from .experiments import (ExperimentPlan, PackingResult, ThresholdSweep,
                          default_p_grid, disjoint_k4_packing,
                          estimate_arrow_probability, sample_gnp,
                          tree_threshold_probe, wilson_interval)
from .graphs import (CanonicalForm, Graph, OrientedGraph, canonical,
                     complete_graph, cycle_graph, directed_path, dumps,
                     in_out_star, is_acyclic, loads, make_family,
                     nonisomorphic_graphs, nonisomorphic_oriented_graphs,
                     path_graph, transitive_tournament, underlying)
from .witness import (ChromaticResult, Coloring, CoreDecomposition,
                      chi_over_log_check, chromatic_number, ghrv_orientation,
                      k_core, star_free_extension)
