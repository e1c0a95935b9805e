// Graph generators for the experiment suite.
//
// The benches need families where n, D and Δ can be steered independently:
//   - path / cycle / grid / torus: large D, small Δ;
//   - star / complete: D in {1, 2}, Δ = n-1;
//   - cluster_chain (path of cliques): D ≈ #cliques, Δ ≈ clique size —
//     the workhorse for the paper's logΔ and D scalings;
//   - random_gnp / random_geometric: the "typical" ad-hoc topologies the
//     paper's motivation (sensor networks) implies;
//   - random_tree / caterpillar: sparse adversarial BFS shapes.
// All generators return finalized, connected graphs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace radiocast::graph {

/// Simple path 0-1-2-...-(n-1). D = n-1, Δ = 2.
Graph make_path(NodeId n);

/// Cycle. D = ⌊n/2⌋, Δ = 2. Requires n >= 3.
Graph make_cycle(NodeId n);

/// Star with center 0. D = 2, Δ = n-1. Requires n >= 2.
Graph make_star(NodeId n);

/// Complete graph. D = 1, Δ = n-1. Requires n >= 2.
Graph make_complete(NodeId n);

/// rows x cols grid. D = rows+cols-2, Δ <= 4.
Graph make_grid(NodeId rows, NodeId cols);

/// rows x cols torus (wrap-around grid). Requires rows, cols >= 3.
Graph make_torus(NodeId rows, NodeId cols);

/// Uniform random labelled tree on n nodes (random parent attachment with
/// uniformly chosen earlier node). Δ is O(log n / log log n) typically.
Graph make_random_tree(NodeId n, Rng& rng);

/// Caterpillar: a spine path of `spine` nodes, each with `legs` leaves.
/// n = spine * (legs + 1), D = spine + 1, Δ = legs + 2.
Graph make_caterpillar(NodeId spine, NodeId legs);

/// Path of `num_cliques` cliques of size `clique_size`, consecutive cliques
/// joined by one bridge edge. Lets benches sweep D (≈ 2 * num_cliques) and
/// Δ (= clique_size) independently.
Graph make_cluster_chain(NodeId num_cliques, NodeId clique_size);

/// Erdős–Rényi G(n, p) conditioned on connectivity: resamples up to
/// `max_attempts`; if every attempt is disconnected, bridges the components
/// of the last sample with random inter-component edges (documented
/// fallback so benches never abort).
Graph make_gnp_connected(NodeId n, double p, Rng& rng, int max_attempts = 32);

/// Random geometric / unit-disk graph: n points uniform in the unit square,
/// edge iff Euclidean distance <= radius. Connectivity handled as in
/// make_gnp_connected.
Graph make_random_geometric(NodeId n, double radius, Rng& rng, int max_attempts = 32);

/// Connected graph with max degree <= `max_deg` built by adding random
/// edges to a random Hamiltonian path subject to the degree cap.
/// Requires max_deg >= 2.
Graph make_bounded_degree(NodeId n, std::size_t max_deg, double density, Rng& rng);

/// Two cliques of size `clique` connected by a path of `path_len` nodes.
Graph make_barbell(NodeId clique, NodeId path_len);

/// Named graph family descriptor used by benches to sweep families
/// uniformly. `make_named` dispatches on `family`:
///   "path", "cycle", "star", "complete", "grid", "torus", "random_tree",
///   "caterpillar", "cluster_chain", "gnp", "geometric", "bounded_degree",
///   "barbell".
/// Family-specific shape parameters are derived from n so that all families
/// are comparable at equal n.
/// Requires n >= named_min_nodes(family).
Graph make_named(const std::string& family, NodeId n, Rng& rng);

/// Smallest n make_named accepts for `family`: 6 for "barbell" (two
/// 3-cliques), 4 for every other family.
NodeId named_min_nodes(const std::string& family);

/// The list of families make_named supports.
const std::vector<std::string>& named_families();

}  // namespace radiocast::graph
