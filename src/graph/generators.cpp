#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/assert.hpp"
#include "common/math_util.hpp"
#include "graph/algorithms.hpp"

namespace radiocast::graph {

namespace {

/// Connects a possibly disconnected graph by adding one edge between a
/// representative of each component and the first component.
Graph bridge_components(Graph g) {
  // Re-open a finalized graph is not supported; rebuild from edges.
  Graph h(g.num_nodes());
  for (const auto& [u, v] : g.edges()) h.add_edge(u, v);

  std::vector<NodeId> representative;
  std::vector<bool> seen(g.num_nodes(), false);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (seen[s]) continue;
    representative.push_back(s);
    const BfsResult r = bfs(g, s);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (r.dist[v] != kUnreachable) seen[v] = true;
    }
  }
  for (std::size_t c = 1; c < representative.size(); ++c) {
    h.add_edge(representative[0], representative[c]);
  }
  h.finalize();
  RC_ASSERT(is_connected(h));
  return h;
}

}  // namespace

Graph make_path(NodeId n) {
  RC_ASSERT(n >= 1);
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

Graph make_cycle(NodeId n) {
  RC_ASSERT(n >= 3);
  Graph g(n);
  for (NodeId i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  g.finalize();
  return g;
}

Graph make_star(NodeId n) {
  RC_ASSERT(n >= 2);
  Graph g(n);
  for (NodeId i = 1; i < n; ++i) g.add_edge(0, i);
  g.finalize();
  return g;
}

Graph make_complete(NodeId n) {
  RC_ASSERT(n >= 2);
  Graph g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) g.add_edge(i, j);
  }
  g.finalize();
  return g;
}

Graph make_grid(NodeId rows, NodeId cols) {
  RC_ASSERT(rows >= 1 && cols >= 1);
  Graph g(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  g.finalize();
  return g;
}

Graph make_torus(NodeId rows, NodeId cols) {
  RC_ASSERT(rows >= 3 && cols >= 3);
  Graph g(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      g.add_edge(id(r, c), id(r, (c + 1) % cols));
      g.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  g.finalize();
  return g;
}

Graph make_random_tree(NodeId n, Rng& rng) {
  RC_ASSERT(n >= 1);
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) {
    const auto parent = static_cast<NodeId>(rng.next_below(v));
    g.add_edge(v, parent);
  }
  g.finalize();
  return g;
}

Graph make_caterpillar(NodeId spine, NodeId legs) {
  RC_ASSERT(spine >= 1);
  const NodeId n = spine * (legs + 1);
  Graph g(n);
  for (NodeId s = 0; s + 1 < spine; ++s) g.add_edge(s, s + 1);
  NodeId next = spine;
  for (NodeId s = 0; s < spine; ++s) {
    for (NodeId l = 0; l < legs; ++l) g.add_edge(s, next++);
  }
  g.finalize();
  return g;
}

Graph make_cluster_chain(NodeId num_cliques, NodeId clique_size) {
  RC_ASSERT(num_cliques >= 1 && clique_size >= 2);
  const NodeId n = num_cliques * clique_size;
  Graph g(n);
  auto base = [clique_size](NodeId c) { return c * clique_size; };
  for (NodeId c = 0; c < num_cliques; ++c) {
    for (NodeId i = 0; i < clique_size; ++i) {
      for (NodeId j = i + 1; j < clique_size; ++j) {
        g.add_edge(base(c) + i, base(c) + j);
      }
    }
    if (c + 1 < num_cliques) {
      // Bridge: last node of clique c to first node of clique c+1.
      g.add_edge(base(c) + clique_size - 1, base(c + 1));
    }
  }
  g.finalize();
  return g;
}

Graph make_gnp_connected(NodeId n, double p, Rng& rng, int max_attempts) {
  RC_ASSERT(n >= 1);
  RC_ASSERT(p >= 0.0 && p <= 1.0);
  Graph last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g(n);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        if (rng.next_bool(p)) g.add_edge(i, j);
      }
    }
    g.finalize();
    if (is_connected(g)) return g;
    last = std::move(g);
  }
  return bridge_components(std::move(last));
}

Graph make_random_geometric(NodeId n, double radius, Rng& rng, int max_attempts) {
  RC_ASSERT(n >= 1);
  RC_ASSERT(radius > 0.0);
  const double r2 = radius * radius;
  Graph last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<std::pair<double, double>> pts(n);
    for (auto& pt : pts) pt = {rng.next_double(), rng.next_double()};
    Graph g(n);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        const double dx = pts[i].first - pts[j].first;
        const double dy = pts[i].second - pts[j].second;
        if (dx * dx + dy * dy <= r2) g.add_edge(i, j);
      }
    }
    g.finalize();
    if (is_connected(g)) return g;
    last = std::move(g);
  }
  return bridge_components(std::move(last));
}

Graph make_bounded_degree(NodeId n, std::size_t max_deg, double density, Rng& rng) {
  RC_ASSERT(n >= 1);
  RC_ASSERT(max_deg >= 2);
  RC_ASSERT(density >= 0.0 && density <= 1.0);
  // Random Hamiltonian path guarantees connectivity and degree <= 2, then
  // random extra edges are added while respecting the cap.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (NodeId i = n; i > 1; --i) {
    const auto j = static_cast<NodeId>(rng.next_below(i));
    std::swap(order[i - 1], order[j]);
  }
  Graph g(n);
  std::vector<std::size_t> deg(n, 0);
  auto try_add = [&](NodeId u, NodeId v) {
    if (u == v || deg[u] >= max_deg || deg[v] >= max_deg) return;
    g.add_edge(u, v);
    // add_edge ignores duplicates, so recompute via graph state is
    // unnecessary: track optimistically and tolerate slight undercount.
    ++deg[u];
    ++deg[v];
  };
  for (NodeId i = 0; i + 1 < n; ++i) {
    g.add_edge(order[i], order[i + 1]);
    ++deg[order[i]];
    ++deg[order[i + 1]];
  }
  const auto extra = static_cast<std::size_t>(
      density * static_cast<double>(n) * static_cast<double>(max_deg) / 2.0);
  for (std::size_t e = 0; e < extra; ++e) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    try_add(u, v);
  }
  g.finalize();
  return g;
}

Graph make_barbell(NodeId clique, NodeId path_len) {
  RC_ASSERT(clique >= 2);
  const NodeId n = 2 * clique + path_len;
  Graph g(n);
  for (NodeId i = 0; i < clique; ++i) {
    for (NodeId j = i + 1; j < clique; ++j) {
      g.add_edge(i, j);
      g.add_edge(clique + path_len + i, clique + path_len + j);
    }
  }
  // Path between the cliques.
  NodeId prev = clique - 1;
  for (NodeId s = 0; s < path_len; ++s) {
    g.add_edge(prev, clique + s);
    prev = clique + s;
  }
  g.add_edge(prev, clique + path_len);
  g.finalize();
  return g;
}

NodeId named_min_nodes(const std::string& family) {
  return family == "barbell" ? 6 : 4;
}

Graph make_named(const std::string& family, NodeId n, Rng& rng) {
  RC_ASSERT(n >= named_min_nodes(family));
  if (family == "path") return make_path(n);
  if (family == "cycle") return make_cycle(n);
  if (family == "star") return make_star(n);
  if (family == "complete") return make_complete(n);
  if (family == "grid") {
    const auto side = static_cast<NodeId>(std::ceil(std::sqrt(static_cast<double>(n))));
    return make_grid(side, ceil_div(n, side));
  }
  if (family == "torus") {
    const auto side =
        std::max<NodeId>(3, static_cast<NodeId>(std::round(std::sqrt(static_cast<double>(n)))));
    return make_torus(side, std::max<NodeId>(3, ceil_div(n, side)));
  }
  if (family == "random_tree") return make_random_tree(n, rng);
  if (family == "caterpillar") {
    const NodeId legs = 3;
    const NodeId spine = std::max<NodeId>(1, n / (legs + 1));
    return make_caterpillar(spine, legs);
  }
  if (family == "cluster_chain") {
    const NodeId clique = std::max<NodeId>(4, static_cast<NodeId>(ceil_log2(n)) * 2);
    const NodeId chains = std::max<NodeId>(1, n / clique);
    return make_cluster_chain(chains, clique);
  }
  if (family == "gnp") {
    const double p =
        std::min(1.0, 2.0 * std::log(static_cast<double>(n)) / static_cast<double>(n));
    return make_gnp_connected(n, p, rng);
  }
  if (family == "geometric") {
    const double radius =
        std::sqrt(2.5 * std::log(static_cast<double>(n)) / (3.141592653589793 * n));
    return make_random_geometric(n, radius, rng);
  }
  if (family == "bounded_degree") return make_bounded_degree(n, 6, 0.5, rng);
  if (family == "barbell") {
    const NodeId clique = std::max<NodeId>(3, n / 4);
    return make_barbell(clique, n - 2 * clique);
  }
  RC_ASSERT_MSG(false, ("unknown graph family: " + family).c_str());
}

const std::vector<std::string>& named_families() {
  static const std::vector<std::string> families = {
      "path",        "cycle",         "star",          "complete",
      "grid",        "torus",         "random_tree",   "caterpillar",
      "cluster_chain", "gnp",         "geometric",     "bounded_degree",
      "barbell"};
  return families;
}

}  // namespace radiocast::graph
