#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>

namespace sgl::graph {

graph::graph(std::size_t num_vertices, std::span<const edge> edges) {
  if (num_vertices == 0) throw std::invalid_argument{"graph: zero vertices"};

  // Normalize, validate, and deduplicate the edge list.
  std::vector<edge> normalized;
  normalized.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    if (u >= num_vertices || v >= num_vertices) {
      throw std::invalid_argument{"graph: edge endpoint out of range"};
    }
    if (u == v) throw std::invalid_argument{"graph: self-loop"};
    normalized.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()), normalized.end());

  std::vector<std::size_t> degree(num_vertices, 0);
  for (const auto& [u, v] : normalized) {
    ++degree[u];
    ++degree[v];
  }
  offsets_.assign(num_vertices + 1, 0);
  for (std::size_t v = 0; v < num_vertices; ++v) offsets_[v + 1] = offsets_[v] + degree[v];
  adjacency_.resize(offsets_.back());

  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : normalized) {
    adjacency_[cursor[u]++] = v;
    adjacency_[cursor[v]++] = u;
  }
  for (std::size_t v = 0; v < num_vertices; ++v) {
    std::sort(adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]),
              adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]));
  }
}

std::size_t graph::degree(vertex v) const {
  if (v >= num_vertices()) throw std::out_of_range{"graph::degree: bad vertex"};
  return offsets_[v + 1] - offsets_[v];
}

std::span<const graph::vertex> graph::neighbors(vertex v) const {
  if (v >= num_vertices()) throw std::out_of_range{"graph::neighbors: bad vertex"};
  return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

bool graph::has_edge(vertex u, vertex v) const {
  const auto nbrs = neighbors(u);
  return row_contains(nbrs.data(), nbrs.size(), v);
}

bool graph::is_connected() const {
  const std::size_t n = num_vertices();
  if (n <= 1) return true;
  std::vector<bool> seen(n, false);
  std::vector<vertex> frontier{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    const vertex v = frontier.back();
    frontier.pop_back();
    for (const vertex w : neighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        ++visited;
        frontier.push_back(w);
      }
    }
  }
  return visited == n;
}

double graph::average_degree() const noexcept {
  if (num_vertices() == 0) return 0.0;
  return static_cast<double>(adjacency_.size()) / static_cast<double>(num_vertices());
}

std::size_t graph::min_degree() const noexcept {
  std::size_t best = adjacency_.size();
  for (std::size_t v = 0; v < num_vertices(); ++v) {
    best = std::min(best, offsets_[v + 1] - offsets_[v]);
  }
  return best;
}

std::size_t graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_vertices(); ++v) {
    best = std::max(best, offsets_[v + 1] - offsets_[v]);
  }
  return best;
}

// --- generators -------------------------------------------------------------

graph graph::complete(std::size_t n) {
  std::vector<edge> edges;
  edges.reserve(n * (n - 1) / 2);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return graph{n, edges};
}

graph graph::ring(std::size_t n) {
  std::vector<edge> edges;
  if (n >= 2) {
    for (std::uint32_t v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
    if (n >= 3) edges.emplace_back(static_cast<vertex>(n - 1), 0U);
  }
  return graph{n, edges};
}

graph graph::grid(std::size_t rows, std::size_t cols, bool wrap) {
  if (rows == 0 || cols == 0) throw std::invalid_argument{"graph::grid: empty grid"};
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<vertex>(r * cols + c);
  };
  std::vector<edge> edges;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
      if (wrap && c + 1 == cols && cols > 2) edges.emplace_back(id(r, c), id(r, 0));
      if (wrap && r + 1 == rows && rows > 2) edges.emplace_back(id(r, c), id(0, c));
    }
  }
  return graph{rows * cols, edges};
}

graph graph::star(std::size_t n) {
  if (n == 0) throw std::invalid_argument{"graph::star: zero vertices"};
  std::vector<edge> edges;
  for (std::uint32_t v = 1; v < n; ++v) edges.emplace_back(0U, v);
  return graph{n, edges};
}

graph graph::erdos_renyi(std::size_t n, double p, rng& gen) {
  if (!(p >= 0.0 && p <= 1.0)) throw std::invalid_argument{"erdos_renyi: p outside [0,1]"};
  std::vector<edge> edges;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      if (gen.next_bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return graph{n, edges};
}

graph graph::watts_strogatz(std::size_t n, std::size_t k, double rewire_p, rng& gen) {
  if (n < 3) throw std::invalid_argument{"watts_strogatz: need n >= 3"};
  if (k == 0 || 2 * k >= n) throw std::invalid_argument{"watts_strogatz: need 0 < 2k < n"};
  if (!(rewire_p >= 0.0 && rewire_p <= 1.0)) {
    throw std::invalid_argument{"watts_strogatz: rewire_p outside [0,1]"};
  }

  // Adjacency sets for O(1)-ish duplicate checks during rewiring.
  std::vector<std::vector<vertex>> adj(n);
  const auto connected = [&](vertex u, vertex v) {
    return std::find(adj[u].begin(), adj[u].end(), v) != adj[u].end();
  };
  const auto link = [&](vertex u, vertex v) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  };
  const auto unlink = [&](vertex u, vertex v) {
    std::erase(adj[u], v);
    std::erase(adj[v], u);
  };

  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::size_t j = 1; j <= k; ++j) {
      const vertex w = static_cast<vertex>((v + j) % n);
      if (!connected(v, w)) link(v, w);
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::size_t j = 1; j <= k; ++j) {
      const vertex w = static_cast<vertex>((v + j) % n);
      if (!connected(v, w) || !gen.next_bernoulli(rewire_p)) continue;
      // Rewire (v, w) to (v, random target), keeping the graph simple.
      vertex target = v;
      bool found = false;
      for (int attempt = 0; attempt < 64; ++attempt) {
        target = static_cast<vertex>(gen.next_below(n));
        if (target != v && !connected(v, target)) {
          found = true;
          break;
        }
      }
      if (found) {
        unlink(v, w);
        link(v, target);
      }
    }
  }

  std::vector<edge> edges;
  for (std::uint32_t v = 0; v < n; ++v) {
    for (const vertex w : adj[v]) {
      if (v < w) edges.emplace_back(v, w);
    }
  }
  return graph{n, edges};
}

graph graph::barabasi_albert(std::size_t n, std::size_t attach, rng& gen) {
  if (attach == 0) throw std::invalid_argument{"barabasi_albert: attach must be positive"};
  if (n <= attach) throw std::invalid_argument{"barabasi_albert: need n > attach"};

  std::vector<edge> edges;
  // Endpoint multiset: each vertex appears once per incident edge, so a
  // uniform draw from it is degree-proportional preferential attachment.
  std::vector<vertex> endpoints;

  // Seed: a clique on the first attach+1 vertices.
  for (std::uint32_t u = 0; u <= attach; ++u) {
    for (std::uint32_t v = u + 1; v <= attach; ++v) {
      edges.emplace_back(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (std::uint32_t v = static_cast<vertex>(attach + 1); v < n; ++v) {
    std::vector<vertex> targets;
    while (targets.size() < attach) {
      const vertex t = endpoints[gen.next_below(endpoints.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (const vertex t : targets) {
      edges.emplace_back(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return graph{n, edges};
}

graph graph::two_cliques(std::size_t n_each, std::size_t bridges) {
  if (n_each < 2) throw std::invalid_argument{"two_cliques: cliques need >= 2 vertices"};
  if (bridges == 0 || bridges > n_each) {
    throw std::invalid_argument{"two_cliques: bridges must be in [1, n_each]"};
  }
  const std::size_t n = 2 * n_each;
  std::vector<edge> edges;
  for (std::uint32_t u = 0; u < n_each; ++u) {
    for (std::uint32_t v = u + 1; v < n_each; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(static_cast<vertex>(n_each + u), static_cast<vertex>(n_each + v));
    }
  }
  for (std::uint32_t b = 0; b < bridges; ++b) {
    edges.emplace_back(b, static_cast<vertex>(n_each + b));
  }
  return graph{n, edges};
}

}  // namespace sgl::graph
