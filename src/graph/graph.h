#pragma once

/// \file graph.h
/// Undirected simple graphs in compressed-sparse-row form, plus the standard
/// topology generators.  Substrate for the paper's first open problem (§6):
/// run the learning dynamics when individuals can only sample their
/// neighbours, and measure how group efficiency depends on topology.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/rng.h"

namespace sgl::graph {

/// An immutable undirected simple graph (no self-loops, no multi-edges)
/// over vertices 0..n-1, stored in CSR form.
class graph {
 public:
  using vertex = std::uint32_t;
  using edge = std::pair<vertex, vertex>;

  /// Builds from an edge list; self-loops are rejected, duplicate edges
  /// (in either orientation) are collapsed.
  graph(std::size_t num_vertices, std::span<const edge> edges);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return adjacency_.size() / 2; }
  [[nodiscard]] std::size_t degree(vertex v) const;
  /// Sorted neighbour list of v.
  [[nodiscard]] std::span<const vertex> neighbors(vertex v) const;

  /// Raw CSR arrays — neighbours of v are adjacency()[offsets()[v] ..
  /// offsets()[v+1]).  For tight loops over many vertices (the network
  /// engine's view-delta walk) where the per-call span construction of
  /// neighbors() is measurable.
  [[nodiscard]] std::span<const std::size_t> offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const vertex> adjacency() const noexcept {
    return adjacency_;
  }
  [[nodiscard]] bool has_edge(vertex u, vertex v) const;

  /// has_edge's search: binary search for `v` in the sorted row
  /// [row, row + size).  The halving has no data-dependent branch, so a
  /// short row costs no mispredicted jumps (netsim checks every send).
  [[nodiscard]] static bool row_contains(const vertex* row, std::size_t size,
                                         vertex v) noexcept {
    if (size == 0) return false;
    while (size > 1) {
      const std::size_t half = size / 2;
      row = row[half] <= v ? row + half : row;
      size -= half;
    }
    return *row == v;
  }

  /// True iff the graph is connected (BFS); the empty graph is connected.
  [[nodiscard]] bool is_connected() const;

  [[nodiscard]] double average_degree() const noexcept;
  [[nodiscard]] std::size_t min_degree() const noexcept;
  [[nodiscard]] std::size_t max_degree() const noexcept;

  // --- generators ----------------------------------------------------------

  /// K_n.
  [[nodiscard]] static graph complete(std::size_t n);
  /// Cycle C_n (n >= 3); n <= 2 degenerates to a path.
  [[nodiscard]] static graph ring(std::size_t n);
  /// rows × cols lattice; `wrap` makes it a torus.
  [[nodiscard]] static graph grid(std::size_t rows, std::size_t cols, bool wrap);
  /// Star with vertex 0 as the hub.
  [[nodiscard]] static graph star(std::size_t n);
  /// G(n, p) Erdős–Rényi.
  [[nodiscard]] static graph erdos_renyi(std::size_t n, double p, rng& gen);
  /// Watts–Strogatz small world: ring lattice with k nearest neighbours per
  /// side... (degree 2k), each edge rewired with probability rewire_p.
  [[nodiscard]] static graph watts_strogatz(std::size_t n, std::size_t k, double rewire_p,
                                            rng& gen);
  /// Barabási–Albert preferential attachment, `attach` edges per new vertex.
  [[nodiscard]] static graph barabasi_albert(std::size_t n, std::size_t attach, rng& gen);
  /// Two cliques of size n_each joined by `bridges` disjoint bridge edges —
  /// the classic bottleneck topology for information flow.
  [[nodiscard]] static graph two_cliques(std::size_t n_each, std::size_t bridges);

 private:
  std::vector<std::size_t> offsets_;
  std::vector<vertex> adjacency_;
};

}  // namespace sgl::graph
