#include "topo/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "topo/hub_labels.h"

namespace dmap {

std::vector<float> DijkstraLatency(const AsGraph& graph, AsId source) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> dist(graph.num_nodes(), kInf);
  dist[source] = 0;

  using Item = std::pair<float, AsId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  heap.emplace(0.0f, source);
  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (d > dist[node]) continue;  // stale entry
    for (const auto& [next, latency] : graph.Neighbors(node)) {
      const float nd = d + float(latency);
      if (nd < dist[next]) {
        dist[next] = nd;
        heap.emplace(nd, next);
      }
    }
  }
  return dist;
}

std::vector<std::uint16_t> BfsHops(const AsGraph& graph, AsId source) {
  std::vector<std::uint16_t> hops(graph.num_nodes(), kUnreachableHops);
  hops[source] = 0;
  std::vector<AsId> frontier{source}, next_frontier;
  std::uint16_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    next_frontier.clear();
    for (const AsId node : frontier) {
      for (const auto& [next, latency] : graph.Neighbors(node)) {
        (void)latency;
        if (hops[next] == kUnreachableHops) {
          hops[next] = depth;
          next_frontier.push_back(next);
        }
      }
    }
    frontier.swap(next_frontier);
  }
  return hops;
}

template <typename T>
const std::vector<T>* PathOracle::LruCache<T>::Find(AsId key) {
  const auto it = index.find(key);
  if (it == index.end()) return nullptr;
  entries.splice(entries.begin(), entries, it->second);  // move to front
  return it->second->second.get();
}

template <typename T>
std::shared_ptr<const std::vector<T>> PathOracle::LruCache<T>::FindShared(
    AsId key) {
  const auto it = index.find(key);
  if (it == index.end()) return nullptr;
  entries.splice(entries.begin(), entries, it->second);
  return it->second->second;
}

template <typename T>
const std::shared_ptr<const std::vector<T>>& PathOracle::LruCache<T>::Insert(
    AsId key, std::vector<T> value) {
  entries.emplace_front(
      key, std::make_shared<const std::vector<T>>(std::move(value)));
  index[key] = entries.begin();
  if (entries.size() > capacity) {
    // Shared ownership keeps the evicted vector alive for any caller still
    // holding a PinnedVector handle to it.
    index.erase(entries.back().first);
    entries.pop_back();
  }
  return entries.front().second;
}

PathOracle::PathOracle(const AsGraph& graph, std::size_t capacity,
                       unsigned num_shards)
    : graph_(&graph), capacity_(capacity == 0 ? 1 : capacity) {
  SetNumShards(num_shards);
}

void PathOracle::SetNumShards(unsigned num_shards) {
  if (num_shards == 0) num_shards = 1;
  for (const auto& shard : shards_) {
    retired_dijkstra_runs_ += shard->dijkstra_runs;
    retired_bfs_runs_ += shard->bfs_runs;
    retired_latency_hits_ += shard->latency_hits;
    retired_hops_hits_ += shard->hops_hits;
    retired_label_queries_ += shard->label_queries;
  }
  shards_.clear();
  shards_.reserve(num_shards);
  for (unsigned s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->latencies.capacity = capacity_;
    shard->hops.capacity = capacity_;
    shards_.push_back(std::move(shard));
  }
}

std::uint64_t PathOracle::dijkstra_runs() const {
  std::uint64_t total = retired_dijkstra_runs_;
  for (const auto& shard : shards_) total += shard->dijkstra_runs;
  return total;
}

std::uint64_t PathOracle::bfs_runs() const {
  std::uint64_t total = retired_bfs_runs_;
  for (const auto& shard : shards_) total += shard->bfs_runs;
  return total;
}

std::uint64_t PathOracle::latency_cache_hits() const {
  std::uint64_t total = retired_latency_hits_;
  for (const auto& shard : shards_) total += shard->latency_hits;
  return total;
}

std::uint64_t PathOracle::hops_cache_hits() const {
  std::uint64_t total = retired_hops_hits_;
  for (const auto& shard : shards_) total += shard->hops_hits;
  return total;
}

std::uint64_t PathOracle::label_queries() const {
  std::uint64_t total = retired_label_queries_;
  for (const auto& shard : shards_) total += shard->label_queries;
  return total;
}

void PathOracle::SetHubLabels(const HubLabels* labels) {
  if (labels != nullptr && !labels->BuiltOver(*graph_)) {
    throw std::invalid_argument(
        "PathOracle::SetHubLabels: labeling was built over a different "
        "graph");
  }
  labels_ = labels;
}

const std::vector<float>& PathOracle::LatencyVector(AsId src, unsigned shard) {
  Shard& s = *shards_.at(shard);
  if (const auto* hit = s.latencies.Find(src)) {
    ++s.latency_hits;
    return *hit;
  }
  ++s.dijkstra_runs;
  return *s.latencies.Insert(src, DijkstraLatency(*graph_, src));
}

PinnedVector<float> PathOracle::LatenciesFrom(AsId src, unsigned shard) {
  Shard& s = *shards_.at(shard);
  if (auto hit = s.latencies.FindShared(src)) {
    ++s.latency_hits;
    return PinnedVector<float>(std::move(hit));
  }
  ++s.dijkstra_runs;
  return PinnedVector<float>(
      s.latencies.Insert(src, DijkstraLatency(*graph_, src)));
}

double PathOracle::LinkLatencyMs(AsId src, AsId dst, unsigned shard) {
  if (labels_ != nullptr) {
    ++shards_.at(shard)->label_queries;
    return labels_->LatencyMs(src, dst);
  }
  return LatencyVector(src, shard)[dst];
}

std::uint32_t PathOracle::Hops(AsId src, AsId dst, unsigned shard) {
  Shard& s = *shards_.at(shard);
  if (const auto* hit = s.hops.Find(src)) {
    ++s.hops_hits;
    return (*hit)[dst];
  }
  ++s.bfs_runs;
  return (*s.hops.Insert(src, BfsHops(*graph_, src)))[dst];
}

float* PathOracle::LabelScratch(Shard& s) DMAP_HOT_PATH_ALLOW(
    "sized once, on the shard's first one-to-K query; every later query "
    "reuses it, so steady-state lookups allocate nothing") {
  if (s.label_scratch.empty()) {
    s.label_scratch.assign(labels_->num_nodes(),
                           std::numeric_limits<float>::infinity());
  }
  return s.label_scratch.data();
}

void PathOracle::RttsMs(AsId src, const AsId* dsts, std::size_t count,
                        double* out, unsigned shard) {
  if (labels_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = RttMs(src, dsts[i], shard);
    }
    return;
  }
  Shard& s = *shards_.at(shard);
  s.label_queries += count;
  float* scratch = LabelScratch(s);
  // Link latencies come back in blocks so the float buffer stays on the
  // stack; each block re-writes src's label, which changes no answer.
  constexpr std::size_t kBlock = 32;
  float link[kBlock];
  const double intra_src = graph_->IntraLatencyMs(src);
  for (std::size_t begin = 0; begin < count; begin += kBlock) {
    const std::size_t n = std::min(kBlock, count - begin);
    labels_->LatenciesTo(src, dsts + begin, n, link, scratch);
    for (std::size_t i = 0; i < n; ++i) {
      const AsId dst = dsts[begin + i];
      // RttMs's formula, term for term.
      out[begin + i] =
          dst == src ? 2.0 * intra_src
                     : 2.0 * (intra_src + double(link[i]) +
                              graph_->IntraLatencyMs(dst));
    }
  }
}

double PathOracle::OneWayMs(AsId src, AsId dst, unsigned shard) {
  if (src == dst) return graph_->IntraLatencyMs(src);
  return graph_->IntraLatencyMs(src) + LinkLatencyMs(src, dst, shard) +
         graph_->IntraLatencyMs(dst);
}

}  // namespace dmap
