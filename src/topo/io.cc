#include "topo/io.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dmap {
namespace {

[[noreturn]] void ParseError(int line, const std::string& what) {
  throw std::runtime_error("topology parse error at line " +
                           std::to_string(line) + ": " + what);
}

}  // namespace

void SaveTopology(const AsGraph& graph, std::ostream& out) {
  out << "dmap-topology v1\n";
  out << "nodes " << graph.num_nodes() << "\n";
  out << "links " << graph.num_links() << "\n";
  // max_digits10: doubles survive the text round trip bit-exactly.
  out.precision(17);
  for (AsId v = 0; v < graph.num_nodes(); ++v) {
    out << "node " << v << " " << graph.IntraLatencyMs(v) << " "
        << graph.EndNodeWeight(v) << "\n";
  }
  for (const AsLink& link : graph.links()) {
    out << "link " << link.a << " " << link.b << " " << link.latency_ms
        << "\n";
  }
}

void SaveTopologyToFile(const AsGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  SaveTopology(graph, out);
  if (!out) throw std::runtime_error("write failed: " + path);
}

AsGraph LoadTopology(std::istream& in) {
  int line_no = 0;
  std::string line;
  const auto next_line = [&]() -> std::string& {
    if (!std::getline(in, line)) ParseError(line_no, "unexpected end of file");
    ++line_no;
    return line;
  };

  if (next_line() != "dmap-topology v1") {
    ParseError(line_no, "bad magic (expected 'dmap-topology v1')");
  }

  std::uint32_t n = 0;
  std::uint64_t m = 0;
  {
    std::istringstream s(next_line());
    std::string tag;
    if (!(s >> tag >> n) || tag != "nodes") ParseError(line_no, "bad 'nodes'");
    if (n > kMaxTopologyNodes) {
      ParseError(line_no, "'nodes' " + std::to_string(n) + " exceeds " +
                              std::to_string(kMaxTopologyNodes));
    }
  }
  {
    std::istringstream s(next_line());
    std::string tag;
    if (!(s >> tag >> m) || tag != "links") ParseError(line_no, "bad 'links'");
    if (m > kMaxTopologyLinks) {
      ParseError(line_no, "'links' " + std::to_string(m) + " exceeds " +
                              std::to_string(kMaxTopologyLinks));
    }
  }

  std::vector<double> intra(n), weights(n);
  std::vector<bool> seen(n, false);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::istringstream s(next_line());
    std::string tag;
    std::uint32_t id;
    double lat, w;
    if (!(s >> tag >> id >> lat >> w) || tag != "node" || id >= n) {
      ParseError(line_no, "bad 'node' record");
    }
    if (seen[id]) ParseError(line_no, "duplicate node id");
    seen[id] = true;
    intra[id] = lat;
    weights[id] = w;
  }

  std::vector<AsLink> links;
  links.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::istringstream s(next_line());
    std::string tag;
    AsLink link{};
    if (!(s >> tag >> link.a >> link.b >> link.latency_ms) || tag != "link") {
      ParseError(line_no, "bad 'link' record");
    }
    links.push_back(link);
  }

  return AsGraph(n, links, std::move(intra), std::move(weights));
}

AsGraph LoadTopologyFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return LoadTopology(in);
}

}  // namespace dmap
