// dmapbench: shared declarations of the benchmark harness. The harness
// drives the repository only through the public APIs of its src/ modules:
// it generates each workload's inputs from a seed, hands the program the
// generated operations, times fixed work in windows, and checks every
// answer against the mapping state it committed itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dmap_service.h"
#include "core/mapping.h"

namespace dmapbench {

using dmap::AsId;
using dmap::Guid;
using dmap::MappingEntry;
using dmap::NetworkAddress;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  unsigned threads = 4;
  // Sizes the fixed work of a full run: each workload's operation count is
  // a pinned multiple of it, calibrated so the measured phase takes about
  // this many seconds on a 4-core x86 box at the commit that added it.
  int seconds = 10;
};

// A run of consecutive operations; op_us_* are computed over windows.
struct Window {
  std::int64_t ns = 0;
  std::uint32_t ops = 0;
  std::uint32_t worker = 0;
};

enum OpKind : std::uint8_t { kLookup = 0, kUpdate = 1 };
enum OpFlag : std::uint8_t {
  kFound = 1,
  kStale = 2,  // answered with an NA older than the committed one
  kWrong = 4,  // violated the correctness gate
};

// Outcome of one operation, written into the slot of its op index so every
// deterministic metric is independent of the worker count.
struct OpOutcome {
  double vms = 0.0;  // simulated completion time, ms
  std::uint16_t attempts = 0;
  std::uint8_t kind = kLookup;
  std::uint8_t flags = 0;
};

// The timed calls of a traced pass. Every call is timed and accumulated;
// only sampled ones are kept as spans.
enum SpanName : std::uint8_t {
  kSpanWindow,
  kSpanLookup,
  kSpanBatchUpdate,
  kSpanRefreshReadSnapshots,
  kSpanRefreshResolverSnapshot,
  kSpanCacheApplyFills,
  kSpanCacheRefreshSnapshots,
  kSpanStoreRefresh,
  kSpanSimWindow,
  kNumSpanNames,
};
const char* SpanNameString(SpanName name);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // first op index the span covers
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanName name = kSpanWindow;
};

// In-memory span log with one lane per worker; written out once at exit.
class Tracer {
 public:
  Tracer(unsigned workers, std::uint64_t sample_every);

  // A span id unique across workers, reserved when the span opens.
  std::uint64_t NextId(unsigned worker) {
    return (std::uint64_t(worker + 1) << 40) | ++lanes_[worker].next_id;
  }
  bool Sampled(std::uint64_t op) const { return op % sample_every_ == 0; }

  // Accounts one timed call of `name` covering `units` operations (GUIDs
  // for BatchUpdate), and keeps it as a span when `keep`.
  void Record(unsigned worker, const Span& span, std::uint64_t units,
              bool keep);

  struct Totals {
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t units = 0;
  };
  Totals Total(SpanName name) const;

  bool WriteJson(const std::string& path, std::int64_t origin_ns) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    Totals totals[kNumSpanNames];
    std::uint64_t next_id = 0;
  };
  std::uint64_t sample_every_;
  std::vector<Lane> lanes_;
};

// Counts a traced pass reads from the public counters and the registry;
// the per-layer metrics divide them by lookups or operations.
struct LayerCounts {
  std::uint64_t resolves = 0;             // Algorithm 1 resolutions, all ops
  std::uint64_t hash_evals = 0;           // SipHash evaluations, all ops
  std::uint64_t lookup_resolves = 0;      // ... on the lookup path
  std::uint64_t lookup_hash_evals = 0;
  std::uint64_t point_queries = 0;        // hub-label point queries
  std::uint64_t lookup_point_queries = 0;
  std::uint64_t vector_queries = 0;       // LatenciesFrom calls
  std::uint64_t vector_hits = 0;          // ... answered by the LRU
  std::uint64_t store_reads = 0;          // lookup-path store reads
  std::uint64_t store_upserts = 0;        // write-path replica writes
  std::uint64_t cache_probes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t tier_arrivals = 0;
  std::uint64_t tier_shed = 0;
  double hot_share = 0.0;
  double queue_wait_sum_ms = 0.0;  // over found lookups
  std::uint64_t queue_wait_n = 0;
  std::uint64_t wire_messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t events = 0;               // simulator events executed
  std::uint64_t refreshes = 0;            // serial snapshot refresh points
  double mean_queue_depth = 0.0;          // pending events at window ends
};

struct PassResult {
  // One outcome per distinct operation. A pass may execute a read-only
  // stream more than once; `lookups` and `updates` count executions.
  std::vector<OpOutcome> ops;
  std::vector<Window> windows;
  unsigned workers = 1;
  double wall_s = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t updates = 0;
  // The operation's message accounting: wire messages, or for the closed
  // form a request and a reply per replica probed or batch destination.
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;  // encoded wire bytes (wire executor only)
  std::uint64_t violations = 0;   // correctness-gate failures
  std::string first_violation;    // description of the first one
  LayerCounts counts;             // traced passes only
};

// Recorded inputs the replay legs time each layer with: the first
// lookups of the stream, in op order.
struct LayerSample {
  std::vector<Guid> guids;
  std::vector<AsId> queriers;
  std::vector<NetworkAddress> answers;  // the committed NA of each lookup
  std::vector<double> times_ms;         // arrival times (simulated)
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the environment, generates the inputs from the seed and bulk
  // loads the mappings. Timed as setup_s.
  virtual void Setup() = 0;
  // The measured phase: fixed work, the same on every commit. `tracer`
  // is null for the timed run.
  virtual PassResult Run(Tracer* tracer) = 0;
  // Post-run cross-checks (quiescent state); appends failures.
  virtual void Verify(std::vector<std::string>& failures) { (void)failures; }

  // ---- Traced-run hooks for the replay legs. ----
  virtual LayerSample Sample(std::size_t max_lookups) = 0;
  // The service whose hash family, resolver and oracle the legs replay;
  // for the wire executor one built over the same environment.
  virtual dmap::DMapService& ReplayService() = 0;
  // A read of the executor's own mapping store.
  virtual const MappingEntry* LiveStoreRead(AsId as, const Guid& guid) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config);
const std::vector<std::string>& WorkloadNames();

// One reported metric. A deterministic metric is a function of the seed
// and the model alone (simulated time, message and outcome counts): any
// change of it is a change of the model's outputs.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool deterministic = false;
};

// Replays recorded inputs through each layer and derives the per-layer
// metrics of a traced run from the traced and untraced passes.
std::vector<Metric> MeasureLayers(Workload& workload, const RunConfig& config,
                                  const PassResult& untraced,
                                  const PassResult& traced,
                                  const Tracer& tracer);

}  // namespace dmapbench
