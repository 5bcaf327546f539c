// Figure 9: consistency under churn — stale-read probability and the
// durability window of the quorum disciplines (DESIGN.md section 14).
//
// Each leg runs the full wire protocol through three phases per trial:
// a fault-free v1 insert wave, a v2 update wave issued while a
// deterministic set of "flaky" replica hosts is down (the churn — these
// hosts miss the update and come back holding stale v1 entries), and a
// staggered lookup wave after the hosts recover. Staleness is scored
// bench-side — a found lookup whose NA set lacks the v2 locator even
// though the v2 write reported kOk — so the legacy leg, whose network
// deliberately keeps no consistency instruments, is measured by the same
// yardstick as the quorum legs. The network's own consistency.* counters
// are reported alongside.
//
// Default sweep (override with --write-quorum/--read-quorum/--anti-entropy
// to run one custom leg instead):
//   W=1 R=1          the paper's fire-and-wait-all mode: updates "succeed"
//                    no matter how many replicas applied them, and reads
//                    trust the first replier — a seed-stable nonzero stale
//                    fraction, invisible to the protocol itself.
//   W=maj R=1        majority writes fail loudly (quorum fails column) but
//                    single-response reads still hit stale replicas.
//   W=maj R=2        overlapping quorums (W + R > K): every read covers at
//                    least one replica of the last acknowledged write —
//                    stale reads drop to zero, stale repliers get repaired.
//   W=maj R=1 +AE    anti-entropy converges the stale replicas in the
//                    background; the durability window column is the sim
//                    time the rounds took.
//
// A --fault-plan file contributes scheduled windows (shifted to start
// after the insert phase) plus duplication/jitter — duplicates exercise
// the idempotent-repair path. Trials are the parallel unit and merge in
// trial order: exports are byte-identical for any --threads value.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "core/mapping.h"
#include "fault/fault_plan.h"
#include "proto/network.h"
#include "runtime/thread_pool.h"
#include "sim/environment.h"
#include "workload/workload.h"

namespace {

using namespace dmap;

struct Leg {
  std::string label;
  int write_quorum;   // ProtocolNetworkOptions::write_quorum
  int read_quorum;    // ProtocolNetworkOptions::read_quorum
  int anti_entropy;   // per-round GUID budget; 0 = off
};

// Anti-entropy rounds stop converging when a replica never comes back (an
// `inf` outage in the fault plan): cap the loop (relative to how many
// rounds one full cursor wrap takes) and report the truncation rather
// than spinning forever.
constexpr std::uint64_t kMaxAntiEntropyWraps = 8;

struct TrialResult {
  std::uint64_t found = 0;
  std::uint64_t total = 0;
  std::uint64_t stale_found = 0;       // bench-side staleness score
  std::uint64_t failed_writes = 0;     // v2 updates ending kQuorumFailed
  std::uint64_t stale_replicas_pre = 0;
  std::uint64_t stale_replicas_post = 0;
  std::uint64_t ae_rounds = 0;
  double window_ms = 0.0;              // sim time the AE rounds took
  bool ae_converged = true;
  // Network-side instruments (zero on the legacy leg by design).
  std::uint64_t stale_reads = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t quorum_failures = 0;
  std::uint64_t anti_entropy_repairs = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dmap;
  const Config args = Config::FromArgs(argc, argv);
  const double scale = bench::Scale(args);
  const SimConfig sim = SimConfig::FromConfig(args);
  const bench::FaultPlanArg fault_plan = bench::ReadFaultPlan(args);
  const std::uint64_t fault_seed = bench::FaultSeed(args);
  const std::optional<int> write_quorum = bench::WriteQuorum(args);
  const std::optional<int> read_quorum = bench::ReadQuorum(args);
  const std::optional<int> anti_entropy = bench::AntiEntropy(args);
  bench::CheckArgs(args);

  std::vector<Leg> legs;
  if (write_quorum || read_quorum || anti_entropy) {
    Leg custom;
    custom.write_quorum = write_quorum.value_or(0);
    custom.read_quorum = read_quorum.value_or(1);
    custom.anti_entropy = anti_entropy.value_or(0);
    custom.label = "W=" + (custom.write_quorum == 0
                               ? std::string("maj")
                               : std::to_string(custom.write_quorum)) +
                   " R=" + std::to_string(custom.read_quorum) +
                   (custom.anti_entropy > 0
                        ? " AE=" + std::to_string(custom.anti_entropy)
                        : "");
    legs.push_back(custom);
  } else {
    legs = {{"W=1 R=1 (paper)", 1, 1, 0},
            {"W=maj R=1", 0, 1, 0},
            {"W=maj R=2", 0, 2, 0},
            {"W=maj R=1 +AE", 0, 1, 16}};
  }

  ThreadPool pool(sim.threads);
  std::printf("=== Figure 9: stale reads and durability vs quorum ===\n");
  std::printf("scale=%.3f threads=%u fault_plan=%s fault_seed=%llu\n\n",
              scale, pool.size(),
              fault_plan.path.empty() ? "(none)" : fault_plan.path.c_str(),
              static_cast<unsigned long long>(fault_seed));

  SimEnvironment env = BuildEnvironment(EnvironmentParams::Scaled(
      bench::ScaledU32(2000, scale, 200)));
  // Wire-path distances are point queries: every trial's oracle answers
  // them from the shared labels.
  const HubLabels* labels = EnsureHubLabels(env, sim.threads);

  ObservabilitySinks obs(sim);
  if (obs.registry() != nullptr) obs.registry()->EnsureWorkers(pool.size());
  if (obs.tracer() != nullptr) obs.tracer()->EnsureWorkers(pool.size());

  const std::uint64_t num_guids = bench::Scaled(1'000, scale, 150);
  const std::uint64_t num_lookups = bench::Scaled(3'000, scale, 400);
  const std::size_t trials = 4;

  TextTable table({"leg", "found", "stale reads", "stale %", "net stale",
                   "read repairs", "quorum fails", "AE rounds", "AE repairs",
                   "stale replicas", "window (ms)"});
  bool any_truncated = false;
  for (std::size_t leg_index = 0; leg_index < legs.size(); ++leg_index) {
    const Leg& leg = legs[leg_index];
    ProtocolNetworkOptions net_options;
    net_options.k = 3;
    // No local replica: every read must cross the wire, so replica
    // staleness is actually observable from the querier.
    net_options.local_replica = false;
    net_options.probe_retries = 2;
    net_options.write_quorum = leg.write_quorum;
    net_options.read_quorum = leg.read_quorum;
    net_options.anti_entropy_budget = leg.anti_entropy;
    // Metric registration is a serial phase (obs/metrics_registry.h): a
    // throwaway network registers this leg's instruments before the trials
    // share the registry, so their SetMetrics calls only look up.
    if (obs.registry() != nullptr) {
      ProtocolNetwork(env.graph, env.table, net_options)
          .SetMetrics(obs.registry());
    }

    std::vector<TrialResult> results(trials);
    pool.ParallelFor(0, trials, [&](std::size_t trial, unsigned worker) {
      ProtocolNetwork net(env.graph, env.table, net_options);
      net.oracle().SetHubLabels(labels);
      net.SetMetrics(obs.registry(), worker);
      net.SetTracer(obs.tracer(), worker);

      WorkloadParams workload_params;
      workload_params.num_guids = num_guids;
      workload_params.seed = 100 + trial;
      WorkloadGenerator workload(env.graph, workload_params);

      // Phase 1 — v1 inserts, fault-free; record where each GUID lives
      // and the v2 locator its update will carry (same attachment AS,
      // flipped locator bit, so "has v2" is one NA-set membership test).
      struct GuidState {
        NetworkAddress na2;
        std::vector<AsId> replicas;
        bool v2_ok = false;
      };
      const std::vector<InsertOp> inserts = workload.Inserts();
      std::vector<GuidState> states(inserts.size());
      std::unordered_map<Guid, std::size_t, GuidHash> index;
      index.reserve(inserts.size());
      for (std::size_t i = 0; i < inserts.size(); ++i) {
        index.emplace(inserts[i].guid, i);
        states[i].na2 = NetworkAddress{inserts[i].na.as,
                                       inserts[i].na.locator ^ 0x80000000u};
        net.InsertAsync(inserts[i].guid, inserts[i].na,
                        [&states, i](const UpdateResult& r) {
                          states[i].replicas = r.replicas;
                        });
      }
      net.simulator().Run();

      // Chaos starts now: plan windows shift past the insert phase, and
      // fates are keyed off (leg, trial) only — never the worker.
      net.ApplyFaultPlan(
          ShiftPlan(fault_plan.plan, net.simulator().Now()),
          fault_seed ^ (0x9e3779b97f4a7c15ULL * (leg_index + 1)) ^
              (0xbf58476d1ce4e5b9ULL * (trial + 1)));

      // Phase 2 — churn: a deterministic ~quarter of the replica hosts
      // goes down (no wipe: they keep v1), the v2 update wave runs, then
      // the hosts recover — holding entries one version behind.
      std::vector<AsId> flaky;
      {
        std::vector<AsId> hosts;
        for (const GuidState& s : states) {
          hosts.insert(hosts.end(), s.replicas.begin(), s.replicas.end());
        }
        std::sort(hosts.begin(), hosts.end());
        hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
        for (const AsId as : hosts) {
          if ((as + 7919u * std::uint32_t(trial)) * 2654435761u % 8u < 2u) {
            flaky.push_back(as);
          }
        }
      }
      for (const AsId as : flaky) net.FailAs(as);

      TrialResult& result = results[trial];
      std::size_t next_update = 0;
      net.simulator().ScheduleRepeating(
          SimTime::Millis(1.0), [&net, &inserts, &states, &result,
                                 &next_update] {
            const std::size_t i = next_update++;
            net.InsertAsync(inserts[i].guid, states[i].na2,
                            [&states, &result, i](const UpdateResult& r) {
                              states[i].v2_ok =
                                  r.status == ResolverStatus::kOk;
                              if (r.status == ResolverStatus::kQuorumFailed) {
                                ++result.failed_writes;
                              }
                            });
            return next_update < inserts.size();
          });
      net.simulator().Run();
      for (const AsId as : flaky) net.RecoverAs(as);

      // Phase 3 — staggered lookups. A found result is stale when the v2
      // write was acknowledged kOk yet the answer lacks the v2 locator.
      const std::vector<LookupOp> lookups = workload.Lookups(num_lookups);
      if (!lookups.empty()) {
        std::size_t next_lookup = 0;
        net.simulator().ScheduleRepeating(
            SimTime::Millis(2.0),
            [&net, &lookups, &states, &index, &result, &next_lookup] {
              const LookupOp& op = lookups[next_lookup++];
              net.LookupAsync(
                  op.guid, op.source,
                  [&states, &index, &result,
                   guid = op.guid](const LookupResult& r) {
                    ++result.total;
                    if (!r.found) return;
                    ++result.found;
                    const GuidState& s = states[index.at(guid)];
                    if (s.v2_ok && !r.nas.Contains(s.na2)) {
                      ++result.stale_found;
                    }
                  });
              return next_lookup < lookups.size();
            });
        net.simulator().Run();
      }

      // Replica census: how many stored copies are behind the freshest
      // stamp their GUID reached anywhere in its replica set?
      const auto stale_replicas = [&net, &inserts, &states] {
        std::uint64_t stale = 0;
        for (std::size_t i = 0; i < inserts.size(); ++i) {
          LogicalStamp best{};
          bool any = false;
          for (const AsId as : states[i].replicas) {
            const MappingEntry* e =
                net.node(as).store().Lookup(inserts[i].guid);
            if (e != nullptr && (!any || best < e->stamp())) {
              best = e->stamp();
              any = true;
            }
          }
          if (!any) continue;
          for (const AsId as : states[i].replicas) {
            const MappingEntry* e =
                net.node(as).store().Lookup(inserts[i].guid);
            if (e == nullptr || e->stamp() < best) ++stale;
          }
        }
        return stale;
      };

      // Phase 4 — anti-entropy at the serial write point. A zero-repair
      // round only proves the `budget` GUIDs under the cursor were clean,
      // so convergence requires a full cursor wrap of consecutive zero
      // rounds; the sim time the repairs take is the durability window.
      result.stale_replicas_pre = stale_replicas();
      const SimTime ae_start = net.simulator().Now();
      if (leg.anti_entropy > 0 && !inserts.empty()) {
        const std::uint64_t wrap_rounds =
            (inserts.size() + std::uint64_t(leg.anti_entropy) - 1) /
            std::uint64_t(leg.anti_entropy);
        std::uint64_t zero_streak = 0;
        while (true) {
          const int sent = net.RunAntiEntropyRound();
          ++result.ae_rounds;
          if (sent == 0) {
            if (++zero_streak >= wrap_rounds) break;
          } else {
            zero_streak = 0;
            net.simulator().Run();
          }
          if (result.ae_rounds >= kMaxAntiEntropyWraps * wrap_rounds) {
            result.ae_converged = false;
            break;
          }
        }
        result.window_ms = (net.simulator().Now() - ae_start).millis();
      }
      result.stale_replicas_post = stale_replicas();

      result.stale_reads = net.stale_reads();
      result.read_repairs = net.read_repairs();
      result.quorum_failures = net.quorum_failures();
      result.anti_entropy_repairs = net.anti_entropy_repairs();
    });

    // Merge in trial order: thread-count independent.
    TrialResult merged;
    double window_ms = 0.0;
    for (const TrialResult& r : results) {
      merged.found += r.found;
      merged.total += r.total;
      merged.stale_found += r.stale_found;
      merged.failed_writes += r.failed_writes;
      merged.stale_replicas_pre += r.stale_replicas_pre;
      merged.stale_replicas_post += r.stale_replicas_post;
      merged.ae_rounds += r.ae_rounds;
      merged.stale_reads += r.stale_reads;
      merged.read_repairs += r.read_repairs;
      merged.quorum_failures += r.quorum_failures;
      merged.anti_entropy_repairs += r.anti_entropy_repairs;
      if (r.window_ms > window_ms) window_ms = r.window_ms;
      if (!r.ae_converged) {
        merged.ae_converged = false;
        any_truncated = true;
      }
    }
    table.AddRow(
        {leg.label,
         TextTable::FormatDouble(
             100.0 * double(merged.found) / double(merged.total), 2) +
             "%",
         std::to_string(merged.stale_found),
         TextTable::FormatDouble(
             merged.found > 0
                 ? 100.0 * double(merged.stale_found) / double(merged.found)
                 : 0.0,
             2) +
             "%",
         std::to_string(merged.stale_reads),
         std::to_string(merged.read_repairs),
         std::to_string(merged.failed_writes),
         merged.ae_converged ? std::to_string(merged.ae_rounds)
                             : std::to_string(merged.ae_rounds) + "+",
         std::to_string(merged.anti_entropy_repairs),
         std::to_string(merged.stale_replicas_pre) + " -> " +
             std::to_string(merged.stale_replicas_post),
         leg.anti_entropy > 0 ? TextTable::FormatDouble(window_ms) : "-"});
  }
  std::printf("%s\n", table.Render().c_str());
  if (any_truncated) {
    std::printf(
        "note: anti-entropy stopped after %llu full cursor wraps without\n"
        "converging (a replica in the fault plan never recovered); the\n"
        "AE rounds column marks the truncated leg with '+'.\n",
        static_cast<unsigned long long>(kMaxAntiEntropyWraps));
  }
  std::printf(
      "expected: the paper's W=1/R=1 mode reports success on every update\n"
      "yet serves a seed-stable stale fraction; overlapping quorums\n"
      "(W + R > K) read their writes — stale reads drop to zero and stale\n"
      "repliers are repaired in-line; anti-entropy closes the remaining\n"
      "durability window without read traffic.\n");
  obs.Finish();
  return 0;
}
