// ServingConfig: the validated knob surface of the serving tier (per-AS
// mapping-server capacity model). The paper assumes "sufficient resources
// ... at the mapping server" (Section IV-B); the serving tier drops that
// assumption, so every capacity experiment needs the same handful of
// parameters — service model, concurrency, queue bound, token-bucket
// admission. They are parsed once, here, from either a standalone file or
// an inline `k=v,...` string (the single `--serving=` flag of the bench
// drivers), never as N separate flags:
//
//   # configs/*.serving — common/config.h syntax
//   enabled      = true
//   model        = deterministic     # deterministic | exponential
//   service_rate = 2000              # requests/second per server AS
//   concurrency  = 1                 # servers per AS (c of an M/M/c)
//   queue_depth  = 64                # waiting slots; overflow is shed
//   admission    = token_bucket      # token_bucket | none
//   bucket_rate  = 0                 # tokens/second; 0 = unlimited
//   bucket_burst = 32                # bucket capacity
//   seed         = 1                 # exponential service-time draws
//
// Like DMapOptions, Validate() throws std::invalid_argument naming the
// offending field, so a typo fails before any compute is spent. The parser
// reads each key at its field's type (a count that does not fit an int, a
// NaN or an infinity is refused there); Validate() states the ranges.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.h"

namespace dmap {

enum class ServiceModel : std::uint8_t {
  kDeterministic,  // every request costs exactly 1/service_rate seconds
  kExponential,    // i.i.d. exponential, mean 1/service_rate (M/M/c)
};

enum class AdmissionPolicy : std::uint8_t {
  kTokenBucket,  // refill at bucket_rate, capacity bucket_burst; an arrival
                 // finding no token is shed before it can queue
  kNone,         // every arrival may queue (the bounded queue still sheds)
};

struct ServingConfig {
  // Master switch. Off = the infinite-capacity model the repo had before
  // the serving tier existed: harnesses must be bit-identical to that
  // behaviour when disabled.
  bool enabled = false;

  ServiceModel model = ServiceModel::kDeterministic;
  // Per-server request service rate (mu), requests/second.
  double service_rate_per_s = 2000.0;
  // Parallel servers per AS (the c of M/M/c). Requests beyond `concurrency`
  // wait in the FIFO queue.
  int concurrency = 1;
  // Waiting slots (excluding the in-service requests). An arrival that
  // would be the (queue_depth+1)-th waiter is shed.
  int queue_depth = 64;

  AdmissionPolicy admission = AdmissionPolicy::kTokenBucket;
  // Token refill rate, tokens/second. 0 disables the rate limit even under
  // kTokenBucket (an always-full bucket).
  double bucket_rate_per_s = 0.0;
  // Bucket capacity (burst size).
  double bucket_burst = 32.0;

  // Seed of the exponential service-time draws. Draws are pure functions of
  // (seed, server AS, per-server arrival index) — SplitMix64, no shared
  // stream — so a run is replayable and thread-count independent.
  std::uint64_t seed = 1;

  // Throws std::invalid_argument naming the offending field when the
  // configuration is inconsistent (non-positive service_rate, concurrency
  // < 1, negative queue_depth/bucket_rate, bucket_burst < 1 while the
  // token bucket is active).
  void Validate() const;

  // Mean service time in milliseconds (1000 / service_rate).
  double MeanServiceMs() const { return 1000.0 / service_rate_per_s; }

  // Parsers; all reject unknown keys and Validate() before returning.
  // `default_enabled` covers the `--serving=` use: passing the flag implies
  // enabled=true unless the config says otherwise.
  static ServingConfig ParseString(const std::string& text,
                                   bool default_enabled = false);
  static ServingConfig ParseFile(const std::string& path);
  // The `--serving=<file|inline k=v,...>` argument: a value containing '='
  // is inline (commas separate pairs), anything else is a file path.
  // Inline and file forms accept the same keys.
  static ServingConfig ParseArg(const std::string& arg);
  // The `serving` option of the bench command line and of run_experiment
  // configs, in ParseArg form; absent or empty = the disabled default. A
  // bad value throws std::runtime_error naming the option.
  static ServingConfig FromOption(const Config& options);
};

const char* ServiceModelName(ServiceModel model);
const char* AdmissionPolicyName(AdmissionPolicy policy);

}  // namespace dmap
