#include "serve/serving_config.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dmap {

void ServingConfig::Validate() const {
  if (!(service_rate_per_s > 0.0) || !std::isfinite(service_rate_per_s)) {
    throw std::invalid_argument(
        "ServingConfig: service_rate must be a positive finite rate");
  }
  if (concurrency < 1) {
    throw std::invalid_argument("ServingConfig: concurrency < 1");
  }
  if (queue_depth < 0) {
    throw std::invalid_argument("ServingConfig: queue_depth < 0");
  }
  if (bucket_rate_per_s < 0.0 || !std::isfinite(bucket_rate_per_s)) {
    throw std::invalid_argument(
        "ServingConfig: bucket_rate must be a non-negative finite rate");
  }
  if (admission == AdmissionPolicy::kTokenBucket && bucket_rate_per_s > 0.0 &&
      !(bucket_burst >= 1.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "ServingConfig: bucket_burst < 1 with an active token bucket");
  }
}

namespace {

ServiceModel ParseModel(const std::string& name) {
  if (name == "deterministic") return ServiceModel::kDeterministic;
  if (name == "exponential") return ServiceModel::kExponential;
  throw std::invalid_argument("ServingConfig: model must be 'deterministic'"
                              " or 'exponential', got '" + name + "'");
}

AdmissionPolicy ParseAdmission(const std::string& name) {
  if (name == "token_bucket") return AdmissionPolicy::kTokenBucket;
  if (name == "none") return AdmissionPolicy::kNone;
  throw std::invalid_argument("ServingConfig: admission must be "
                              "'token_bucket' or 'none', got '" + name + "'");
}

}  // namespace

const char* ServiceModelName(ServiceModel model) {
  return model == ServiceModel::kDeterministic ? "deterministic"
                                               : "exponential";
}

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  return policy == AdmissionPolicy::kTokenBucket ? "token_bucket" : "none";
}

namespace {

// Reads every key of a serving config; `where` ends the unknown-key error.
ServingConfig FromConfig(const Config& config, bool default_enabled,
                         const std::string& where) {
  ServingConfig serving;
  serving.enabled = config.GetBool("enabled", default_enabled);
  serving.model = ParseModel(config.GetString("model", "deterministic"));
  serving.service_rate_per_s =
      config.GetDouble("service_rate", serving.service_rate_per_s);
  serving.concurrency = config.GetInt("concurrency", serving.concurrency);
  serving.queue_depth = config.GetInt("queue_depth", serving.queue_depth);
  serving.admission =
      ParseAdmission(config.GetString("admission", "token_bucket"));
  serving.bucket_rate_per_s =
      config.GetDouble("bucket_rate", serving.bucket_rate_per_s);
  serving.bucket_burst = config.GetDouble("bucket_burst", serving.bucket_burst);
  serving.seed = config.GetInt("seed", serving.seed);
  serving.Validate();
  const auto unused = config.UnusedKeys();
  if (!unused.empty()) {
    throw std::invalid_argument("ServingConfig: unknown key '" + unused[0] +
                                "'" + where);
  }
  return serving;
}

}  // namespace

ServingConfig ServingConfig::ParseString(const std::string& text,
                                         bool default_enabled) {
  return FromConfig(Config::ParseString(text), default_enabled, "");
}

ServingConfig ServingConfig::ParseFile(const std::string& path) {
  return FromConfig(Config::ParseFile(path), /*default_enabled=*/true,
                    " in " + path);
}

ServingConfig ServingConfig::ParseArg(const std::string& arg) {
  if (arg.find('=') == std::string::npos) return ParseFile(arg);
  // Inline form: commas separate `k=v` pairs; rewrite to the line-oriented
  // config syntax. Passing the flag at all implies enabled=true.
  std::string text = arg;
  std::replace(text.begin(), text.end(), ',', '\n');
  return ParseString(text, /*default_enabled=*/true);
}

ServingConfig ServingConfig::FromOption(const Config& options) {
  return options.GetParsed("serving", ServingConfig{}, ParseArg);
}

}  // namespace dmap
