// Pure pieces of the perfbench harness: the percentile rule, the
// front-door arithmetic, span coverage, the metric catalogue and the
// result line. Kept apart from the workloads so harness_test.cpp can pin
// them without starting a server.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/json.hpp"

namespace perfbench {

// --- percentiles -----------------------------------------------------------
//
// Percentiles are given in per mille (500 = p50, 900 = p90, 990 = p99)
// so that ranks are integer arithmetic, never a rounded q * n.

// 1-based nearest rank of the `permille` percentile among n samples:
// the smallest rank with at least permille/1000 of the samples at or
// below it.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, int permille) {
  const std::size_t r =
      (static_cast<std::size_t>(permille) * n + 999) / 1000;
  return std::max<std::size_t>(r, 1);
}

// Samples strictly beyond the `permille` percentile of n samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, int permille) {
  return n == 0 ? 0 : n - nearest_rank(n, permille);
}

// The benchmark reports a percentile only where at least ten samples lie
// beyond it; fewer would let one outlier decide the figure.
inline constexpr std::size_t kMinSamplesBeyond = 10;

[[nodiscard]] inline bool percentile_supported(std::size_t n, int permille) {
  return samples_beyond(n, permille) >= kMinSamplesBeyond;
}

// Smallest sample count at which the `permille` percentile is supported.
[[nodiscard]] inline std::size_t min_samples_for(int permille) {
  std::size_t n = kMinSamplesBeyond + 1;
  while (!percentile_supported(n, permille)) ++n;
  return n;
}

// Nearest-rank percentile of `values` (any order; copied and sorted).
[[nodiscard]] inline double percentile(std::vector<double> values,
                                       int permille) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), permille) - 1];
}

// --- derived per-request figures --------------------------------------------

// Time a gateway request spends outside the serving stack: the client's
// round trip less what the response says the request waited in a chip
// queue and executed on the chip. That leaves HTTP parse/serialize, JSON,
// routing, the journal append and the socket hops.
[[nodiscard]] inline double front_door_ms(double round_trip_ms,
                                          double queue_ms, double wall_ms) {
  return round_trip_ms - queue_ms - wall_ms;
}

// Share of [start, end) covered by the union of `children` (each clipped
// to the parent interval). 0 for an empty parent.
[[nodiscard]] inline double covered_share(
    double start, double end, std::vector<std::pair<double, double>> children) {
  if (!(end > start)) return 0.0;
  for (auto& [a, b] : children) {
    a = std::clamp(a, start, end);
    b = std::clamp(b, start, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = start;
  for (const auto& [a, b] : children) {
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered / (end - start);
}

// --- metric catalogue --------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every --trace 0 run prints exactly these, whatever the workload.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"throughput_rps", "1/s"},
      {"latency_p50_ms", "ms"},
      // The highest percentile the workload's sample supports: p90 for
      // the in-process workloads, p99 for the gateway (see kWorkloads).
      {"latency_tail_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"sim_cycles_per_s", "cycles/s"},
      {"modelled_fps", "fps"},
  };
  return specs;
}

// The conv layers the per-layer chain probes cover, by model.
struct ProbedModel {
  const char* model;
  std::vector<const char*> layers;
};

inline const std::vector<ProbedModel>& probed_models() {
  static const std::vector<ProbedModel> models = {
      {"alexnet", {"conv1", "conv2", "conv3", "conv4", "conv5"}},
      {"cifar10", {"conv1", "conv2", "conv3"}},
  };
  return models;
}

// Every --trace 1 run prints exactly these, whatever the workload.
inline std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const ProbedModel& m : probed_models()) {
    const std::string base = std::string("chain.") + m.model + ".";
    for (const char* layer : m.layers) {
      const std::string l = base + layer;
      out.emplace_back(l + ".wall_ms", "ms");
      out.emplace_back(l + ".gmacs", "GMAC/s");
      out.emplace_back(l + ".pct_peak", "%");
      out.emplace_back(l + ".modelled_cycles", "cycles");
      out.emplace_back(l + ".executed_macs", "MACs");
    }
    out.emplace_back(base + "executed_over_declared_macs", "ratio");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"net.front_door_ms.p50", "ms"},
      {"net.front_door_ms.p99", "ms"},
      {"serve.submit_ms.p50", "ms"},
      {"serve.submit_ms.p99", "ms"},
      {"journal.bytes_per_request", "B"},
      {"journal.fsyncs_per_request", "count"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.tail", "ms"},
      {"serve.exec_ms.p50", "ms"},
      {"serve.preemptions", "count"},
      {"serve.plan_cache_hit_rate", "ratio"},
      {"serve.arena_reuse_rate", "ratio"},
      {"bench.host_peak_gmacs", "GMAC/s"},
      {"bench.tracing_overhead", "ratio"},
      {"bench.span_coverage", "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

// --- result line -------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// The one-line JSON object the benchmark prints last.
[[nodiscard]] inline std::string result_line(bool correct,
                                             std::int64_t attempted,
                                             std::int64_t failed,
                                             const std::vector<Metric>& metrics) {
  using chainnn::net::Json;
  using chainnn::net::JsonObject;
  JsonObject m;
  for (const Metric& metric : metrics) {
    JsonObject entry;
    entry.emplace_back("value", Json(metric.value));
    entry.emplace_back("unit", Json(metric.unit));
    m.emplace_back(metric.name, Json(std::move(entry)));
  }
  return Json(JsonObject{{"correct", Json(correct)},
                         {"attempted", Json(attempted)},
                         {"failed", Json(failed)},
                         {"metrics", Json(std::move(m))}})
      .dump();
}

}  // namespace perfbench
