// Tests of the harness arithmetic the benchmark's figures rest on.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "harness.hpp"
#include "net/json.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_test.cpp:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

void percentile_rule() {
  using namespace perfbench;
  // Ten samples must lie beyond a reported percentile.
  EXPECT(samples_beyond(100, 900) == 10);
  EXPECT(percentile_supported(100, 900));
  EXPECT(!percentile_supported(99, 900));
  EXPECT(samples_beyond(1000, 990) == 10);
  EXPECT(percentile_supported(1000, 990));
  EXPECT(!percentile_supported(999, 990));
  EXPECT(min_samples_for(900) == 100);
  EXPECT(min_samples_for(990) == 1000);
  EXPECT(min_samples_for(500) == 20);
  EXPECT(samples_beyond(0, 500) == 0);
  // Nearest rank, not interpolation.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(percentile(v, 500) == 50.0);
  EXPECT(percentile(v, 900) == 90.0);
  EXPECT(percentile(v, 990) == 99.0);
  EXPECT(percentile({7.0}, 990) == 7.0);
  EXPECT(percentile({}, 500) == 0.0);
}

void front_door_arithmetic() {
  using perfbench::front_door_ms;
  // Round trip 2.1 ms = 1.0 front door + 0.47 queue + 0.63 exec.
  EXPECT(std::abs(front_door_ms(2.1, 0.47, 0.63) - 1.0) < 1e-12);
  EXPECT(front_door_ms(5.0, 0.0, 0.0) == 5.0);
  // A response claiming more than the round trip shows up negative
  // rather than being clamped away.
  EXPECT(front_door_ms(1.0, 0.6, 0.6) < 0.0);
}

void span_coverage() {
  using perfbench::covered_share;
  EXPECT(covered_share(0, 10, {}) == 0.0);
  EXPECT(covered_share(0, 10, {{0, 10}}) == 1.0);
  // Overlaps count once; parts outside the parent are clipped.
  EXPECT(covered_share(0, 10, {{0, 4}, {2, 6}, {8, 12}}) == 0.8);
  EXPECT(covered_share(0, 10, {{-5, 1}, {9, 9}}) == 0.1);
  EXPECT(covered_share(3, 3, {{0, 10}}) == 0.0);
}

void metric_names_and_units() {
  std::set<std::string> names;
  for (const auto& s : perfbench::end_to_end_metrics()) {
    EXPECT(names.insert(s.name).second);
    EXPECT(std::string(s.unit).size() > 0);
  }
  EXPECT(names.count("setup_s") == 1);
  for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
    EXPECT(names.insert(name).second);
    EXPECT(name.size() <= 64);
    EXPECT(unit.size() > 0 && unit.size() <= 16);
  }
  EXPECT(names.count("chain.alexnet.conv3.pct_peak") == 1);
  EXPECT(names.count("chain.cifar10.executed_over_declared_macs") == 1);
  EXPECT(names.count("net.front_door_ms.p99") == 1);
  EXPECT(perfbench::per_layer_metrics().size() <= 128);
}

void result_line_shape() {
  const std::string line =
      perfbench::result_line(true, 12, 0, {{"latency_p50_ms", "ms", 1.2034}});
  const auto doc = chainnn::net::Json::parse(line);
  EXPECT(doc.has_value());
  if (!doc) return;
  EXPECT(doc->as_object().size() == 4);
  EXPECT(doc->find("correct")->as_bool());
  EXPECT(doc->find("attempted")->as_int() == 12);
  EXPECT(doc->find("failed")->as_int() == 0);
  const auto* m = doc->find("metrics")->find("latency_p50_ms");
  EXPECT(m && m->find("value")->as_double() == 1.2034);
  EXPECT(m && m->find("unit")->as_string() == "ms");
}

}  // namespace

int main() {
  percentile_rule();
  front_door_arithmetic();
  span_coverage();
  metric_names_and_units();
  result_line_shape();
  if (failures) return 1;
  std::puts("harness_test: all checks passed");
  return 0;
}
