// Fleet demo: serve a mixed VGG-proxy / LeNet-proxy request trace on the
// 3-chip heterogeneous fleet (288 / 576 / 1152 PEs at staggered clocks)
// and show deadline-aware earliest-finish routing beating the best
// single chip on modelled throughput.
//
// Every request's latency on every chip is a closed form of the
// (layer geometry, array shape) pair — the Chain-NN property the router
// exploits — so the "what would one chip have needed" comparison is
// exact, not sampled. The demo exits non-zero if the fleet fails to
// beat the best single chip, a fidelity sample diverges, or any request
// fails: it doubles as a smoke test of the whole serving stack.
//
//   ./fleet_demo [--requests=24] [--scale=16] [--threads-per-chip=1]
//                [--fidelity-every=0]
//
// Fidelity sampling defaults to off here: a cycle-accurate replay of a
// VGG-proxy request takes minutes of host time and stalls its chip's
// worker long enough to blow realistic deadlines (bench_micro --fleet
// keeps sampling on, over proxies small enough to replay quickly).
#include <future>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "serve/fleet.hpp"
#include "serve/sweep_driver.hpp"

using namespace chainnn;

int main(int argc, char** argv) {
  CliFlags flags;
  std::string err;
  const std::map<std::string, std::string> defaults = {
      {"requests", "24"},
      {"scale", "16"},
      {"threads-per-chip", "1"},
      {"fidelity-every", "0"}};
  if (!flags.parse(argc, argv, defaults, &err)) {
    std::cerr << err << "\n" << CliFlags::usage(defaults);
    return 1;
  }
  const std::int64_t requests = std::max<std::int64_t>(3,
                                                       flags.get_int("requests"));
  const std::int64_t scale = std::max<std::int64_t>(1, flags.get_int("scale"));

  // Channel-reduced proxies keep every layer's spatial geometry but
  // divide the channel counts, so full networks execute in milliseconds
  // while still exercising VGG's deep 3x3 stacks vs LeNet's small maps.
  const nn::NetworkModel vgg = serve::channel_reduced_proxy(nn::vgg16(), scale);
  const nn::NetworkModel lenet =
      serve::channel_reduced_proxy(nn::lenet_mnist(), 2);

  serve::FleetOptions fo;
  fo.threads_per_chip =
      std::max<std::int64_t>(1, flags.get_int("threads-per-chip"));
  fo.fidelity_sample_every_n = flags.get_int("fidelity-every");
  fo.preemption = true;  // higher tiers evict running lower-tier work
  serve::Fleet fleet(fo);

  std::cout << "fleet:\n";
  for (const serve::ChipSpec& chip : fleet.chips())
    std::cout << "  " << chip.name << ": " << chip.array.num_pes << " PEs @ "
              << strings::fmt_fixed(chip.array.clock_hz / 1e6, 0) << " MHz\n";

  // Mixed trace: VGG-heavy with LeNet interleave, batches 1/2/4, a
  // high-priority tier every fourth request, deadlines on every other.
  std::vector<serve::FleetTraceEntry> trace;
  for (std::int64_t i = 0; i < requests; ++i) {
    serve::FleetTraceEntry e;
    e.net = (i % 3 == 1) ? &lenet : &vgg;
    e.batch = std::int64_t{1} << (i % 3);
    if (i % 4 == 0) e.options.priority = 1;
    if (i % 2 == 1) e.options.deadline_ms = 600e3;
    trace.push_back(e);
  }

  const serve::FleetTraceReport report = serve::run_fleet_trace(fleet, trace);

  // Admission-control probe: a request whose microscopic deadline no
  // chip's modelled finish time can meet must be refused at submit —
  // kRejected, never executed, nothing charged to any backlog.
  serve::RequestOptions infeasible;
  infeasible.deadline_ms = 1e-3;
  infeasible.admission = true;
  const Tensor<std::int16_t> probe_input =
      serve::make_request_input(fleet.options().input_seed, 0, vgg, 1);
  const serve::InferenceResult rejected_probe =
      fleet.submit(vgg, probe_input, infeasible).get();
  fleet.wait_idle();
  const serve::FleetStats stats = fleet.stats();
  const std::size_t num_chips = fleet.chips().size();

  TextTable table("mixed trace: " + std::to_string(requests) +
                  " requests (VGG/" + std::to_string(scale) +
                  " proxy + LeNet proxy), routed by modelled earliest finish");
  table.set_header({"chip", "routed", "modelled busy (ms)",
                    "whole trace alone (ms)"});
  for (std::size_t c = 0; c < num_chips; ++c)
    table.add_row({fleet.chips()[c].name,
                   std::to_string(stats.chips[c].routed),
                   strings::fmt_fixed(report.busy_seconds[c] * 1e3, 3),
                   strings::fmt_fixed(report.single_chip_seconds[c] * 1e3,
                                      3)});
  std::cout << "\n" << table.to_ascii() << "\n";

  const double fleet_makespan = report.fleet_makespan_seconds();
  const double speedup = report.modelled_speedup();
  std::cout << "fleet modelled makespan: "
            << strings::fmt_fixed(fleet_makespan * 1e3, 3) << " ms ("
            << strings::fmt_fixed(
                   fleet_makespan == 0.0
                       ? 0.0
                       : static_cast<double>(report.completed) /
                             fleet_makespan,
                   1)
            << " modelled rps)\n"
            << "best single chip ("
            << fleet.chips()[report.best_single_chip()].name << "):     "
            << strings::fmt_fixed(report.best_single_seconds() * 1e3, 3)
            << " ms -> fleet is " << strings::fmt_fixed(speedup, 2)
            << "x faster\n"
            << "completed " << stats.completed << "/" << requests
            << ", deadline misses " << stats.deadline_misses
            << ", cancelled " << stats.cancelled << ", preemptions "
            << stats.preemptions << " (" << stats.resumes
            << " resumed), admission rejected " << stats.rejected
            << ", fidelity " << stats.fidelity_samples << " sampled / "
            << stats.fidelity_divergences << " diverged, plan cache "
            << strings::fmt_fixed(100.0 * stats.plan_cache.hit_rate(), 1)
            << "% hits (" << stats.plan_cache.entries << " entries)\n";

  if (stats.failed != 0 || stats.fidelity_divergences != 0 ||
      stats.completed != requests || speedup <= 1.0 ||
      rejected_probe.status != serve::RequestStatus::kRejected ||
      stats.resumes != stats.preemptions) {
    std::cerr << "FLEET DEMO FAILED: fleet must complete every request, "
                 "cross-check clean, beat the best single chip, reject "
                 "the infeasible-deadline probe, and resume every "
                 "preempted request\n";
    return 2;
  }
  return 0;
}
