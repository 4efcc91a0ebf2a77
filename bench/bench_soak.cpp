// Gateway soak: many concurrent keep-alive HTTP connections driving a
// mixed-tier trace through the JSON front door, with client-side
// latency quantiles and wire-vs-direct bit-identity checks. Results
// land in a "gateway" section merged into BENCH_serve.json (alongside
// bench_micro's serve/fleet sections) and are gated by
// scripts/compare_bench.py: zero transport errors, zero 5xx, zero
// server-side parse errors, zero digest mismatches, every submit
// accounted for, and p99 within budget of the committed baseline.
//
//   ./bench_soak [--connections=128] [--requests-per-connection=4]
//                [--identity-requests=6] [--scale=4]
//                [--threads-per-chip=1] [--json=BENCH_serve.json]
//
// A response's wire `id` keys its input (serve::make_request_input over
// the fleet's input_seed), so every response can be rebuilt from its id
// alone. Two phases, each on a fresh fleet + gateway:
//
//   1. Identity (sequential): the same mixed requests go through the
//      wire and through Fleet::submit on a twin fleet with identical
//      options, the direct submit using the input the wire id keys.
//      Sequential submission makes routing deterministic, so the wire
//      response's (chip, cycles, digest) must equal the direct result's
//      bit for bit.
//
//   2. Soak (concurrent): every connection is a thread with its own
//      persistent HttpClient issuing keep-alive submits. The trace
//      mixes models, batches and priority tiers, and two deterministic
//      probes exercise the non-ok verdicts over the wire: one
//      already-past deadline (resolves "cancelled") and one
//      admission-gated unmeetable deadline (resolves "rejected").
//      Latency is recorded client-side (request write to response
//      read) into a LatencyHistogram; the JSON reports p50/p99/p999.
//      After the timed window, untimed, every "ok" response is rebuilt
//      from its id by a direct run on the chip it names; a mismatch
//      counts toward digest_mismatches like an identity-phase one.
//
// --json=- prints the gateway section to stdout without touching any
// file (the CTest smoke uses this). Otherwise the section is spliced
// into the existing JSON document at --json, preserving bench_micro's
// sections untouched (insertion-ordered parse-edit-dump).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/cli.hpp"
#include "net/gateway.hpp"
#include "net/http_client.hpp"
#include "net/json.hpp"
#include "nn/models.hpp"
#include "serve/fleet.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/sweep_driver.hpp"

namespace {

using namespace chainnn;

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return std::string(buf);
}

// One logical trace request; the same mix feeds both phases.
struct TraceRequest {
  std::string model;
  std::int64_t batch = 1;
  std::int32_t priority = 0;
  double deadline_ms = 0.0;  // 0 = none
};

TraceRequest trace_request(std::int64_t conn, std::int64_t r) {
  TraceRequest t;
  t.model = ((conn + r) % 3 == 2) ? "cifar10" : "lenet";
  t.batch = std::int64_t{1} << ((conn + r) % 2);  // 1, 2
  t.priority = static_cast<std::int32_t>(conn % 3);
  if (r % 2 == 1) t.deadline_ms = 600e3;  // generous: accounting, not misses
  return t;
}

std::string submit_body(const TraceRequest& t) {
  std::ostringstream body;
  body << "{\"model\": \"" << t.model << "\", \"batch\": " << t.batch;
  if (t.priority != 0) body << ", \"priority\": " << t.priority;
  if (t.deadline_ms != 0.0)
    body << ", \"deadline_ms\": " << net::json_number(t.deadline_ms);
  body << "}";
  return body.str();
}

// True when the response names `chip` and carries the cycles and
// activations digest of `run`.
bool wire_matches(const net::Json& doc, const std::string& chip,
                  const chain::NetworkRunResult& run) {
  const net::Json* wire_chip = doc.find("chip");
  const net::Json* cycles = doc.find("cycles");
  const net::Json* digest = doc.find("digest");
  return wire_chip && wire_chip->is_string() &&
         wire_chip->as_string() == chip && cycles && cycles->is_integer() &&
         cycles->as_int() == net::run_cycles(run) && digest &&
         digest->is_string() &&
         digest->as_string() == hex16(net::run_digest(run));
}

// The input a wire id keys, run directly (no fleet, no server) on the
// configuration of the named fleet chip; nullopt for an unknown chip.
std::optional<chain::NetworkRunResult> direct_run(const serve::Fleet& fleet,
                                                  const std::string& chip,
                                                  const nn::NetworkModel& net,
                                                  std::int64_t id,
                                                  std::int64_t batch) {
  for (const serve::ChipSpec& spec : fleet.chips()) {
    if (spec.name != chip) continue;
    chain::AcceleratorConfig cfg = serve::analytical_accelerator_config();
    cfg.array = spec.array;
    cfg.memory = spec.memory;
    chain::ChainAccelerator acc(cfg);
    const auto energy = energy::EnergyModel::paper_calibrated();
    chain::NetworkRunner runner(acc, energy);
    chain::NetworkRunOptions ro;
    ro.verify_against_golden = false;
    return runner.run(net,
                      serve::make_request_input(fleet.options().input_seed,
                                                static_cast<std::uint64_t>(id),
                                                net, batch),
                      ro);
  }
  return std::nullopt;
}

serve::FleetOptions fleet_options(std::int64_t threads_per_chip) {
  serve::FleetOptions fo;
  fo.threads_per_chip = threads_per_chip;
  fo.preemption = true;
  fo.fidelity_sample_every_n = 0;  // no cycle-accurate replays mid-soak
  return fo;
}

// Phase 1: sequential wire-vs-direct comparison on twin fleets.
// Returns the number of mismatching responses (0 on a healthy stack).
std::int64_t identity_phase(std::int64_t count, std::int64_t scale,
                            std::int64_t threads_per_chip) {
  serve::Fleet wire_fleet(fleet_options(threads_per_chip));
  serve::Fleet direct_fleet(fleet_options(threads_per_chip));
  net::GatewayOptions go;
  go.model_scale = scale;
  net::Gateway gateway(wire_fleet, go);
  net::HttpClient client("127.0.0.1", gateway.port());

  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    const TraceRequest t = trace_request(i, i / 2);
    net::HttpResponse resp;
    if (!client.post_json("/v1/submit", submit_body(t), &resp) ||
        resp.status != 200) {
      std::cerr << "identity " << i << ": wire submit failed ("
                << client.error() << ")\n";
      ++mismatches;
      continue;
    }
    const auto doc = net::Json::parse(resp.body);
    const net::Json* id = doc ? doc->find("id") : nullptr;
    const net::Json* status = doc ? doc->find("status") : nullptr;
    if (!id || !id->is_integer()) {
      std::cerr << "identity " << i << ": response without an id\n";
      ++mismatches;
      continue;
    }

    const nn::NetworkModel net =
        serve::channel_reduced_proxy(nn::model_by_name(t.model), scale);
    serve::RequestOptions ro;
    ro.priority = t.priority;
    if (t.deadline_ms != 0.0) ro.deadline_ms = t.deadline_ms;
    const serve::InferenceResult direct =
        direct_fleet
            .submit(net,
                    serve::make_request_input(
                        direct_fleet.options().input_seed,
                        static_cast<std::uint64_t>(id->as_int()), net,
                        t.batch),
                    ro)
            .get();

    const bool same = status && status->is_string() &&
                      status->as_string() ==
                          net::request_status_name(direct.status) &&
                      wire_matches(*doc, direct.chip, direct.run);
    if (!same) {
      std::cerr << "identity " << i << ": wire response diverged from "
                << "direct submit (model " << t.model << ", batch "
                << t.batch << ")\n";
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  const std::map<std::string, std::string> defaults = {
      {"connections", "128"},      {"requests-per-connection", "4"},
      {"identity-requests", "6"},  {"scale", "4"},
      {"threads-per-chip", "1"},   {"json", "BENCH_serve.json"}};
  std::string error;
  if (!flags.parse(argc, argv, defaults, &error)) {
    std::cerr << "bench_soak: " << error << "\n" << CliFlags::usage(defaults);
    return 1;
  }
  const std::int64_t connections =
      std::max<std::int64_t>(1, flags.get_int("connections"));
  const std::int64_t per =
      std::max<std::int64_t>(1, flags.get_int("requests-per-connection"));
  const std::int64_t identity_requests =
      std::max<std::int64_t>(0, flags.get_int("identity-requests"));
  const std::int64_t scale =
      std::max<std::int64_t>(1, flags.get_int("scale"));
  const std::int64_t threads_per_chip =
      std::max<std::int64_t>(1, flags.get_int("threads-per-chip"));

  std::int64_t digest_mismatches =
      identity_phase(identity_requests, scale, threads_per_chip);

  // Phase 2: the concurrent soak, on a fresh fleet + gateway so the
  // /metrics counters describe exactly this phase.
  serve::Fleet fleet(fleet_options(threads_per_chip));
  net::GatewayOptions go;
  go.model_scale = scale;
  go.http.max_connections = connections + 8;  // headroom for the scrape
  net::Gateway gateway(fleet, go);
  const std::uint16_t port = gateway.port();

  // Every "ok" response with its trace request, per connection, for the
  // untimed reproduction pass after the window.
  struct Served {
    TraceRequest request;
    net::Json doc;
  };
  std::vector<std::vector<Served>> served(
      static_cast<std::size_t>(connections));
  serve::LatencyHistogram latency;
  std::atomic<std::int64_t> errors{0};
  const auto worker = [&](std::int64_t conn) {
    net::HttpClient client("127.0.0.1", port, /*timeout_s=*/300.0);
    for (std::int64_t r = 0; r < per; ++r) {
      std::string body;
      const TraceRequest t = trace_request(conn, r);
      if (conn == 0 && r == 0) {
        // Past deadline at submit: resolves "cancelled", never runs.
        body = "{\"model\": \"lenet\", \"batch\": 1, \"deadline_ms\": -1}";
      } else if (conn == std::min<std::int64_t>(1, connections - 1) &&
                 r == per - 1) {
        // Admission-gated unmeetable deadline: resolves "rejected".
        body = "{\"model\": \"lenet\", \"batch\": 1, \"deadline_ms\": -1, "
               "\"admission\": true}";
      } else {
        body = submit_body(t);
      }
      net::HttpResponse resp;
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = client.post_json("/v1/submit", body, &resp);
      const auto t1 = std::chrono::steady_clock::now();
      latency.record(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      if (!ok || resp.status != 200) {
        errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      auto doc = net::Json::parse(resp.body);
      const net::Json* status = doc ? doc->find("status") : nullptr;
      if (!status || doc->find("digest") == nullptr) {
        errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (status->is_string() && status->as_string() == "ok")
        served[static_cast<std::size_t>(conn)].push_back(
            {t, std::move(*doc)});
    }
  };

  const auto soak_t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections));
  for (std::int64_t c = 0; c < connections; ++c)
    threads.emplace_back(worker, c);
  for (auto& t : threads) t.join();
  const double wall_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - soak_t0)
                                  .count();

  // Post-soak scrape: /metrics must still answer after the burst.
  {
    net::HttpClient client("127.0.0.1", port);
    net::HttpResponse resp;
    if (!client.get("/metrics", &resp) || resp.status != 200 ||
        resp.body.find("chainnn_fleet_completed_total") == std::string::npos)
      errors.fetch_add(1, std::memory_order_relaxed);
  }

  // Untimed: rebuild every ok response from its id.
  for (const std::vector<Served>& conn : served)
    for (const Served& s : conn) {
      const net::Json* id = s.doc.find("id");
      const net::Json* chip = s.doc.find("chip");
      const std::optional<chain::NetworkRunResult> run =
          id && id->is_integer() && chip && chip->is_string()
              ? direct_run(fleet, chip->as_string(),
                           serve::channel_reduced_proxy(
                               nn::model_by_name(s.request.model), scale),
                           id->as_int(), s.request.batch)
              : std::nullopt;
      if (!run || !wire_matches(s.doc, chip->as_string(), *run)) {
        std::cerr << "soak response " << s.doc.dump()
                  << " does not reproduce from its id\n";
        ++digest_mismatches;
      }
    }

  const net::GatewayStats gs = gateway.stats();
  const auto snap = latency.snapshot();
  const std::int64_t requests = connections * per;
  const std::int64_t accounted =
      gs.submits_ok + gs.submits_cancelled + gs.submits_rejected;
  const double rps =
      wall_seconds == 0.0 ? 0.0 : static_cast<double>(requests) / wall_seconds;

  net::Json section(net::JsonObject{
      {"connections", net::Json(connections)},
      {"requests", net::Json(requests)},
      {"identity_requests", net::Json(identity_requests)},
      {"completed", net::Json(gs.submits_ok)},
      {"cancelled", net::Json(gs.submits_cancelled)},
      {"rejected", net::Json(gs.submits_rejected)},
      {"errors", net::Json(errors.load())},
      {"http_5xx", net::Json(gs.http.responses_5xx)},
      {"parse_errors", net::Json(gs.http.parse_errors)},
      {"digest_mismatches", net::Json(digest_mismatches)},
      {"p50_ms", net::Json(snap.p50_ms())},
      {"p99_ms", net::Json(snap.p99_ms())},
      {"p999_ms", net::Json(snap.p999_ms())},
      {"rps", net::Json(rps)},
      {"wall_seconds", net::Json(wall_seconds)}});
  std::cout << "{\"gateway\": " << section.dump() << "}\n";

  const std::string path = flags.get_string("json");
  if (!path.empty() && path != "-") {
    // Splice into the existing document (bench_micro's serve/fleet
    // sections) rather than clobbering it; a fresh file gets just the
    // gateway section.
    net::Json doc{net::JsonObject{}};
    std::ifstream in(path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      std::string parse_error;
      auto parsed = net::Json::parse(text.str(), &parse_error);
      if (parsed && parsed->is_object()) {
        doc = std::move(*parsed);
      } else {
        std::cerr << "bench_soak: cannot splice into " << path << " ("
                  << parse_error << "); rewriting it\n";
      }
    }
    doc.set("gateway", std::move(section));
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    out << doc.dump() << "\n";
  }

  // The soak doubles as a hard gate: a lost request, transport error,
  // 5xx, parse error or digest mismatch is a failure here, before
  // compare_bench.py ever sees the JSON.
  if (digest_mismatches != 0 || errors.load() != 0 ||
      gs.http.responses_5xx != 0 || gs.http.parse_errors != 0 ||
      gs.submits_failed != 0 || accounted != requests) {
    std::cerr << "BENCH_SOAK FAILED: digest_mismatches=" << digest_mismatches
              << " errors=" << errors.load() << " 5xx="
              << gs.http.responses_5xx << " parse_errors="
              << gs.http.parse_errors << " accounted=" << accounted << "/"
              << requests << "\n";
    return 2;
  }
  return 0;
}
