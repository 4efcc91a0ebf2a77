// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//   perfbench --list-metrics
//
// Every workload is a closed loop: each client sends its next request
// when the previous one answers. Request inputs and the request mix come
// from --seed. A --trace 0 run sets the workload up several times
// (setup_s is the median), measures for --seconds — extended until the
// workload's tail percentile has ten samples beyond it — then checks
// every response against an untimed reference, and prints the
// end-to-end metrics. A --trace 1 run measures the workload untraced and
// traced for half of --seconds each, records spans around the calls into
// each layer (net, serve, chain), runs the per-layer probes, writes the
// spans as Chrome trace-event JSON under --work-dir, and prints the
// per-layer metrics. The last line of stdout is the result object;
// the exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "chain/accelerator.hpp"
#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "net/gateway.hpp"
#include "net/http_client.hpp"
#include "net/json.hpp"
#include "nn/models.hpp"
#include "serve/fleet.hpp"
#include "serve/inference_server.hpp"
#include "serve/journal.hpp"
#include "serve/sweep_driver.hpp"

namespace {

using namespace chainnn;
using perfbench::Metric;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) { return perfbench::percentile(std::move(v), 500); }

// Independent, reproducible streams from one --seed: SplitMix64 over
// (seed, stream, index).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
  std::uint64_t z = seed ^ (stream * 0x9E3779B97F4A7C15ull) ^
                    (index * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum Stream : std::uint64_t {
  kRequestInputs = 1,
  kWarmupInputs = 2,
  kGatewayMix = 3,
  kReplayInputs = 4,
  kProbeOperands = 5,
};

// Values in [-64, 64), as the in-tree benches use.
Tensor<std::int16_t> seeded_tensor(Shape shape, std::uint64_t seed) {
  Tensor<std::int16_t> t(std::move(shape));
  Rng rng(seed);
  t.fill_random(rng, -64, 64);
  return t;
}

Shape input_shape(const nn::NetworkModel& net, std::int64_t batch) {
  const nn::ConvLayerParams& first = net.conv_layers.front();
  return Shape{batch, first.in_channels, first.in_height, first.in_width};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- tracing -----------------------------------------------------------------
//
// Spans are recorded only here, around calls into the program's public
// functions, plus spans built from durations the program reports
// (InferenceResult::queue_ms / wall_ms; marked source=reported). Each
// client thread fills its own buffer; buffers merge when a loop ends and
// the whole trace is written once, at exit.

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root
  std::int64_t request = 0;
  std::int64_t tid = 0;
  bool reported = false;  // built from a duration the program reported
};

class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  void absorb(std::vector<Span>&& spans) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Span& s : spans) spans_.push_back(std::move(s));
  }

  void write(const fs::path& path) const {
    using net::Json;
    using net::JsonArray;
    using net::JsonObject;
    JsonArray events;
    std::lock_guard<std::mutex> lock(mu_);
    events.reserve(spans_.size());
    for (const Span& s : spans_) {
      JsonObject args;
      args.emplace_back("span", Json(s.id));
      args.emplace_back("parent", Json(s.parent));
      args.emplace_back("request", Json(s.request));
      if (s.reported) args.emplace_back("source", Json("reported"));
      JsonObject e;
      e.emplace_back("name", Json(s.name));
      e.emplace_back("cat", Json(s.name.substr(0, s.name.find('.'))));
      e.emplace_back("ph", Json("X"));
      e.emplace_back("ts", Json(s.start_us));
      e.emplace_back("dur", Json(s.end_us - s.start_us));
      e.emplace_back("pid", Json(1));
      e.emplace_back("tid", Json(s.tid));
      e.emplace_back("args", Json(std::move(args)));
      events.emplace_back(std::move(e));
    }
    JsonObject doc;
    doc.emplace_back("traceEvents", Json(std::move(events)));
    doc.emplace_back("displayTimeUnit", Json("ms"));
    std::ofstream out(path);
    out << Json(std::move(doc)).dump() << '\n';
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// One client thread's span buffer.
class SpanBuffer {
 public:
  SpanBuffer(Trace* trace, std::int64_t tid) : trace_(trace), tid_(tid) {}
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;
  ~SpanBuffer() {
    if (trace_) trace_->absorb(std::move(spans_));
  }

  [[nodiscard]] bool on() const { return trace_ != nullptr; }

  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::int64_t request, bool reported = false) {
    if (!trace_) return 0;
    Span s;
    s.name = std::move(name);
    s.start_us = trace_->us(start);
    s.end_us = trace_->us(end);
    s.id = (tid_ << 40) | ++next_;
    s.parent = parent;
    s.request = request;
    s.tid = tid_;
    s.reported = reported;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  // Adds the serve layer's reported queue wait and execution as two
  // back-to-back spans ending at `end`.
  void add_reported(Clock::time_point end, double queue_ms, double wall_ms,
                    std::int64_t parent, std::int64_t request) {
    const auto exec_start =
        end - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(wall_ms));
    const auto queue_start =
        exec_start - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(queue_ms));
    add("serve.queue", queue_start, exec_start, parent, request, true);
    add("serve.exec", exec_start, end, parent, request, true);
  }

 private:
  Trace* trace_;
  std::int64_t tid_;
  std::int64_t next_ = 0;
  std::vector<Span> spans_;
};

// --- closed loop ---------------------------------------------------------------

// One request as the client saw it.
struct Outcome {
  std::int64_t index = 0;  // position in the seeded request stream
  Clock::time_point end;
  std::int64_t cycles = 0;
  std::uint64_t digest = 0;
  double fps = 0.0;
  // Floats keep the per-request record small: it is resident during the
  // window and so counts in peak_rss_mb. Seven significant digits are
  // ample for these.
  float latency_ms = 0.0f;
  float queue_ms = 0.0f;  // reported by the serve layer
  float wall_ms = 0.0f;   // reported by the serve layer
  float coverage = 0.0f;  // share covered by layer spans
  float modelled_seconds = 0.0f;
  std::int32_t images = 0;
  bool executed = false;  // resolved kOk with a result to check
  bool ok = false;        // executed and passed every check so far
};

struct LoopResult {
  // Every request issued, one deque per client. Appending to a deque
  // never copies earlier entries, so the benchmark's own bookkeeping
  // grows the process RSS (peak_rss_mb) linearly rather than in
  // reallocation spikes.
  std::vector<std::deque<Outcome>> per_client;
  Clock::time_point start;
  Clock::time_point stop;
  [[nodiscard]] double window_s() const {
    return ms_between(start, stop) / 1000.0;
  }
  template <class F>
  void for_each(F&& f) {
    for (auto& outcomes : per_client)
      for (Outcome& o : outcomes) f(o);
  }
  [[nodiscard]] std::int64_t attempted() const {
    std::int64_t n = 0;
    for (const auto& outcomes : per_client)
      n += static_cast<std::int64_t>(outcomes.size());
    return n;
  }
  [[nodiscard]] std::int64_t failed() const {
    std::int64_t n = 0;
    for (const auto& outcomes : per_client)
      for (const Outcome& o : outcomes) n += o.ok ? 0 : 1;
    return n;
  }
  // Requests that resolved inside the window.
  [[nodiscard]] std::vector<const Outcome*> in_window() const {
    std::vector<const Outcome*> out;
    for (const auto& outcomes : per_client)
      for (const Outcome& o : outcomes)
        if (o.executed && o.end <= stop) out.push_back(&o);
    return out;
  }
};

using RequestFn =
    std::function<Outcome(std::size_t client, std::int64_t index, SpanBuffer&)>;

// Runs `clients` closed-loop clients until `seconds` have passed and at
// least `min_samples` requests resolved inside the window (capped at
// four times `seconds` plus a minute, so a wedged stack still ends).
// Requests in flight at the stop still finish and are checked; they do
// not count toward the window's throughput or latencies.
LoopResult closed_loop(std::size_t clients, double seconds,
                       std::size_t min_samples, Trace* trace,
                       const RequestFn& request) {
  LoopResult out;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> next_index{0};
  std::atomic<std::size_t> resolved{0};
  out.per_client.resize(clients);
  std::vector<std::thread> threads;
  out.start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      SpanBuffer spans(trace, static_cast<std::int64_t>(c) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        const std::int64_t index = next_index.fetch_add(1);
        Outcome o;
        try {
          o = request(c, index, spans);
        } catch (const std::exception& e) {
          std::cerr << "request " << index << " threw: " << e.what() << '\n';
          o.end = Clock::now();
        }
        o.index = index;
        out.per_client[c].push_back(o);
        if (o.executed) resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const double cap_s = 4.0 * seconds + 60.0;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const double elapsed = ms_between(out.start, Clock::now()) / 1000.0;
    if ((elapsed >= seconds && resolved.load() >= min_samples) ||
        elapsed >= cap_s)
      break;
  }
  out.stop = Clock::now();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return out;
}

// Counters a workload's stack exposes through its stats() accessors,
// read before and after a loop so rates cover exactly that window.
struct StackCounters {
  std::int64_t preemptions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::int64_t arena_allocations = 0;
  std::int64_t arena_reuses = 0;
};

// ServerStats and FleetStats name these fields alike.
template <class Stats>
StackCounters counters_of(const Stats& s) {
  StackCounters c;
  c.preemptions = s.preemptions;
  c.cache_hits = s.plan_cache.hits;
  c.cache_lookups = s.plan_cache.lookups();
  c.arena_allocations = s.arena.allocations;
  c.arena_reuses = s.arena.reuses;
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- workload definitions ------------------------------------------------------
//
// Seed-host figures come from a Release build on a 4-core x86 host; they
// are for sizing only.
//
// serve-alexnet stays runnable but is left out of BENCHMARK.json: on a
// shared 4-vCPU VM its kernel-bound requests swing between ~140 and
// ~250 ms with the host's load (a pinned single-core MAC loop there
// ranged 4.2-12.5 GMAC/s), so five 25-s runs spread by 0.29 in
// throughput and 0.49 in p50 - wider than any usable bound. The kernel
// itself stays measured layer by layer (chain.alexnet.*) in every traced
// run, and gateway-mixed executes it too.

struct WorkloadDef {
  const char* name;
  const char* why;
  const char* seed_host;
  int tail_permille;  // the latency_tail_ms percentile
};

const WorkloadDef kWorkloads[] = {
    {"serve-alexnet",
     "the MAC kernel takes about 90% of an analytical request, so kernel, "
     "runner and arena changes show here; two cores stay free for "
     "intra-request parallelism",
     "7.4-8.0 rps, p50 ~257 ms", 900},
    {"gateway-mixed",
     "execution is about a third of the round trip; HTTP/JSON, routing, "
     "journal writes and queueing dominate",
     "2430-2660 rps, p50 1.2 ms, p99 5.2-6.4 ms", 990},
    {"simulate-cifar",
     "the cycle-accurate simulator and fidelity-replay path; it never calls "
     "the analytical MAC kernel, so a kernel change must not move it",
     "5.2-5.75 rps, ~1.0-1.1e5 simulated cycles per host second", 900},
};

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// What a workload measured, before it becomes metrics.
struct WorkloadRun {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // failed + refused + failed a check
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable report lines
};

// Latency/throughput figures of one loop.
struct LoopFigures {
  std::size_t samples = 0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double cycles_per_s = 0.0;
  std::vector<double> latencies, queue, exec, front_door, coverage;
};

LoopFigures figures(const LoopResult& loop, int tail_permille) {
  LoopFigures f;
  std::int64_t cycles = 0;
  for (const Outcome* o : loop.in_window()) {
    f.latencies.push_back(o->latency_ms);
    f.queue.push_back(o->queue_ms);
    f.exec.push_back(o->wall_ms);
    f.front_door.push_back(
        perfbench::front_door_ms(o->latency_ms, o->queue_ms, o->wall_ms));
    f.coverage.push_back(o->coverage);
    cycles += o->cycles;
  }
  f.samples = f.latencies.size();
  f.throughput_rps = ratio(static_cast<double>(f.samples), loop.window_s());
  f.p50_ms = perfbench::percentile(f.latencies, 500);
  f.tail_ms = perfbench::percentile(f.latencies, tail_permille);
  f.cycles_per_s = ratio(static_cast<double>(cycles), loop.window_s());
  return f;
}

// Share of the median request (by latency) that its layer spans cover.
double median_request_coverage(const LoopFigures& f) {
  if (f.latencies.empty()) return 0.0;
  std::vector<std::size_t> order(f.latencies.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return f.latencies[a] < f.latencies[b];
  });
  return f.coverage[order[perfbench::nearest_rank(order.size(), 500) - 1]];
}

// --- serve-alexnet / simulate-cifar: a bare InferenceServer -------------------

struct ServerSpec {
  const char* model;
  std::int64_t scale;
  std::int64_t batch;
  std::size_t in_flight;
  chain::ExecMode mode;
};

class ServerWorkload {
 public:
  static constexpr bool kFrontDoor = false;

  ServerWorkload(ServerSpec spec, std::uint64_t seed)
      : spec_(spec),
        seed_(seed),
        net_(serve::channel_reduced_proxy(nn::model_by_name(spec.model),
                                          spec.scale)) {}

  [[nodiscard]] std::size_t clients() const {
    return std::min(spec_.in_flight, host_threads());
  }

  // Builds the server and fills its PlanCache and arena with one round
  // of concurrent warm-up requests. Returns the seconds it took.
  double setup() {
    server_.reset();
    const auto t0 = Clock::now();
    serve::ServerOptions so;
    so.accelerator.exec_mode = spec_.mode;
    server_ = std::make_unique<serve::InferenceServer>(so);
    std::vector<std::future<serve::InferenceResult>> warm;
    for (std::size_t i = 0; i < clients(); ++i)
      warm.push_back(server_->submit(
          net_, seeded_tensor(input_shape(net_, spec_.batch),
                              mix_seed(seed_, kWarmupInputs, i))));
    for (auto& f : warm) f.get();
    return ms_between(t0, Clock::now()) / 1000.0;
  }

  [[nodiscard]] StackCounters counters() const {
    return counters_of(server_->stats());
  }

  LoopResult loop(double seconds, std::size_t min_samples, Trace* trace) {
    return closed_loop(clients(), seconds, min_samples, trace,
                       [this](std::size_t, std::int64_t i, SpanBuffer& s) {
                         return request(i, s);
                       });
  }

  Outcome request(std::int64_t index, SpanBuffer& spans) {
    Tensor<std::int16_t> input = request_input(index);
    Outcome o;
    const auto t0 = Clock::now();
    auto future = server_->submit(net_, std::move(input));
    const auto t1 = Clock::now();
    const serve::InferenceResult r = future.get();
    const auto t2 = Clock::now();
    o.end = t2;
    o.latency_ms = ms_between(t0, t2);
    o.queue_ms = r.queue_ms;
    o.wall_ms = r.wall_ms;
    o.executed = r.status == serve::RequestStatus::kOk;
    o.ok = o.executed;  // confirmed against the reference later
    if (o.executed) {
      o.cycles = net::run_cycles(r.run);
      o.digest = net::run_digest(r.run);
      o.fps = r.run.fps(spec_.batch);
    }
    // Layer spans: the submit call, then the reported queue wait and
    // execution, which end where the result reached the client.
    const double submit_ms = ms_between(t0, t1);
    o.coverage = perfbench::covered_share(
        0.0, o.latency_ms,
        {{0.0, submit_ms}, {o.latency_ms - r.wall_ms - r.queue_ms, o.latency_ms}});
    if (spans.on()) {
      const std::int64_t root = spans.add("bench.request", t0, t2, 0, index);
      spans.add("serve.submit", t0, t1, root, index);
      const std::int64_t wait = spans.add("serve.result", t1, t2, root, index);
      spans.add_reported(t2, r.queue_ms, r.wall_ms, wait, index);
    }
    return o;
  }

  // Re-runs every executed request's input through NetworkRunner with
  // golden verification on, in parallel, and marks a request failed
  // unless every layer verified and the digest, cycles and modelled fps
  // all match.
  void check(LoopResult& loop) const {
    std::vector<Outcome*> todo;
    loop.for_each([&](Outcome& o) {
      if (o.executed) todo.push_back(&o);
    });
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> threads;
    const std::size_t workers = std::min<std::size_t>(host_threads(), 4);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        chain::AcceleratorConfig cfg = serve::analytical_accelerator_config();
        cfg.exec_mode = spec_.mode;
        const energy::EnergyModel energy =
            energy::EnergyModel::paper_calibrated();
        for (std::size_t i = cursor.fetch_add(1); i < todo.size();
             i = cursor.fetch_add(1)) {
          Outcome& o = *todo[i];
          chain::ChainAccelerator acc(cfg);
          chain::NetworkRunner runner(acc, energy);
          chain::NetworkRunOptions ro;
          ro.verify_against_golden = true;
          const chain::NetworkRunResult ref =
              runner.run(net_, request_input(o.index), ro);
          const bool match = ref.all_verified() &&
                             net::run_digest(ref) == o.digest &&
                             net::run_cycles(ref) == o.cycles &&
                             ref.fps(spec_.batch) == o.fps;
          if (!match) o.ok = false;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

 private:
  [[nodiscard]] Tensor<std::int16_t> request_input(std::int64_t index) const {
    return seeded_tensor(input_shape(net_, spec_.batch),
                         mix_seed(seed_, kRequestInputs,
                                  static_cast<std::uint64_t>(index)));
  }

  ServerSpec spec_;
  std::uint64_t seed_;
  nn::NetworkModel net_;
  std::unique_ptr<serve::InferenceServer> server_;
};

// --- gateway-mixed: Gateway in front of the default 3-chip Fleet ---------------

constexpr std::int64_t kGatewayScale = 32;
constexpr std::int64_t kJournalFsyncEvery = 8;
const char* const kMixModels[] = {"lenet", "cifar10"};

// One request of the seeded lenet/cifar10 mix: batch 1-2, priority 0-2,
// a generous deadline on about half.
struct MixEntry {
  std::size_t model = 0;  // index into kMixModels
  std::int64_t batch = 1;
  std::int32_t priority = 0;
  bool deadline = false;
};

MixEntry mix_entry(std::uint64_t seed, std::int64_t index) {
  Rng rng(mix_seed(seed, kGatewayMix, static_cast<std::uint64_t>(index)));
  MixEntry e;
  e.model = static_cast<std::size_t>(rng.next_u64() % 2);
  e.batch = 1 + static_cast<std::int64_t>(rng.next_u64() % 2);
  e.priority = static_cast<std::int32_t>(rng.next_u64() % 3);
  e.deadline = rng.next_u64() % 2 == 1;
  return e;
}

constexpr double kGenerousDeadlineMs = 600e3;

serve::FleetOptions gateway_fleet_options(std::uint64_t seed,
                                          const fs::path& journal_path) {
  serve::FleetOptions fo;
  fo.preemption = true;
  fo.input_seed = seed;
  serve::JournalOptions jo;
  jo.path = journal_path.string();
  jo.fsync_every_records = kJournalFsyncEvery;
  fo.journal = std::make_shared<serve::Journal>(jo);
  return fo;
}

using CycleKey = std::tuple<std::size_t, std::int64_t, std::string>;

class GatewayWorkload {
 public:
  static constexpr bool kFrontDoor = true;

  GatewayWorkload(std::uint64_t seed, fs::path dir)
      : seed_(seed), dir_(std::move(dir)) {
    for (const char* m : kMixModels)
      nets_.push_back(
          serve::channel_reduced_proxy(nn::model_by_name(m), kGatewayScale));
    reference_cycles();
  }

  ~GatewayWorkload() { teardown(); }
  GatewayWorkload(const GatewayWorkload&) = delete;
  GatewayWorkload& operator=(const GatewayWorkload&) = delete;

  [[nodiscard]] std::size_t clients() const {
    return std::min<std::size_t>(4, host_threads());
  }

  // Opens a fresh journal, builds the fleet and gateway (binding the
  // port) and sends one warm-up request per (model, batch, priority).
  double setup() {
    teardown();
    const auto t0 = Clock::now();
    fleet_ = std::make_unique<serve::Fleet>(gateway_fleet_options(
        seed_, dir_ / ("journal-" + std::to_string(++setups_) + ".log")));
    net::GatewayOptions go;
    go.model_scale = kGatewayScale;
    gateway_ = std::make_unique<net::Gateway>(*fleet_, go);
    net::HttpClient client("127.0.0.1", gateway_->port());
    for (std::size_t m = 0; m < nets_.size(); ++m)
      for (std::int64_t batch = 1; batch <= 2; ++batch)
        for (std::int32_t p = 0; p < 3; ++p) {
          MixEntry e{m, batch, p, false};
          net::HttpResponse resp;
          if (!client.post_json("/v1/submit", body(e), &resp) ||
              resp.status != 200)
            throw std::runtime_error("gateway warm-up request failed: " +
                                     client.error() + resp.body);
        }
    return ms_between(t0, Clock::now()) / 1000.0;
  }

  [[nodiscard]] StackCounters counters() const {
    return counters_of(fleet_->stats());
  }

  // Each loop client owns one keep-alive connection.
  LoopResult loop(double seconds, std::size_t min_samples, Trace* trace) {
    std::vector<std::unique_ptr<net::HttpClient>> conns;
    for (std::size_t i = 0; i < clients(); ++i)
      conns.push_back(
          std::make_unique<net::HttpClient>("127.0.0.1", gateway_->port()));
    return closed_loop(conns.size(), seconds, min_samples, trace,
                       [&](std::size_t c, std::int64_t i, SpanBuffer& s) {
                         return request(*conns[c], i, s);
                       });
  }

  // Responses are checked as they arrive (see request()).
  void check(LoopResult&) const {}

  // One POST /v1/submit, checked inline: HTTP 200, "status": "ok", and
  // cycles equal to the reference for its (model, batch, chip).
  Outcome request(net::HttpClient& client, std::int64_t index,
                  SpanBuffer& spans) const {
    const MixEntry e = mix_entry(seed_, index);
    const std::string payload = body(e);
    Outcome o;
    net::HttpResponse resp;
    const auto t0 = Clock::now();
    const bool sent = client.post_json("/v1/submit", payload, &resp);
    const auto t1 = Clock::now();
    o.end = t1;
    o.latency_ms = ms_between(t0, t1);
    if (!sent || resp.status != 200) {
      std::cerr << "gateway request " << index << " failed: "
                << (sent ? "HTTP " + std::to_string(resp.status) + " " + resp.body
                         : client.error())
                << '\n';
      return o;
    }
    const std::optional<net::Json> doc = net::Json::parse(resp.body);
    const net::Json* status = doc ? doc->find("status") : nullptr;
    const net::Json* chip = doc ? doc->find("chip") : nullptr;
    const net::Json* cycles = doc ? doc->find("cycles") : nullptr;
    const net::Json* queue = doc ? doc->find("queue_ms") : nullptr;
    const net::Json* wall = doc ? doc->find("wall_ms") : nullptr;
    const net::Json* modelled = doc ? doc->find("modelled_seconds") : nullptr;
    if (!status || !status->is_string() || status->as_string() != "ok" ||
        !chip || !chip->is_string() || !cycles || !cycles->is_integer() ||
        !queue || !wall || !modelled) {
      std::cerr << "gateway request " << index << " bad response: "
                << resp.body << '\n';
      return o;
    }
    o.executed = true;
    o.queue_ms = queue->as_double();
    o.wall_ms = wall->as_double();
    o.cycles = cycles->as_int();
    o.images = e.batch;
    o.modelled_seconds = modelled->as_double();
    o.coverage = perfbench::covered_share(
        0.0, o.latency_ms,
        {{o.latency_ms - o.wall_ms - o.queue_ms, o.latency_ms}});
    const auto ref = ref_cycles_.find({e.model, e.batch, chip->as_string()});
    o.ok = ref != ref_cycles_.end() && ref->second == o.cycles;
    if (!o.ok)
      std::cerr << "gateway request " << index << " cycles mismatch: "
                << resp.body << '\n';
    if (spans.on()) {
      const std::int64_t root = spans.add("bench.request", t0, t1, 0, index);
      const std::int64_t post = spans.add("net.http_post", t0, t1, root, index);
      spans.add_reported(t1, o.queue_ms, o.wall_ms, post, index);
    }
    return o;
  }

  // serve.submit_ms and journal.*: the same seeded mix replayed straight
  // into an identically configured Fleet through the explicit-input
  // submit, timing only the Fleet::submit call (route + journal SUBMIT +
  // enqueue). Runs a fixed request count so its p99 is supported.
  struct ReplayFigures {
    std::vector<double> submit_ms;
    std::int64_t requests = 0;
    std::int64_t failed = 0;
    serve::JournalStats journal;
  };

  ReplayFigures replay(std::size_t requests, Trace* trace) const {
    serve::Fleet fleet(gateway_fleet_options(seed_, dir_ / "replay.log"));
    std::vector<double> submit_ms(requests, 0.0);
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::int64_t> failed{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients(); ++c) {
      threads.emplace_back([&, c] {
        SpanBuffer spans(trace, 100 + static_cast<std::int64_t>(c));
        for (std::size_t i = cursor.fetch_add(1); i < requests;
             i = cursor.fetch_add(1)) {
          const MixEntry e = mix_entry(seed_, static_cast<std::int64_t>(i));
          serve::RequestOptions ro;
          ro.priority = e.priority;
          if (e.deadline) ro.deadline_ms = kGenerousDeadlineMs;
          Tensor<std::int16_t> input = seeded_tensor(
              input_shape(nets_[e.model], e.batch), mix_seed(seed_, kReplayInputs, i));
          try {
            const auto t0 = Clock::now();
            auto future = fleet.submit(nets_[e.model], std::move(input), ro);
            const auto t1 = Clock::now();
            const serve::InferenceResult r = future.get();
            const auto t2 = Clock::now();
            submit_ms[i] = ms_between(t0, t1);
            const auto ref = ref_cycles_.find({e.model, e.batch, r.chip});
            if (r.status != serve::RequestStatus::kOk ||
                ref == ref_cycles_.end() ||
                ref->second != net::run_cycles(r.run))
              failed.fetch_add(1);
            const auto id = static_cast<std::int64_t>(i);
            const std::int64_t root = spans.add("bench.replay", t0, t2, 0, id);
            spans.add("serve.fleet_submit", t0, t1, root, id);
            spans.add("serve.result", t1, t2, root, id);
          } catch (const std::exception& ex) {
            std::cerr << "replay request " << i << " threw: " << ex.what() << '\n';
            failed.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ReplayFigures out;
    out.submit_ms = std::move(submit_ms);
    out.requests = static_cast<std::int64_t>(requests);
    out.failed = failed.load();
    out.journal = fleet.stats().journal;
    return out;
  }

 private:
  static std::string body(const MixEntry& e) {
    net::JsonObject o;
    o.reserve(4);
    o.emplace_back("model", net::Json(kMixModels[e.model]));
    o.emplace_back("batch", net::Json(e.batch));
    o.emplace_back("priority", net::Json(e.priority));
    if (e.deadline) o.emplace_back("deadline_ms", net::Json(kGenerousDeadlineMs));
    return net::Json(std::move(o)).dump();
  }

  // Cycles of every (model, batch, chip) the mix can produce, from a
  // golden-verified NetworkRunner run on the chip's configuration.
  void reference_cycles() {
    const energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
    for (const serve::ChipSpec& chip : serve::default_fleet_chips())
      for (std::size_t m = 0; m < nets_.size(); ++m)
        for (std::int64_t batch = 1; batch <= 2; ++batch) {
          chain::AcceleratorConfig cfg = serve::analytical_accelerator_config();
          cfg.array = chip.array;
          cfg.memory = chip.memory;
          chain::ChainAccelerator acc(cfg);
          chain::NetworkRunner runner(acc, energy);
          chain::NetworkRunOptions ro;
          ro.verify_against_golden = true;
          const chain::NetworkRunResult run = runner.run(
              nets_[m], seeded_tensor(input_shape(nets_[m], batch), 0), ro);
          if (!run.all_verified())
            throw std::runtime_error("gateway reference failed verification");
          ref_cycles_[{m, batch, chip.name}] = net::run_cycles(run);
        }
  }

  void teardown() {
    gateway_.reset();
    fleet_.reset();
  }

  std::uint64_t seed_;
  fs::path dir_;
  std::vector<nn::NetworkModel> nets_;
  std::map<CycleKey, std::int64_t> ref_cycles_;
  int setups_ = 0;
  std::unique_ptr<serve::Fleet> fleet_;
  std::unique_ptr<net::Gateway> gateway_;  // after fleet_: stops first
};

// --- per-layer probes ------------------------------------------------------------

// A tight single-core int16 multiply-accumulate loop (int32 sums), built
// with the same flags as the library: the denominator of pct_peak.
double host_peak_gmacs() {
  constexpr std::size_t kLen = 4096;
  constexpr int kPasses = 2000;
  std::vector<std::int16_t> a(kLen), b(kLen);
  Rng rng(1);
  for (std::size_t i = 0; i < kLen; ++i) {
    a[i] = static_cast<std::int16_t>(rng.uniform_int(-64, 63));
    b[i] = static_cast<std::int16_t>(rng.uniform_int(-16, 15));
  }
  double best = 0.0;
  std::int64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      // Tells the compiler the operands may have changed, so every pass
      // really runs.
      asm volatile("" : : "r"(a.data()), "r"(b.data()) : "memory");
      std::int32_t acc = 0;
      for (std::size_t i = 0; i < kLen; ++i) acc += a[i] * b[i];
      sink += acc;
    }
    const double s = ms_between(t0, Clock::now()) / 1000.0;
    best = std::max(best, static_cast<double>(kLen) * kPasses / s / 1e9);
  }
  asm volatile("" : : "r"(sink));  // keeps the sums observable
  return best;
}

struct LayerProbe {
  std::string name;
  double wall_ms = 0.0;
  std::int64_t cycles = 0;
  std::int64_t macs = 0;
};

struct ModelProbe {
  std::vector<LayerProbe> layers;
  double executed_over_declared = 0.0;
  bool verified = true;
};

// Times ChainAccelerator::run_layer on each layer shape as a request
// executes it (NetworkLayerResult::layer), with seeded operands and a
// warm plan cache: one warm call, then the median of `reps` timed calls.
ModelProbe probe_model(const ServerSpec& spec, std::uint64_t seed, int reps,
                       Trace* trace) {
  const nn::NetworkModel net =
      serve::channel_reduced_proxy(nn::model_by_name(spec.model), spec.scale);
  chain::AcceleratorConfig cfg = serve::analytical_accelerator_config();
  cfg.exec_mode = spec.mode;
  auto cache = std::make_shared<serve::PlanCache>();
  chain::ChainAccelerator acc(cfg, cache);
  const energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  chain::NetworkRunOptions ro;
  ro.verify_against_golden = true;
  const chain::NetworkRunResult run = runner.run(
      net, seeded_tensor(input_shape(net, spec.batch),
                         mix_seed(seed, kProbeOperands, 0)),
      ro);

  ModelProbe out;
  out.verified = run.all_verified();
  SpanBuffer spans(trace, 200);
  std::int64_t executed = 0;
  for (std::size_t i = 0; i < run.layers.size(); ++i) {
    const nn::ConvLayerParams& layer = run.layers[i].layer;
    const Tensor<std::int16_t> ifmaps = seeded_tensor(
        Shape{layer.batch, layer.in_channels, layer.in_height, layer.in_width},
        mix_seed(seed, kProbeOperands, 2 * i + 1));
    const Tensor<std::int16_t> kernels = seeded_tensor(
        Shape{layer.out_channels, layer.channels_per_group(), layer.kernel,
              layer.kernel},
        mix_seed(seed, kProbeOperands, 2 * i + 2));
    LayerProbe p;
    p.name = layer.name;
    const chain::LayerRunResult warm = acc.run_layer(layer, ifmaps, kernels);
    p.cycles = warm.stats.total_cycles();
    p.macs = warm.stats.macs_performed;
    std::vector<double> walls;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      const chain::LayerRunResult timed = acc.run_layer(layer, ifmaps, kernels);
      const auto t1 = Clock::now();
      walls.push_back(ms_between(t0, t1));
      spans.add("chain.run_layer", t0, t1, 0, static_cast<std::int64_t>(i));
      if (timed.stats.total_cycles() != p.cycles ||
          timed.stats.macs_performed != p.macs || timed.ofmaps != warm.ofmaps)
        out.verified = false;
    }
    p.wall_ms = median(walls);
    executed += p.macs;
    out.layers.push_back(p);
  }
  out.executed_over_declared =
      ratio(static_cast<double>(executed),
            static_cast<double>(net.macs_per_image() * spec.batch));
  return out;
}

// --- running a workload ------------------------------------------------------------

const ServerSpec kAlexnetSpec{"alexnet", 8, 2, 2, chain::ExecMode::kAnalytical};
const ServerSpec kCifarSpec{"cifar10", 8, 1, 1, chain::ExecMode::kCycleAccurate};

// setup_s is the median of this many set-ups: one set-up of the gateway
// takes ~10 ms and includes journal fsyncs, so single figures scatter.
constexpr int kSetupRepeats = 11;
constexpr std::size_t kReplayRequests = 1200;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir = ".bench_build/perfbench-work";
  bool list_metrics = false;
};

void add(std::vector<Metric>& out, const std::string& name, double value) {
  for (const auto& [n, u] : perfbench::per_layer_metrics())
    if (n == name) {
      out.push_back({name, u, value});
      return;
    }
  for (const perfbench::MetricSpec& s : perfbench::end_to_end_metrics())
    if (name == s.name) {
      out.push_back({name, s.unit, value});
      return;
    }
  throw std::logic_error("metric not in the catalogue: " + name);
}

// A --trace 0 run: repeated setups, one timed loop, the checks, and the
// end-to-end metrics. W is ServerWorkload or GatewayWorkload.
template <class W>
WorkloadRun run_timed(const WorkloadDef& def, W& w, double seconds) {
  WorkloadRun out;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) setups.push_back(w.setup());
  LoopResult loop =
      w.loop(seconds, perfbench::min_samples_for(def.tail_permille), nullptr);
  const double rss = peak_rss_mb();
  w.check(loop);
  const LoopFigures f = figures(loop, def.tail_permille);

  double images = 0.0, modelled = 0.0, fps = 0.0;
  for (const Outcome* o : loop.in_window()) {
    images += static_cast<double>(o->images);
    modelled += o->modelled_seconds;
    fps = o->fps;
  }
  out.attempted = loop.attempted();
  out.failed = loop.failed();
  add(out.metrics, "throughput_rps", f.throughput_rps);
  add(out.metrics, "latency_p50_ms", f.p50_ms);
  add(out.metrics, "latency_tail_ms", f.tail_ms);
  add(out.metrics, "setup_s", median(setups));
  add(out.metrics, "peak_rss_mb", rss);
  add(out.metrics, "sim_cycles_per_s", f.cycles_per_s);
  // In-process workloads: NetworkRunResult::fps of the (deterministic)
  // run. Gateway: images over modelled seconds across the served mix.
  add(out.metrics, "modelled_fps", W::kFrontDoor ? ratio(images, modelled) : fps);

  char line[256];
  std::snprintf(line, sizeof line,
                "window %.3f s, %zu samples in window; latency_tail_ms is "
                "p%d (%zu samples beyond it)",
                loop.window_s(), f.samples, def.tail_permille / 10,
                perfbench::samples_beyond(f.samples, def.tail_permille));
  out.notes.emplace_back(line);
  std::snprintf(line, sizeof line, "error_rate %.6f (%" PRId64 " of %" PRId64 ")",
                ratio(static_cast<double>(out.failed),
                      static_cast<double>(out.attempted)),
                out.failed, out.attempted);
  out.notes.emplace_back(line);
  return out;
}

// A --trace 1 run: the workload untraced then traced for half the time
// each, then the probes that do not depend on the workload. `reference`
// supplies the gateway mix's reference cycles for the Fleet replay.
template <class W>
WorkloadRun run_traced(const WorkloadDef& def, W& w, double seconds,
                       Trace& trace, std::uint64_t seed,
                       const GatewayWorkload& reference) {
  WorkloadRun out;
  const std::size_t min_samples = perfbench::min_samples_for(def.tail_permille);
  w.setup();
  LoopResult plain = w.loop(seconds / 2, min_samples, nullptr);
  const StackCounters before = w.counters();
  LoopResult traced = w.loop(seconds / 2, min_samples, &trace);
  const StackCounters after = w.counters();
  w.check(plain);
  w.check(traced);
  out.attempted = plain.attempted() + traced.attempted();
  out.failed = plain.failed() + traced.failed();

  const LoopFigures fp = figures(plain, def.tail_permille);
  const LoopFigures ft = figures(traced, def.tail_permille);

  const double peak = host_peak_gmacs();
  const ModelProbe alexnet = probe_model(kAlexnetSpec, seed, 5, &trace);
  const ModelProbe cifar = probe_model(kCifarSpec, seed, 3, &trace);
  const GatewayWorkload::ReplayFigures rep =
      reference.replay(kReplayRequests, &trace);
  out.attempted += rep.requests;
  out.failed += rep.failed + (alexnet.verified ? 0 : 1) + (cifar.verified ? 0 : 1);

  for (const auto& [name, probe] :
       {std::pair<const char*, const ModelProbe*>{"alexnet", &alexnet},
        {"cifar10", &cifar}}) {
    const std::string base = std::string("chain.") + name + ".";
    for (const LayerProbe& l : probe->layers) {
      const double gmacs = ratio(static_cast<double>(l.macs), l.wall_ms * 1e6);
      add(out.metrics, base + l.name + ".wall_ms", l.wall_ms);
      add(out.metrics, base + l.name + ".gmacs", gmacs);
      add(out.metrics, base + l.name + ".pct_peak", 100.0 * ratio(gmacs, peak));
      add(out.metrics, base + l.name + ".modelled_cycles",
          static_cast<double>(l.cycles));
      add(out.metrics, base + l.name + ".executed_macs",
          static_cast<double>(l.macs));
    }
    add(out.metrics, base + "executed_over_declared_macs",
        probe->executed_over_declared);
  }
  // No HTTP front door on the in-process workloads' path: 0 there.
  add(out.metrics, "net.front_door_ms.p50",
      W::kFrontDoor ? perfbench::percentile(ft.front_door, 500) : 0.0);
  add(out.metrics, "net.front_door_ms.p99",
      W::kFrontDoor ? perfbench::percentile(ft.front_door, 990) : 0.0);
  add(out.metrics, "serve.submit_ms.p50", perfbench::percentile(rep.submit_ms, 500));
  add(out.metrics, "serve.submit_ms.p99", perfbench::percentile(rep.submit_ms, 990));
  add(out.metrics, "journal.bytes_per_request",
      ratio(static_cast<double>(rep.journal.bytes_appended),
            static_cast<double>(rep.requests)));
  add(out.metrics, "journal.fsyncs_per_request",
      ratio(static_cast<double>(rep.journal.fsyncs),
            static_cast<double>(rep.requests)));
  add(out.metrics, "serve.queue_wait_ms.p50", perfbench::percentile(ft.queue, 500));
  add(out.metrics, "serve.queue_wait_ms.tail",
      perfbench::percentile(ft.queue, def.tail_permille));
  add(out.metrics, "serve.exec_ms.p50", perfbench::percentile(ft.exec, 500));
  add(out.metrics, "serve.preemptions",
      static_cast<double>(after.preemptions - before.preemptions));
  add(out.metrics, "serve.plan_cache_hit_rate",
      ratio(static_cast<double>(after.cache_hits - before.cache_hits),
            static_cast<double>(after.cache_lookups - before.cache_lookups)));
  add(out.metrics, "serve.arena_reuse_rate",
      ratio(static_cast<double>(after.arena_reuses - before.arena_reuses),
            static_cast<double>(after.arena_allocations -
                                before.arena_allocations)));
  add(out.metrics, "bench.host_peak_gmacs", peak);
  add(out.metrics, "bench.tracing_overhead",
      ratio(ft.throughput_rps, fp.throughput_rps));
  add(out.metrics, "bench.span_coverage", median_request_coverage(ft));

  char line[256];
  std::snprintf(line, sizeof line,
                "untraced %.2f rps over %zu samples, traced %.2f rps over %zu",
                fp.throughput_rps, fp.samples, ft.throughput_rps, ft.samples);
  out.notes.emplace_back(line);
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + flag);
    }
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--work-dir") a.work_dir = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return a;
}

int run(const Args& args) {
  if (args.list_metrics) {
    for (const perfbench::MetricSpec& s : perfbench::end_to_end_metrics())
      std::cout << "end_to_end " << s.name << ' ' << s.unit << '\n';
    for (const auto& [name, unit] : perfbench::per_layer_metrics())
      std::cout << "per_layer " << name << ' ' << unit << '\n';
    return 0;
  }
  const WorkloadDef* def = find_workload(args.workload);
  if (!def) {
    std::cerr << "unknown --workload \"" << args.workload << "\"; valid:";
    for (const WorkloadDef& w : kWorkloads) std::cerr << ' ' << w.name;
    std::cerr << '\n';
    return 2;
  }
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  fs::create_directories(args.work_dir);
  std::string tmpl = (args.work_dir / "run-XXXXXX").string();
  if (!mkdtemp(tmpl.data())) throw std::runtime_error("mkdtemp failed");
  // Holds this run's journals; removed however the run ends.
  struct RunDir {
    fs::path path;
    ~RunDir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } run_dir{tmpl};
  const fs::path& dir = run_dir.path;

  std::cout << "workload " << def->name << " (seed " << args.seed << ", trace "
            << args.trace << ")\n  why: " << def->why
            << "\n  seed host: " << def->seed_host << '\n';

  Trace trace(Clock::now());
  WorkloadRun result;
  {
    const auto drive = [&](auto& w, const GatewayWorkload* gateway) {
      if (!args.trace) {
        result = run_timed(*def, w, args.seconds);
        return;
      }
      // The Fleet replay checks against the gateway mix's reference
      // cycles; in-process workloads build them on a side instance (no
      // setup, no port).
      std::optional<GatewayWorkload> side;
      if (!gateway) gateway = &side.emplace(args.seed, dir);
      result = run_traced(*def, w, args.seconds, trace, args.seed, *gateway);
      const fs::path path =
          args.work_dir / ("trace-" + std::string(def->name) + "-seed" +
                           std::to_string(args.seed) + ".json");
      trace.write(path);
      result.notes.push_back("trace written to " + path.string());
    };
    const std::string name = def->name;
    if (name == "gateway-mixed") {
      GatewayWorkload w(args.seed, dir);
      drive(w, &w);
    } else {
      ServerWorkload w(name == "serve-alexnet" ? kAlexnetSpec : kCifarSpec,
                       args.seed);
      drive(w, nullptr);
    }
  }

  bool finite = true;
  for (const Metric& m : result.metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& n : result.notes) std::cout << "  " << n << '\n';
  const bool correct = result.failed == 0 && finite;
  std::cout << perfbench::result_line(correct, result.attempted, result.failed,
                                      result.metrics)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
