// The farm_hosted workload: the three-core CORDIC farm (feeder -> worker
// with a 16-PE sysgen pipeline -> collector, as in bench/bench_server.cpp)
// looping a seed-drawn 8-pair dataset for 1000 rounds, hosted as one
// journaled session of an in-process server::Service behind HttpServer on
// a loopback port. One client on one keep-alive connection creates the
// session, starts it, polls it closed-loop with a 5 ms think time until
// it halts, fetches stats, metrics and checkpoint, and deletes it. The
// pages must be byte-identical to a batch SimSystem run of the same
// machine and config, and the checkpoint restored into a batch system
// must hold the reference quotients.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "apps/cordic/cordic_app.hpp"
#include "apps/cordic/cordic_reference.hpp"
#include "apps/machine_peripherals.hpp"
#include "common/json.hpp"
#include "ledger.hpp"
#include "machine/machine_desc.hpp"
#include "rsp/transport.hpp"
#include "server/http.hpp"
#include "server/service.hpp"
#include "server/session.hpp"
#include "sim/sim_system.hpp"

namespace ledger {
namespace {

using namespace mbcosim;
namespace fs = std::filesystem;

constexpr unsigned kRounds = 1000;
constexpr unsigned kPairs = 8;
constexpr unsigned kWorkerPes = 16;
constexpr unsigned kWorkers = 3;
constexpr Cycle kControlQuantum = 50'000;
constexpr Cycle kCkptEvery = 100'000;
constexpr auto kThinkTime = std::chrono::milliseconds(5);
constexpr double kRequestTimeoutS = 30.0;
constexpr double kSessionTimeoutS = 120.0;
/// Create/delete pairs (no run) before each session: extra set-up
/// samples, spread over the whole run.
constexpr int kSetupPairsPerSession = 8;
constexpr int kMinSessions = 3;
constexpr std::size_t kCollector = 2;  ///< core index of the collector

std::string hex_words(const std::vector<i32>& words) {
  std::string out;
  for (const i32 word : words) {
    char line[32];
    std::snprintf(line, sizeof line, "  .word 0x%08x\n",
                  static_cast<unsigned>(word));
    out += line;
  }
  return out;
}

/// bench_server's farm with the dataset drawn from the seed.
machine::MachineDesc farm_desc(const std::vector<i32>& x,
                               const std::vector<i32>& y) {
  const std::string count = std::to_string(kRounds);
  machine::MachineDesc desc;
  desc.quantum = 64;
  desc.fifo_depth = 16;

  machine::CoreDesc feeder;
  feeder.name = "feeder";
  feeder.program = R"(
start:
  li r25, )" + count + R"(
round_loop:
  la r21, data_x
  la r22, data_y
  li r29, 32
  addk r10, r0, r0
item_loop:
  lw r3, r21, r10
  put r3, rfsl1
  lw r4, r22, r10
  put r4, rfsl1
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, item_loop
  addik r25, r25, -1
  bnei r25, round_loop
  halt

data_x:
)" + hex_words(x) + "data_y:\n" + hex_words(y);

  machine::CoreDesc worker;
  worker.name = "worker";
  worker.program = R"(
start:
  li r25, )" + count + R"(
round_loop:
  li r20, 2
set_loop:
  cput r0, rfsl0
  li r5, 4
send_loop:
  get r3, rfsl1
  put r3, rfsl0
  get r3, rfsl1
  put r3, rfsl0
  put r0, rfsl0
  addik r5, r5, -1
  bnei r5, send_loop
  li r5, 4
recv_loop:
  get r3, rfsl0
  get r3, rfsl0
  get r3, rfsl0
  put r3, rfsl2
  addik r5, r5, -1
  bnei r5, recv_loop
  addik r20, r20, -1
  bnei r20, set_loop
  addik r25, r25, -1
  bnei r25, round_loop
  halt
)";

  machine::CoreDesc collector;
  collector.name = "collector";
  collector.program = R"(
start:
  li r25, )" + count + R"(
round_loop:
  la r28, results
  li r29, 32
  addk r10, r0, r0
store_loop:
  get r3, rfsl1
  sw r3, r28, r10
  addik r10, r10, 4
  rsub r3, r10, r29
  bnei r3, store_loop
  addik r25, r25, -1
  bnei r25, round_loop
  halt

results: .space 32
)";

  desc.cores = {feeder, worker, collector};
  desc.links = {{"feeder", 1, "worker", 1}, {"worker", 2, "collector", 1}};
  machine::PeripheralDesc cordic;
  cordic.core = "worker";
  cordic.type = "cordic";
  cordic.channel = 0;
  cordic.params["num_pes"] = kWorkerPes;
  desc.peripherals = {cordic};
  return desc;
}

sim::SimSystem build_batch(const machine::MachineDesc& desc,
                           unsigned workers) {
  Expected<sim::SimSystem> built =
      sim::SimSystem::Builder().machine(desc).workers(workers).metrics()
          .build();
  if (!built) die("farm build failed: " + built.error());
  return std::move(built).value();
}

std::vector<i32> collector_results(const sim::SimSystem& system) {
  std::vector<i32> out;
  for (u32 i = 0; i < kPairs; ++i) {
    out.push_back(static_cast<i32>(system.word_on(kCollector, "results", i)));
  }
  return out;
}

/// Simulated results of one batch run, rendered as the session pages.
struct Pages {
  std::string stats;
  std::string metrics;
  Cycle cycles = 0;

  bool operator==(const Pages&) const = default;
};

Pages pages_of(const sim::SimSystem& system) {
  return {server::stats_text(system), system.metrics_snapshot().to_string(),
          system.stats().cycles};
}

/// What every hosted session is judged against: the collector's
/// reference quotients and the pages of a batch SimSystem run of the same
/// machine and config. The config includes the control quantum: the
/// batch run is chunked exactly as Session::worker_run chunks a hosted
/// run, one SimSystem::run(current + control_quantum) per control point.
struct Reference {
  machine::MachineDesc desc;
  std::string create_body;    ///< POST /sessions request body
  std::vector<i32> expected;  ///< cordic_divide_raw quotients
  Pages pages;
  core::CoSimStats stats;     ///< machine totals of the same run
  double hw_useful_ratio = 0.0;
};

/// Judge a halted batch farm: halted, collector quotients, and pages
/// equal to `want` when given. Counts one attempted operation.
void check_batch(const sim::SimSystem& system, core::StopReason stop,
                 const Reference& ref, const Pages* want,
                 const std::string& what, Report& report) {
  ++report.attempted;
  if (stop != core::StopReason::kHalted) {
    report.fail(what + " stopped: " + core::stop_reason_name(stop));
  } else if (collector_results(system) != ref.expected) {
    report.fail(what + " quotients differ from the CORDIC reference");
  } else if (want != nullptr && pages_of(system) != *want) {
    report.fail(what + " pages differ");
  }
}

/// One unchunked batch run (a single SimSystem::run) at `workers`;
/// returns its wall time and adds the build time to `build_s`.
double batch_run(const Reference& ref, unsigned workers, const Pages* want,
                 Report& report, Samples& build_s, Pages* pages = nullptr) {
  const double build_start = now_s();
  sim::SimSystem system = build_batch(ref.desc, workers);
  build_s.add(now_s() - build_start);
  const double start = now_s();
  const core::StopReason stop = system.run();
  const double wall = now_s() - start;
  check_batch(system, stop, ref, want,
              "batch farm at workers=" + std::to_string(workers), report);
  if (pages != nullptr) *pages = pages_of(system);
  return wall;
}

Reference make_reference(u64 seed, Report& report) {
  auto [x, y] = apps::cordic::make_cordic_dataset(
      kPairs, derive_seed(seed, kTimedStream));
  Reference ref;
  for (unsigned i = 0; i < kPairs; ++i) {
    ref.expected.push_back(
        apps::cordic::cordic_divide_raw(x[i], y[i], kWorkerPes));
  }
  ref.desc = farm_desc(x, y);
  ref.create_body = "{\"machine\":" + ref.desc.to_json() +
                    ",\"metrics\":true,\"workers\":" +
                    std::to_string(kWorkers) + ",\"control_quantum\":" +
                    std::to_string(kControlQuantum) + ",\"ckpt_every\":" +
                    std::to_string(kCkptEvery) + "}";
  sim::SimSystem system = build_batch(ref.desc, kWorkers);
  core::StopReason stop = core::StopReason::kCycleLimit;
  do {
    stop = system.run(system.stats().cycles + kControlQuantum);
  } while (stop == core::StopReason::kCycleLimit);
  check_batch(system, stop, ref, nullptr, "control-quantum batch farm",
              report);
  ref.pages = pages_of(system);
  ref.stats = system.stats();
  // Share of stepped hardware cycles spent on cores with a peripheral.
  Cycle useful = 0;
  Cycle stepped = 0;
  for (std::size_t i = 0; i < system.core_count(); ++i) {
    const Cycle core_stepped = system.core_stats(i).hw_cycles_stepped;
    stepped += core_stepped;
    for (const machine::PeripheralDesc& p : ref.desc.peripherals) {
      if (p.core == system.core_name(i)) useful += core_stepped;
    }
  }
  ref.hw_useful_ratio =
      stepped > 0 ? static_cast<double>(useful) / static_cast<double>(stepped)
                  : 0.0;
  return ref;
}

/// HTTP/1.1 client on one keep-alive connection. The server closes a
/// connection after kMaxRequestsPerConnection requests (and says so with
/// "Connection: close"); the client then reconnects for the next request,
/// and that request's round trip includes the reconnect.
class HttpClient {
 public:
  explicit HttpClient(u16 port) : port_(port) {}

  struct Reply {
    int status = 0;  ///< 0: transport failure
    std::string body;
  };

  Reply call(const std::string& method, const std::string& path,
             const std::string& body = {}) {
    Reply reply;
    if (wire_ == nullptr) {
      wire_ = rsp::tcp_connect("127.0.0.1", port_);
      buffer_.clear();
      if (wire_ == nullptr) return reply;
    }
    std::string request = method + " " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: keep-alive\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n";
    if (!body.empty()) request += "Content-Type: application/json\r\n";
    request += "\r\n" + body;
    bool close = true;
    if (!wire_->send(request) || !read_reply(reply, close)) {
      reply.status = 0;
      close = true;
    }
    if (close) wire_.reset();
    return reply;
  }

 private:
  bool fill(double deadline) {
    const std::string chunk = wire_->recv(50);
    buffer_ += chunk;
    return !(chunk.empty() && wire_->closed()) && now_s() < deadline;
  }

  bool read_reply(Reply& reply, bool& close) {
    const double deadline = now_s() + kRequestTimeoutS;
    std::size_t header_end = std::string::npos;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill(deadline)) return false;
    }
    std::string head = buffer_.substr(0, header_end);
    std::transform(head.begin(), head.end(), head.begin(), [](char c) {
      return static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
    });
    if (head.rfind("http/1.1 ", 0) != 0) return false;
    reply.status = std::atoi(head.c_str() + 9);
    const std::size_t length_at = head.find("\r\ncontent-length:");
    if (length_at == std::string::npos) return false;
    const std::size_t length =
        std::strtoull(head.c_str() + length_at + 17, nullptr, 10);
    close = head.find("\r\nconnection: close") != std::string::npos;
    const std::size_t body_at = header_end + 4;
    while (buffer_.size() < body_at + length) {
      if (!fill(deadline)) return false;
    }
    reply.body = buffer_.substr(body_at, length);
    buffer_.erase(0, body_at + length);
    return true;
  }

  u16 port_;
  std::unique_ptr<rsp::Transport> wire_;
  std::string buffer_;
};

std::string json_string(const std::string& body, const std::string& key) {
  const auto parsed = common::json::parse(body);
  if (!parsed.ok() || !parsed.value().is_object()) return {};
  const auto it = parsed.value().object().find(key);
  if (it == parsed.value().object().end() || !it->second.is_string()) return {};
  return it->second.string();
}

long long json_int(const std::string& body, const std::string& key) {
  const auto parsed = common::json::parse(body);
  if (!parsed.ok() || !parsed.value().is_object()) return -1;
  const auto it = parsed.value().object().find(key);
  if (it == parsed.value().object().end() || !it->second.is_int()) return -1;
  return it->second.integer();
}

/// Journal footprint of one session: bytes on disk and checkpoint
/// records written (records are numbered from 1; older ones are pruned).
void journal_usage(const std::string& dir, u64& bytes, u64& records) {
  bytes = 0;
  records = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::uintmax_t size = entry.file_size(ec);
    if (!ec) bytes += size;
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && name.size() > 10 &&
        name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      records = std::max<u64>(
          records, std::strtoull(name.c_str() + 5, nullptr, 10));
    }
  }
}

/// The hosted side: a Service with a fresh state dir behind an
/// HttpServer on an ephemeral loopback port, and one client.
class Host {
 public:
  explicit Host(std::string state_dir) : state_dir_(std::move(state_dir)) {
    std::error_code ec;
    fs::remove_all(state_dir_, ec);
    server::Service::Options options;
    options.state_dir = state_dir_;
    options.limits.max_sessions = 4;
    options.limits.worker_budget = 16;  // admission independent of host
    service_ = std::make_unique<server::Service>(std::move(options));
    if (const Status status = service_->init(); !status.ok) {
      die("service init failed: " + status.message);
    }
    auto started = server::HttpServer::start(
        0, [this](const server::HttpRequest& request,
                  server::HttpResponseWriter& writer) {
          service_->handle(request, writer);
        });
    if (!started) die("http server start failed: " + started.error());
    http_ = std::move(started).value();
    client_.emplace(http_->port());
  }
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;
  ~Host() {
    client_.reset();
    service_->manager().kill_all();
    http_->stop();
    http_.reset();
    service_.reset();
    std::error_code ec;
    fs::remove_all(state_dir_, ec);
  }

  HttpClient& client() { return *client_; }
  [[nodiscard]] const std::string& state_dir() const { return state_dir_; }

 private:
  std::string state_dir_;
  std::unique_ptr<server::Service> service_;
  std::unique_ptr<server::HttpServer> http_;
  std::optional<HttpClient> client_;
};

/// Measurements of one hosted session.
struct Hosted {
  double phase_s = 0.0;  ///< POST run sent -> poll that sees it halted
  u64 journal_bytes = 0;
  u64 ckpt_records = 0;
};

/// An HTTP request under a span named `span`.
HttpClient::Reply spanned_call(Host& host, Tracer& tracer,
                               std::string_view span,
                               const std::string& method,
                               const std::string& path,
                               const std::string& body = {}) {
  Tracer::Scope scope(tracer, span);
  return host.client().call(method, path, body);
}

/// POST /sessions; the new session's id, or -1 after report.fail.
long long create_session(Host& host, const Reference& ref, Tracer& tracer,
                         Report& report) {
  const HttpClient::Reply created = spanned_call(
      host, tracer, "http.create", "POST", "/sessions", ref.create_body);
  const long long id = json_int(created.body, "id");
  if (created.status != 201 || id < 0) {
    report.fail("POST /sessions: " + std::to_string(created.status) + " " +
                created.body);
    return -1;
  }
  return id;
}

/// POST /sessions then DELETE, without running: a set-up sample.
void create_and_delete(Host& host, const Reference& ref, Tracer& tracer,
                       Report& report) {
  ++report.attempted;
  const long long id = create_session(host, ref, tracer, report);
  if (id < 0) return;
  const HttpClient::Reply deleted =
      spanned_call(host, tracer, "http.delete", "DELETE",
                   "/sessions/" + std::to_string(id));
  if (deleted.status != 200) report.fail("DELETE: " + deleted.body);
}

/// One full hosted session; false (after report.fail) on any miss.
bool host_session(Host& host, const Reference& ref, Tracer& tracer,
                  Report& report, Samples& poll_s, Hosted& out) {
  ++report.attempted;
  Tracer::Scope session_span(tracer, "session");
  const long long id = create_session(host, ref, tracer, report);
  if (id < 0) return false;
  const std::string path = "/sessions/" + std::to_string(id);

  const double phase_start = now_s();
  const HttpClient::Reply run =
      spanned_call(host, tracer, "http.run", "POST", path + "/run", "{}");
  if (run.status != 200) {
    report.fail("POST run: " + run.body);
    return false;
  }
  std::string info;
  for (;;) {
    std::this_thread::sleep_for(kThinkTime);
    const int span = tracer.begin("http.poll");
    const HttpClient::Reply poll = host.client().call("GET", path);
    tracer.end(span);
    const Tracer::Span& timed = tracer.spans()[static_cast<std::size_t>(span)];
    const std::string state = json_string(poll.body, "state");
    if (poll.status != 200) {
      report.fail("GET " + path + ": " + poll.body);
      return false;
    }
    if (state == "running") {
      poll_s.add(timed.end - timed.start);
    } else {
      out.phase_s = timed.end - phase_start;
      info = poll.body;
      break;
    }
    if (now_s() - phase_start > kSessionTimeoutS) {
      report.fail("hosted session did not finish");
      return false;
    }
  }
  const HttpClient::Reply stats =
      spanned_call(host, tracer, "http.stats", "GET", path + "/stats");
  const HttpClient::Reply metrics =
      spanned_call(host, tracer, "http.metrics", "GET", path + "/metrics");
  const HttpClient::Reply image =
      spanned_call(host, tracer, "http.ckpt", "GET", path + "/checkpoint");
  journal_usage(host.state_dir() + "/session-" + std::to_string(id),
                out.journal_bytes, out.ckpt_records);
  const HttpClient::Reply deleted =
      spanned_call(host, tracer, "http.delete", "DELETE", path);

  if (json_string(info, "state") != "idle" ||
      json_string(info, "stop") != "halted") {
    report.fail("hosted session ended " + info + ", want idle/halted");
  } else if (static_cast<Cycle>(json_int(info, "cycles")) !=
             ref.pages.cycles) {
    report.fail("hosted session cycles differ from batch: " + info);
  } else if (stats.status != 200 || stats.body != ref.pages.stats) {
    report.fail("hosted stats page differs from batch");
  } else if (metrics.status != 200 || metrics.body != ref.pages.metrics) {
    report.fail("hosted metrics page differs from batch");
  } else if (deleted.status != 200) {
    report.fail("DELETE: " + deleted.body);
  } else if (image.status != 200) {
    report.fail("GET checkpoint: " + image.body);
  } else {
    // The wire checkpoint restored into a batch system holds the
    // collector's reference quotients.
    sim::SimSystem restored = build_batch(ref.desc, 1);
    const Status status = restored.restore_image(
        std::vector<unsigned char>(image.body.begin(), image.body.end()));
    if (!status.ok) {
      report.fail("checkpoint restore: " + status.message);
    } else if (collector_results(restored) != ref.expected) {
      report.fail("checkpoint quotients differ from the CORDIC reference");
    } else {
      return true;
    }
  }
  return false;
}

std::string state_dir_name(const Args& args) {
  return ".bench_build/farm-state-" + std::to_string(getpid()) + "-" +
         std::to_string(args.seed);
}

struct HostedRun {
  Samples setup_s;  ///< POST /sessions round trips
  Samples phase_s;  ///< per session: POST run -> halted poll
  Samples poll_s;   ///< GET /sessions/N round trips while running
  u64 journal_bytes = 0;
  u64 ckpt_records = 0;
};

/// Full sessions for the run's seconds, each after a few create/delete
/// pairs that add set-up samples. Spans of every request stay in
/// `tracer`.
HostedRun host_sessions(const Args& args, const Reference& ref,
                        Tracer& tracer, Report& report) {
  Host host(state_dir_name(args));
  create_and_delete(host, ref, tracer, report);  // warm-up, not timed
  tracer.clear();
  HostedRun run;
  const double start = now_s();
  while (now_s() - start < args.seconds ||
         run.phase_s.size() < static_cast<std::size_t>(kMinSessions)) {
    for (int i = 0; i < kSetupPairsPerSession; ++i) {
      create_and_delete(host, ref, tracer, report);
    }
    Hosted hosted;
    if (!host_session(host, ref, tracer, report, run.poll_s, hosted)) {
      if (report.failed > 2 * kMinSessions) break;  // hopeless; stop early
      continue;
    }
    run.phase_s.add(hosted.phase_s);
    run.journal_bytes = hosted.journal_bytes;
    run.ckpt_records = hosted.ckpt_records;
  }
  run.setup_s = tracer.durations("http.create");
  return run;
}

void farm_end_to_end(const Args& args, const Reference& ref, Report& report) {
  Tracer tracer;
  const HostedRun run = host_sessions(args, ref, tracer, report);
  if (run.phase_s.empty()) return;  // every session failed; reported
  std::printf("%zu hosted sessions, phase s p0 %.6f p50 %.6f p100 %.6f\n"
              "%zu set-ups, ms p10 %.4f p50 %.4f p90 %.4f\n"
              "%zu running polls, ms p50 %.4f p90 %.4f\n",
              run.phase_s.size(), run.phase_s.quantile(0.0),
              run.phase_s.median(), run.phase_s.quantile(1.0),
              run.setup_s.size(), run.setup_s.quantile(0.1) * 1e3,
              run.setup_s.median() * 1e3, run.setup_s.quantile(0.9) * 1e3,
              run.poll_s.size(), run.poll_s.median() * 1e3,
              run.poll_s.quantile(0.9) * 1e3);
  const double cycles = static_cast<double>(ref.pages.cycles);
  report.set("mcps", cycles / run.phase_s.median() / 1e6);
  report.set("rep_s_p50", run.phase_s.median());
  report.set("setup_s", run.setup_s.median());
  report.set("sim_cycles", cycles);
  report.set("peak_rss_mb", peak_rss_mb());
}

void farm_per_layer(const Args& args, const Reference& ref, Report& report) {
  Tracer tracer;
  const HostedRun run = host_sessions(args, ref, tracer, report);
  if (run.phase_s.empty()) return;
  const auto ms = [&tracer](std::string_view span) {
    return tracer.durations(span).median() * 1e3;
  };
  report.set("http.create_ms", ms("http.create"));
  report.set("http.run_ms", ms("http.run"));
  report.set("http.stats_ms", ms("http.stats"));
  report.set("http.metrics_ms", ms("http.metrics"));
  report.set("http.ckpt_ms", ms("http.ckpt"));
  report.set("http.delete_ms", ms("http.delete"));
  report.set("poll_ms_p50", run.poll_s.median() * 1e3);
  report.set("poll_ms_p90", run.poll_s.quantile(0.9) * 1e3);
  report.set("journal.bytes", static_cast<double>(run.journal_bytes));
  report.set("journal.ckpt_records", static_cast<double>(run.ckpt_records));

  // Unchunked batch runs (one SimSystem::run) of the same machine at 3
  // and 1 workers. They must agree with each other at every worker
  // count; how far they sit from the control-quantum reference is the
  // chunking error of a hosted run.
  constexpr int kBatchRuns = 3;
  Pages unchunked;
  Samples w3_s;
  Samples w1_s;
  Samples build_s;
  w3_s.add(batch_run(ref, kWorkers, nullptr, report, build_s, &unchunked));
  w1_s.add(batch_run(ref, 1, &unchunked, report, build_s));
  for (int i = 1; i < kBatchRuns; ++i) {
    w3_s.add(batch_run(ref, kWorkers, &unchunked, report, build_s));
    w1_s.add(batch_run(ref, 1, &unchunked, report, build_s));
  }
  report.set("sim.build_ms", build_s.median() * 1e3);
  const Cycle chunk_err = unchunked.cycles > ref.pages.cycles
                              ? unchunked.cycles - ref.pages.cycles
                              : ref.pages.cycles - unchunked.cycles;
  std::printf("hosted (control quantum %llu) %llu cycles, unchunked batch "
              "%llu cycles\n",
              static_cast<unsigned long long>(kControlQuantum),
              static_cast<unsigned long long>(ref.pages.cycles),
              static_cast<unsigned long long>(unchunked.cycles));
  report.set("cycle_err_vs_unchunked", static_cast<double>(chunk_err));
  report.set("server.host_over_batch", run.phase_s.median() / w3_s.median());
  report.set("manycore.speedup_w3", w1_s.median() / w3_s.median());

  // Round replay at 1 worker: one quantum per ManyCoreEngine::run call,
  // each under a span; the result must equal the unchunked batch run's.
  tracer.clear();
  sim::SimSystem replay = build_batch(ref.desc, 1);
  core::ManyCoreEngine& engine = *replay.machine_engine();
  const int replay_span = tracer.begin("replay");
  core::MachineStop stop;
  for (Cycle target = engine.quantum();; target += engine.quantum()) {
    Tracer::Scope round(tracer, "manycore.round");
    stop = engine.run(target);
    if (stop.reason != core::StopReason::kCycleLimit) break;
  }
  tracer.end(replay_span);
  if (stop.reason != core::StopReason::kHalted ||
      pages_of(replay) != unchunked) {
    die("traced round replay's simulated statistics differ from the batch "
        "run's; no per-layer split reported");
  }
  report.set("manycore.rounds",
             static_cast<double>(tracer.count("manycore.round")));
  report.set("manycore.link_words", static_cast<double>(engine.link_words()));
  report.set("manycore.round_us_p50",
             tracer.durations("manycore.round").median() * 1e6);
  report.set("trace.overhead_x", tracer.total("replay") / w1_s.median());
  report.set("core.hw_useful_ratio", ref.hw_useful_ratio);
  const core::CoSimStats& stats = ref.stats;
  const double hw_total =
      static_cast<double>(stats.hw_cycles_stepped + stats.hw_cycles_skipped);
  report.set("core.hw_stepped", static_cast<double>(stats.hw_cycles_stepped));
  report.set("core.hw_skipped", static_cast<double>(stats.hw_cycles_skipped));
  report.set("core.quiesce_ratio",
             static_cast<double>(stats.hw_cycles_skipped) / hw_total);
  report.set("fsl.words", static_cast<double>(stats.bridge.words_to_hw +
                                              stats.bridge.words_from_hw));
  report.set("fsl.refused_writes",
             static_cast<double>(stats.bridge.refused_writes));
  report.set("fsl.stall_cycles", static_cast<double>(stats.fsl_stall_cycles));

  // Metrics snapshot, checkpoint image and restore on the halted farm.
  constexpr int kSamples = 5;
  tracer.clear();
  std::vector<unsigned char> image;
  for (int i = 0; i < kSamples; ++i) {
    {
      Tracer::Scope span(tracer, "obs.snapshot");
      if (replay.metrics_snapshot().to_string().empty()) {
        report.fail("empty metrics snapshot");
      }
    }
    Tracer::Scope span(tracer, "ckpt.snapshot");
    image = replay.snapshot();
  }
  for (int i = 0; i < kSamples; ++i) {
    sim::SimSystem restored = build_batch(ref.desc, 1);
    Status status;
    {
      Tracer::Scope span(tracer, "ckpt.restore");
      status = restored.restore_image(image);
    }
    ++report.attempted;
    if (!status.ok) {
      report.fail("restore_image: " + status.message);
    } else if (server::stats_text(restored) != unchunked.stats ||
               collector_results(restored) != ref.expected) {
      report.fail("restored farm differs from the batch run");
    }
  }
  report.set("obs.snapshot_ms", tracer.durations("obs.snapshot").median() * 1e3);
  report.set("ckpt.image_bytes", static_cast<double>(image.size()));
  report.set("ckpt.snapshot_ms",
             tracer.durations("ckpt.snapshot").median() * 1e3);
  report.set("ckpt.restore_ms",
             tracer.durations("ckpt.restore").median() * 1e3);
}

}  // namespace

void run_farm_workload(const Args& args, Report& report) {
  apps::register_machine_peripherals();
  const Reference ref = make_reference(args.seed, report);
  if (args.trace) {
    farm_per_layer(args, ref, report);
  } else {
    farm_end_to_end(args, ref, report);
  }
}

}  // namespace ledger
