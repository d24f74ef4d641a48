// wire-overlap: the optimizerd stack in-process over loopback TCP. Four
// closed-loop OptimizerClient connections alternate two kinds of query:
// distinct 10-table queries sharing a 7-table chain core (fragment
// seeding and publishing carry them), and a small repeating pool of 3-6
// table TPC-H blocks (frontier cache and coalescing serve them).
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "catalog/tpch.h"
#include "checks.h"
#include "corpus.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/optimizer_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using moqo::CellIndex;

constexpr int kClients = 4;
// Large-then-small pairs per client and round.
constexpr int kPairsPerRound = 4;
// Distinct large queries generated per client: far more than a client
// completes in a 60-second run, so none repeats (a repeat would be a
// cache hit). A client that ran out would stop early.
constexpr int kLargePerClient = 600;
// Large queries per run whose frontier is checked against the exact DP
// and a standalone single-threaded session.
constexpr int kLargeSample = 3;

struct WireSetup {
  moqo::Catalog catalog;
  std::vector<moqo::Query> large;
  std::vector<moqo::Query> small;
  std::string store_dir;
  std::unique_ptr<moqo::OptimizerService> service;
  std::unique_ptr<moqo::net::OptimizerServer> server;
  std::vector<std::unique_ptr<moqo::net::OptimizerClient>> clients;

  ~WireSetup() {
    clients.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
    service.reset();
    if (!store_dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(store_dir, ignored);
    }
  }
};

moqo::ServiceOptions WireServiceOptions(const std::string& store_path) {
  moqo::ServiceOptions options;
  options.num_threads = 4;
  options.num_shards = 2;
  options.frontier_cache_capacity = 64;
  options.coalesce_in_flight = true;
  options.fragment_cache_bytes = size_t{64} << 20;
  options.fragment_store_path = store_path;
  options.fragment_fsync = moqo::FragmentFsyncMode::kNone;
  options.operator_options = ServiceOperatorOptions();
  return options;
}

// Returns null (after recording why) when the stack cannot start.
std::unique_ptr<WireSetup> SetUp(uint64_t seed, int attempt, Report* report) {
  auto setup = std::make_unique<WireSetup>();
  setup->catalog = moqo::MakeTpchCatalog();
  moqo::Rng rng(seed);
  setup->large =
      OverlappingQueries(&setup->catalog, rng, kClients * kLargePerClient);
  setup->small = TpchBlocksBetween(setup->catalog, 3, 6);
  setup->store_dir = ".bench_tmp/wire-" + std::to_string(::getpid()) + "-" +
                     std::to_string(attempt);
  std::error_code ec;
  std::filesystem::create_directories(setup->store_dir, ec);
  if (ec) {
    report->Expect("wire-overlap setup", "cannot create " + setup->store_dir);
    return nullptr;
  }
  setup->service = std::make_unique<moqo::OptimizerService>(
      setup->catalog, WireServiceOptions(setup->store_dir + "/fragments.log"));
  moqo::net::ServerOptions server_options;
  server_options.host = "127.0.0.1";
  setup->server = std::make_unique<moqo::net::OptimizerServer>(
      setup->service.get(), server_options);
  const moqo::Status started = setup->server->Start();
  if (!started.ok()) {
    report->Expect("wire-overlap setup", "server: " + started.ToString());
    return nullptr;
  }
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<moqo::net::OptimizerClient>();
    moqo::Status connected;
    {
      ScopedSpan span("net.connect", 0);
      connected = client->Connect("127.0.0.1", setup->server->port());
    }
    if (!connected.ok()) {
      report->Expect("wire-overlap setup", "connect: " + connected.ToString());
      return nullptr;
    }
    setup->clients.push_back(std::move(client));
  }
  return setup;
}

struct Op {
  bool large = false;
  size_t query = 0;
  bool from_cache = false;
  double ttff_ms = -1.0;
  double final_ms = 0.0;
  std::vector<double> intervals_ms;
  uint64_t frames = 0;
  uint64_t gaps = 0;
  double result_bytes = 0.0;
  uint64_t plans_generated = 0;
  std::string error;
  std::vector<CellIndex::Entry> plans;
};

void RunOp(moqo::net::OptimizerClient* client, const moqo::Query& query,
           uint64_t qid, bool trace, Op* op) {
  ScopedSpan query_span("bench.query", qid);
  moqo::SubmitRequest request;
  request.query = query;
  // Wire v1 carries no IamaOptions: remote runs use the server's default
  // session options (IamaOptions{}), which the checks below mirror.
  request.subscribe = true;
  const Clock::time_point submitted = Clock::now();
  const moqo::StatusOr<moqo::SubmitResponse> response = [&]() {
    ScopedSpan span("net.submit", qid);
    return client->Submit(request);
  }();
  if (!response.ok()) {
    op->error = "submit: " + response.status().ToString();
    return;
  }
  const moqo::QueryId id = response.value().id;
  op->from_cache = response.value().from_cache;
  Clock::time_point last = submitted;
  for (;;) {
    moqo::StatusOr<bool> more = [&]() {
      ScopedSpan span("net.wait_snapshot", qid);
      return client->WaitSnapshot(id);
    }();
    if (!more.ok()) {
      op->error = "wait snapshot: " + more.status().ToString();
      return;
    }
    if (!more.value()) break;
    const Clock::time_point now = Clock::now();
    const std::vector<moqo::net::SnapshotMsg> msgs = client->TakeSnapshots(id);
    const double gap_ms =
        std::chrono::duration<double, std::milli>(now - last).count();
    if (op->ttff_ms < 0.0) {
      op->ttff_ms = gap_ms;
    } else {
      // Frames drained together share the interval since the last drain.
      for (size_t i = 0; i < msgs.size(); ++i) {
        op->intervals_ms.push_back(gap_ms / static_cast<double>(msgs.size()));
      }
    }
    last = now;
    op->frames += msgs.size();
    for (const moqo::net::SnapshotMsg& msg : msgs) op->gaps += msg.dropped;
  }
  moqo::StatusOr<moqo::QueryResult> result = [&]() {
    ScopedSpan span("net.wait", qid);
    return client->Wait(id);
  }();
  op->final_ms = MsSince(submitted);
  if (!result.ok()) {
    op->error = "wait: " + result.status().ToString();
    return;
  }
  if (result.value().state != moqo::QueryState::kDone) {
    op->error = "query did not end kDone";
    return;
  }
  if (trace) {
    // The wire cost of this result: one encode and decode through the
    // public RESULT codec.
    ScopedSpan span("net.codec", qid);
    moqo::net::Frame frame;
    frame.type = static_cast<uint8_t>(moqo::net::MsgType::kResult);
    frame.payload = moqo::net::EncodeResult(result.value());
    moqo::QueryResult decoded;
    const moqo::Status st = moqo::net::DecodeResult(frame, &decoded);
    op->result_bytes = static_cast<double>(frame.payload.size());
    if (!st.ok()) op->error = "result codec: " + st.ToString();
  }
  op->plans_generated = result.value().plans_generated;
  op->plans = std::move(result.value().frontier.plans);
}

std::vector<CellIndex::Entry> StandaloneFrontier(
    const moqo::PlanFactory& factory) {
  const moqo::IamaOptions options;
  moqo::IamaSession session(factory, options);
  moqo::FrontierSnapshot snapshot;
  for (int i = 0; i < options.schedule.NumLevels(); ++i) {
    snapshot = session.Step();
    session.ApplyAction(moqo::UserAction::Continue());
  }
  return snapshot.plans;
}

}  // namespace

void RunWireOverlap(const RunConfig& config, Report* report) {
  int attempt = 0;
  const std::unique_ptr<WireSetup> setup = RepeatSetUp(
      [&]() { return SetUp(config.seed, attempt++, report); }, report);
  if (setup == nullptr) return;
  moqo::OptimizerService* service = setup->service.get();

  std::vector<std::vector<Op>> ops(kClients);
  std::atomic<uint64_t> query_seq{0};
  const moqo::ServiceStats stats_before = service->stats();
  const ProcessUsage before = ProcessUsage::Now();
  const Clock::time_point run_start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      moqo::Rng rng(config.seed * 31 + static_cast<uint64_t>(c) + 1);
      size_t next_large = 0;
      for (int round = 0;
           round == 0 || MsSince(run_start) < config.seconds * 1e3; ++round) {
        if (next_large + kPairsPerRound > kLargePerClient) break;
        for (int p = 0; p < kPairsPerRound; ++p) {
          for (const bool large : {true, false}) {
            Op op;
            op.large = large;
            op.query = large ? static_cast<size_t>(c) +
                                   kClients * next_large++
                             : rng.Uniform(setup->small.size());
            const moqo::Query& query =
                large ? setup->large[op.query] : setup->small[op.query];
            RunOp(setup->clients[static_cast<size_t>(c)].get(), query,
                  ++query_seq, config.trace, &op);
            ops[static_cast<size_t>(c)].push_back(std::move(op));
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s = MsSince(run_start) / 1e3;
  ReportProcess(before, report);
  const moqo::ServiceStats stats = service->stats().Since(stats_before);

  std::vector<const Op*> all;
  for (const auto& client_ops : ops) {
    for (const Op& op : client_ops) all.push_back(&op);
  }
  std::vector<double> ttff, final_ms, intervals, cached, bytes;
  uint64_t frames = 0, gaps = 0, plans_generated = 0;
  double done = 0.0;
  for (const Op* op : all) {
    ++report->attempted;
    if (!op->error.empty()) {
      ++report->failed;
      continue;
    }
    done += 1.0;
    if (op->large) {
      ttff.push_back(op->ttff_ms);
      final_ms.push_back(op->final_ms);
      if (!op->intervals_ms.empty()) {
        intervals.push_back(Mean(op->intervals_ms));
      }
    }
    if (op->from_cache) cached.push_back(op->final_ms);
    bytes.push_back(op->result_bytes);
    frames += op->frames;
    gaps += op->gaps;
    plans_generated += op->plans_generated;
  }
  // Latencies are those of the distinct large queries: mixed with cache
  // hits, a median would sit between two populations.
  report->Set("qps", done / elapsed_s);
  report->Set("ttff_p50_ms", Median(ttff));
  report->Set("final_p50_ms", Median(final_ms));
  report->Set("invocation_p50_ms", Median(intervals));
  if (config.trace) {
    const moqo::FragmentStoreStats store =
        service->fragment_store()->Stats();
    report->Set("net.cached_p50_ms", Median(cached));
    report->Set("net.ttff_p90_ms", Quantile(ttff, 0.9));
    report->Set("net.snapshot_frames", static_cast<double>(frames));
    report->Set("net.snapshot_gaps", static_cast<double>(gaps));
    report->Set("net.result_frame_bytes", Median(bytes));
    report->Set("service.steps", static_cast<double>(stats.steps_executed));
    report->Set("service.work_steals", static_cast<double>(stats.work_steals));
    report->Set("service.cache_hits", static_cast<double>(stats.cache_hits));
    report->Set("service.coalesced", static_cast<double>(stats.coalesced));
    report->Set("service.snapshot_drops",
                static_cast<double>(stats.snapshot_drops));
    report->Set("service.plans_generated",
                static_cast<double>(plans_generated));
    report->Set("fragment.hits", static_cast<double>(stats.fragment_hits));
    report->Set("fragment.misses", static_cast<double>(stats.fragment_misses));
    const double lookups =
        static_cast<double>(stats.fragment_hits + stats.fragment_misses);
    report->Set("fragment.hit_ratio",
                lookups == 0.0 ? 0.0 : stats.fragment_hits / lookups);
    report->Set("fragment.publishes",
                static_cast<double>(stats.fragment_publishes));
    report->Set("fragment.evictions",
                static_cast<double>(stats.fragment_evictions));
    report->Set("fragment.hot_bytes", static_cast<double>(store.bytes));
    report->Set("fragment.cold_bytes", static_cast<double>(store.cold_bytes));
  }
  for (const Op* op : all) {
    report->Expect("wire-overlap query", op->error);
  }

  // Checks, outside the timed region. Small queries: every answer equals
  // the first (cache hits and coalesced followers serve the run's own
  // frontier) and covers the exact frontier (Theorem 2 at alpha_T). A
  // seeded sample of large queries: coverage, and bit-identity with a
  // standalone single-threaded session — fragment seeding promises it.
  const moqo::ResolutionSchedule schedule = moqo::IamaOptions{}.schedule;
  auto factory_for = [&](const moqo::Query& q) {
    return std::make_unique<moqo::PlanFactory>(
        q, setup->catalog, moqo::MetricSchema::Standard3(),
        moqo::CostModelParams{}, ServiceOperatorOptions());
  };
  std::vector<const Op*> first_small(setup->small.size(), nullptr);
  std::vector<const Op*> large_done;
  for (const Op* op : all) {
    if (!op->error.empty()) continue;
    if (op->large) {
      large_done.push_back(op);
      continue;
    }
    const Op*& first = first_small[op->query];
    if (first == nullptr) {
      first = op;
      const auto factory = factory_for(setup->small[op->query]);
      report->Expect(
          "wire-overlap " + setup->small[op->query].name + " coverage",
          CheckCovers(CostsOf(op->plans), ExactFrontier(*factory),
                      std::pow(schedule.alpha_target(), factory->NumTables())));
    } else {
      report->Expect(
          "wire-overlap " + setup->small[op->query].name + " repeat",
          CheckIdentical(FrontierSignature(op->plans),
                         FrontierSignature(first->plans)));
    }
  }
  moqo::Rng sample_rng(config.seed ^ 0x5A3B1E);
  for (int k = 0; k < kLargeSample && !large_done.empty(); ++k) {
    const Op* op = large_done[sample_rng.Uniform(large_done.size())];
    const moqo::Query& q = setup->large[op->query];
    const auto factory = factory_for(q);
    report->Expect(
        "wire-overlap " + q.name + " coverage",
        CheckCovers(CostsOf(op->plans), ExactFrontier(*factory),
                    std::pow(schedule.alpha_target(), factory->NumTables())));
    report->Expect("wire-overlap " + q.name + " vs standalone session",
                   CheckIdentical(FrontierSignature(op->plans),
                                  FrontierSignature(StandaloneFrontier(*factory))));
  }
}

}  // namespace perfbench
