// interactive-drag: the paper's Figure 1 user against an in-process
// OptimizerService. Two closed-loop users each run one session at a
// time: wait for resolution 3, drag the time bound down to the current
// frontier's median, then either relax it to unbounded and wait for the
// final frontier, or abandon the session with Cancel.
//
// The user reacts in the run's synchronous observer, between two
// optimizer invocations, as in the paper's interaction model: a drag or
// Cancel lands before the next step, so every session runs the same
// steps however the threads are scheduled.
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "corpus.h"
#include "service/optimizer_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using moqo::CellIndex;
using moqo::CostVector;
using moqo::FrontierSnapshot;

constexpr int kUsers = 2;
constexpr int kShapesPerTopology = 3;
constexpr int kWatchResolution = 3;

struct DragSetup {
  moqo::Catalog catalog;
  std::vector<moqo::Query> queries;
  std::unique_ptr<moqo::OptimizerService> service;
};

moqo::ServiceOptions DragServiceOptions() {
  moqo::ServiceOptions options;
  options.num_threads = 2;  // 2 shards x 1 thread: serial phase 2.
  options.num_shards = 2;
  options.coalesce_in_flight = false;
  options.frontier_cache_capacity = 0;  // Rounds repeat their queries.
  options.operator_options = ServiceOperatorOptions();
  return options;
}

// 9-table random chain, cycle and star queries of fixed shapes.
std::unique_ptr<DragSetup> SetUp(uint64_t seed) {
  auto setup = std::make_unique<DragSetup>();
  moqo::Rng rng(seed);
  const moqo::Topology kTopologies[] = {
      moqo::Topology::kChain, moqo::Topology::kCycle, moqo::Topology::kStar};
  for (int k = 0; k < kShapesPerTopology; ++k) {
    for (const moqo::Topology topology : kTopologies) {
      const uint64_t shape = 0xD4A6D00 + 16 * static_cast<uint64_t>(k) +
                             static_cast<uint64_t>(topology);
      setup->queries.push_back(
          JitteredRandomQuery(shape, topology, 9, rng, &setup->catalog));
    }
  }
  Shuffle(&setup->queries, rng);
  setup->service = std::make_unique<moqo::OptimizerService>(
      setup->catalog, DragServiceOptions());
  return setup;
}

// Where a session is: before the drag, under the dragged bounds, relaxed
// to unbounded, or ended (final frontier seen, or Cancel called).
enum class Phase { kExplore, kDragged, kRelaxed, kEnded };

// One session. The observer fields are written on the stepping shard
// thread; the user thread reads them after Wait returns.
struct Session {
  size_t query = 0;
  bool abandon = false;
  Phase phase = Phase::kExplore;
  CostVector tight;
  Clock::time_point submitted, last_snapshot, applied, cancelled;
  double ttff_ms = -1.0;
  double rebound_ms = -1.0;
  double cancel_ms = -1.0;
  double final_ms = -1.0;
  std::vector<double> intervals_ms;
  std::vector<std::string> violations;
  uint64_t plans_generated = 0;
  std::vector<CellIndex::Entry> final_plans;
};

double MedianTimeCost(const FrontierSnapshot& snapshot) {
  std::vector<double> times;
  for (const CellIndex::Entry& e : snapshot.plans) times.push_back(e.cost[0]);
  return Median(times);
}

// Steps of a completed session: resolutions 0..3 unbounded, 0..3 under
// the drag, then 0..rM relaxed. Abandoned sessions cancel on step 5.
int SessionSteps(const moqo::ResolutionSchedule& schedule) {
  return 2 * (kWatchResolution + 1) + schedule.NumLevels();
}

// The user's reaction to one snapshot of its run.
void OnSnapshot(moqo::OptimizerService* service, moqo::QueryId id,
                const FrontierSnapshot& snap, uint64_t qid, Session* s) {
  const Clock::time_point now = Clock::now();
  if (s->ttff_ms < 0.0) {
    s->ttff_ms =
        std::chrono::duration<double, std::milli>(now - s->submitted).count();
  } else {
    s->intervals_ms.push_back(
        std::chrono::duration<double, std::milli>(now - s->last_snapshot)
            .count());
  }
  s->last_snapshot = now;
  const CostVector inf = CostVector::Infinite(3);
  auto apply = [&](const CostVector& bounds) {
    ScopedSpan span("service.apply_bounds", qid);
    const moqo::Status st = service->ApplyBounds(id, bounds);
    if (!st.ok()) {
      s->violations.push_back("apply bounds: " + st.ToString());
      service->Cancel(id);
      s->phase = Phase::kEnded;
    }
    return st.ok();
  };
  switch (s->phase) {
    case Phase::kExplore:
      if (!snap.bounds.Equals(inf)) {
        s->violations.push_back("snapshot before the drag is bounded");
      }
      if (snap.resolution < kWatchResolution) return;
      s->tight = inf;
      s->tight[0] = MedianTimeCost(snap);
      s->applied = now;
      if (apply(s->tight)) s->phase = Phase::kDragged;
      return;
    case Phase::kDragged: {
      if (!snap.bounds.Equals(s->tight)) {
        s->violations.push_back("snapshot after the drag not under it");
      }
      const std::string bad = CheckWithinBounds(snap.plans, s->tight);
      if (!bad.empty()) s->violations.push_back("bounds respected: " + bad);
      if (s->rebound_ms < 0.0) {
        s->rebound_ms =
            std::chrono::duration<double, std::milli>(now - s->applied)
                .count();
      }
      if (s->abandon) {
        s->phase = Phase::kEnded;
        s->cancelled = Clock::now();
        ScopedSpan span("service.cancel", qid);
        service->Cancel(id);
        return;
      }
      if (snap.resolution < kWatchResolution) return;
      if (apply(inf)) s->phase = Phase::kRelaxed;
      return;
    }
    case Phase::kRelaxed:
      if (!snap.bounds.Equals(inf)) {
        s->violations.push_back("snapshot after relaxing is bounded");
      }
      if (snap.resolution < SweepSchedule().MaxResolution()) return;
      s->final_ms =
          std::chrono::duration<double, std::milli>(now - s->submitted)
              .count();
      s->final_plans = snap.plans;
      s->phase = Phase::kEnded;
      return;
    case Phase::kEnded:
      s->violations.push_back("snapshot after the session ended");
      return;
  }
}

void RunSession(moqo::OptimizerService* service, const moqo::Query& query,
                uint64_t qid, Session* s) {
  ScopedSpan query_span("bench.query", qid);
  moqo::SubmitRequest request;
  request.query = query;
  request.iama.schedule = SweepSchedule();
  request.max_iterations = SessionSteps(request.iama.schedule);
  request.observer = [service, qid, s](moqo::QueryId id,
                                       const FrontierSnapshot& snap) {
    OnSnapshot(service, id, snap, qid, s);
  };

  s->submitted = Clock::now();
  const moqo::StatusOr<moqo::SubmitResponse> response = [&]() {
    ScopedSpan span("service.submit", qid);
    return service->Submit(std::move(request));
  }();
  if (!response.ok()) {
    s->violations.push_back("submit: " + response.status().ToString());
    return;
  }
  moqo::QueryResult result;
  {
    ScopedSpan span("service.wait", qid);
    result = service->Wait(response.value().id);
  }
  s->plans_generated = result.plans_generated;
  if (s->abandon) {
    if (s->rebound_ms >= 0.0) s->cancel_ms = MsSince(s->cancelled);
    if (result.state != moqo::QueryState::kCancelled) {
      s->violations.push_back("abandoned session did not end kCancelled");
    }
    return;
  }
  if (result.state != moqo::QueryState::kDone) {
    s->violations.push_back("completed session did not end kDone");
  }
  if (s->final_ms < 0.0) {
    s->violations.push_back("run ended before the final frontier");
  }
}

}  // namespace

void RunInteractiveDrag(const RunConfig& config, Report* report) {
  const std::unique_ptr<DragSetup> setup =
      RepeatSetUp([&]() { return SetUp(config.seed); }, report);
  moqo::OptimizerService* service = setup->service.get();
  const size_t num_queries = setup->queries.size();

  // One round runs every query twice — once completed, once abandoned —
  // so both paths see the same queries; users pull sessions in order.
  std::vector<Session> sessions;
  std::atomic<uint64_t> query_seq{0};
  const moqo::ServiceStats stats_before = service->stats();
  const ProcessUsage before = ProcessUsage::Now();
  const Clock::time_point run_start = Clock::now();
  for (int round = 0; round == 0 || MsSince(run_start) < config.seconds * 1e3;
       ++round) {
    std::vector<Session> batch(2 * num_queries);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].query = i / 2;
      batch[i].abandon = i % 2 == 1;
    }
    std::atomic<size_t> next_session{0};
    std::vector<std::thread> users;
    for (int u = 0; u < kUsers; ++u) {
      users.emplace_back([&]() {
        for (size_t i = next_session++; i < batch.size(); i = next_session++) {
          RunSession(service, setup->queries[batch[i].query], ++query_seq,
                     &batch[i]);
        }
      });
    }
    for (std::thread& user : users) user.join();
    for (Session& s : batch) sessions.push_back(std::move(s));
  }
  const double elapsed_s = MsSince(run_start) / 1e3;
  ReportProcess(before, report);
  const moqo::ServiceStats stats = service->stats().Since(stats_before);

  std::vector<double> ttff, final_ms, intervals, rebound, cancel;
  double completed = 0.0, plans_generated = 0.0;
  for (const Session& s : sessions) {
    ++report->attempted;
    if (!s.violations.empty()) ++report->failed;
    if (s.ttff_ms >= 0.0) ttff.push_back(s.ttff_ms);
    plans_generated += static_cast<double>(s.plans_generated);
    if (s.final_ms >= 0.0) {
      final_ms.push_back(s.final_ms);
      completed += 1.0;
    }
    if (s.rebound_ms >= 0.0) rebound.push_back(s.rebound_ms);
    if (s.cancel_ms >= 0.0) cancel.push_back(s.cancel_ms);
    if (!s.intervals_ms.empty()) intervals.push_back(Mean(s.intervals_ms));
  }
  report->Set("qps", completed / elapsed_s);
  report->Set("ttff_p50_ms", Median(ttff));
  report->Set("final_p50_ms", Median(final_ms));
  report->Set("invocation_p50_ms", Median(intervals));
  if (config.trace) {
    report->Set("service.rebound_p50_ms", Median(rebound));
    report->Set("service.cancel_p50_ms", Median(cancel));
    report->Set("service.steps", static_cast<double>(stats.steps_executed));
    report->Set("service.work_steals", static_cast<double>(stats.work_steals));
    report->Set("service.snapshot_drops",
                static_cast<double>(stats.snapshot_drops));
    report->Set("service.plans_generated", plans_generated);
  }

  // Checks, outside the timed region: every violation a session saw
  // (bounds respected after each drag, terminal states), coverage of a
  // completed session's final frontier (Theorem 2 at alpha_T), and every
  // later completed session of the same query bit-identical to the first,
  // since the user reacts at the same step every time.
  const moqo::ResolutionSchedule schedule = SweepSchedule();
  std::vector<std::optional<Signature>> first(num_queries);
  for (const Session& s : sessions) {
    for (const std::string& v : s.violations) {
      report->Expect("interactive-drag session", v);
    }
    if (s.final_ms < 0.0) continue;
    const std::string name = "interactive-drag " + setup->queries[s.query].name;
    const Signature signature = FrontierSignature(s.final_plans);
    if (first[s.query].has_value()) {
      report->Expect(name + " repeat session",
                     CheckIdentical(signature, *first[s.query]));
      continue;
    }
    first[s.query] = signature;
    const moqo::PlanFactory factory(
        setup->queries[s.query], setup->catalog,
        moqo::MetricSchema::Standard3(), moqo::CostModelParams{},
        ServiceOperatorOptions());
    report->Expect(
        name + " coverage",
        CheckCovers(CostsOf(s.final_plans), ExactFrontier(factory),
                    std::pow(schedule.alpha_target(), factory.NumTables())));
  }
}

}  // namespace perfbench
