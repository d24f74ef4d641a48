// dist-overlap: overlapping 10-table queries, one at a time, through an
// OptimizerService that routes every one to a forked 2-worker
// DistributedBackend. The tier holds one lease, so a sequential client
// makes every run a distributed one.
#include <memory>
#include <vector>

#include "bench.h"
#include "catalog/tpch.h"
#include "checks.h"
#include "corpus.h"
#include "dist/backend.h"
#include "service/optimizer_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using moqo::CellIndex;

constexpr int kWorkers = 2;
constexpr int kQueries = 12;
constexpr int kLevels = 3;
constexpr double kEventTimeoutMs = 60000.0;

struct DistSetup {
  moqo::Catalog catalog;
  std::vector<moqo::Query> queries;
  // Destroyed in reverse order: the service before the backend it uses.
  std::unique_ptr<moqo::dist::DistributedBackend> backend;
  std::unique_ptr<moqo::OptimizerService> service;
};

moqo::ServiceOptions DistServiceOptions(
    moqo::dist::DistributedBackend* backend) {
  moqo::ServiceOptions options;
  options.num_threads = 1;
  options.num_shards = 1;
  options.frontier_cache_capacity = 0;  // Rounds repeat their queries.
  options.coalesce_in_flight = false;
  options.operator_options = ServiceOperatorOptions();
  options.distributed_backend = backend;
  options.distributed_min_tables = 10;
  return options;
}

// The workers fork before the service starts its scheduler thread, so
// no thread of this process is running at fork time.
std::unique_ptr<DistSetup> SetUp(uint64_t seed) {
  auto setup = std::make_unique<DistSetup>();
  setup->catalog = moqo::MakeTpchCatalog();
  moqo::Rng rng(seed);
  setup->queries = OverlappingQueries(&setup->catalog, rng, kQueries);
  moqo::dist::BackendOptions dist_options;
  dist_options.num_workers = kWorkers;
  dist_options.forked = true;
  dist_options.worker.catalog = setup->catalog.Snapshot();
  dist_options.worker.operator_options = ServiceOperatorOptions();
  {
    ScopedSpan span("dist.fork", 0);
    setup->backend =
        std::make_unique<moqo::dist::DistributedBackend>(dist_options);
  }
  setup->service = std::make_unique<moqo::OptimizerService>(
      setup->catalog, DistServiceOptions(setup->backend.get()));
  return setup;
}

struct Run {
  size_t query = 0;
  double ttff_ms = -1.0;
  double final_ms = 0.0;
  std::vector<double> intervals_ms;
  uint64_t plans_generated = 0;
  std::string error;
  std::vector<CellIndex::Entry> plans;
};

void RunQuery(moqo::OptimizerService* service, const moqo::Query& query,
              uint64_t qid, Run* run) {
  ScopedSpan query_span("bench.query", qid);
  moqo::SubmitRequest request;
  request.query = query;
  request.iama.schedule = moqo::ResolutionSchedule::Moderate(kLevels);
  request.max_iterations = kLevels;  // Routing requires a step bound.
  request.subscribe = true;
  const Clock::time_point submitted = Clock::now();
  const moqo::StatusOr<moqo::SubmitResponse> response = [&]() {
    ScopedSpan span("service.submit", qid);
    return service->Submit(request);
  }();
  if (!response.ok()) {
    run->error = "submit: " + response.status().ToString();
    return;
  }
  moqo::SnapshotSubscription* sub = response.value().subscription.get();
  Clock::time_point last = submitted;
  for (;;) {
    std::optional<moqo::SnapshotEvent> event;
    {
      ScopedSpan span("service.next_snapshot", qid);
      event = sub->Next(kEventTimeoutMs);
    }
    if (!event.has_value() || event->is_final) break;
    const Clock::time_point now = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - last).count();
    if (run->ttff_ms < 0.0) {
      run->ttff_ms = ms;
    } else {
      run->intervals_ms.push_back(ms);
    }
    last = now;
  }
  moqo::QueryResult result;
  {
    ScopedSpan span("service.wait", qid);
    result = service->Wait(response.value().id);
  }
  run->final_ms = MsSince(submitted);
  if (result.state != moqo::QueryState::kDone) {
    run->error = "query did not end kDone";
    return;
  }
  run->plans_generated = result.plans_generated;
  run->plans = std::move(result.frontier.plans);
}

}  // namespace

void RunDistOverlap(const RunConfig& config, Report* report) {
  const std::unique_ptr<DistSetup> setup =
      RepeatSetUp([&]() { return SetUp(config.seed); }, report);
  moqo::OptimizerService* service = setup->service.get();
  moqo::dist::DistributedBackend* backend = setup->backend.get();

  std::vector<Run> runs;
  uint64_t query_seq = 0;
  const uint64_t started_before = backend->runs_started();
  const uint64_t rejected_before = backend->runs_rejected();
  const ProcessUsage children_before = ProcessUsage::Children();
  const ProcessUsage before = ProcessUsage::Now();
  const Clock::time_point run_start = Clock::now();
  for (int round = 0; round == 0 || MsSince(run_start) < config.seconds * 1e3;
       ++round) {
    for (size_t qi = 0; qi < setup->queries.size(); ++qi) {
      Run run;
      run.query = qi;
      RunQuery(service, setup->queries[qi], ++query_seq, &run);
      runs.push_back(std::move(run));
    }
  }
  const double elapsed_s = MsSince(run_start) / 1e3;
  ReportProcess(before, report);
  const uint64_t dist_started = backend->runs_started() - started_before;
  const uint64_t dist_rejected = backend->runs_rejected() - rejected_before;
  const size_t live_workers = backend->live_workers();

  // The workers do the partitioned enumeration in processes of their
  // own. Shutting the tier down reaps them, so their CPU time and faults
  // join the process.* figures and their peak memory is reported apart
  // (peak_rss_mb stays the benchmark process's own).
  setup->service.reset();
  setup->backend.reset();
  const ProcessUsage workers = ProcessUsage::Children();
  report->metrics["process.user_cpu_s"] += workers.user_s - children_before.user_s;
  report->metrics["process.sys_cpu_s"] += workers.sys_s - children_before.sys_s;
  report->metrics["process.minor_faults"] +=
      workers.minor_faults - children_before.minor_faults;

  std::vector<double> ttff, final_ms, intervals;
  double done = 0.0, plans_generated = 0.0;
  for (const Run& run : runs) {
    ++report->attempted;
    if (!run.error.empty()) {
      ++report->failed;
      continue;
    }
    done += 1.0;
    plans_generated += static_cast<double>(run.plans_generated);
    ttff.push_back(run.ttff_ms);
    final_ms.push_back(run.final_ms);
    if (!run.intervals_ms.empty()) intervals.push_back(Mean(run.intervals_ms));
  }
  report->Set("qps", done / elapsed_s);
  report->Set("ttff_p50_ms", Median(ttff));
  report->Set("final_p50_ms", Median(final_ms));
  report->Set("invocation_p50_ms", Median(intervals));

  // Checks, outside the timed region: every query ran distributed (no
  // silent local fallback), and every frontier is bit-identical to a
  // local single-threaded session of the same query.
  for (const Run& run : runs) report->Expect("dist-overlap query", run.error);
  report->Expect("dist-overlap runs_started",
                 dist_started == runs.size()
                     ? ""
                     : std::to_string(dist_started) + " distributed runs for " +
                           std::to_string(runs.size()) + " queries");
  std::vector<Signature> local(setup->queries.size());
  std::vector<double> local_ms;
  for (size_t qi = 0; qi < setup->queries.size(); ++qi) {
    const moqo::PlanFactory factory(
        setup->queries[qi], setup->catalog, moqo::MetricSchema::Standard3(),
        moqo::CostModelParams{}, ServiceOperatorOptions());
    moqo::IamaOptions options;
    options.schedule = moqo::ResolutionSchedule::Moderate(kLevels);
    const Clock::time_point start = Clock::now();
    moqo::IamaSession session(factory, options);
    moqo::FrontierSnapshot snapshot;
    for (int i = 0; i < kLevels; ++i) {
      snapshot = session.Step();
      session.ApplyAction(moqo::UserAction::Continue());
    }
    local_ms.push_back(MsSince(start));
    local[qi] = FrontierSignature(snapshot.plans);
  }
  for (const Run& run : runs) {
    if (!run.error.empty()) continue;
    report->Expect("dist-overlap " + setup->queries[run.query].name +
                       " vs local session",
                   CheckIdentical(FrontierSignature(run.plans), local[run.query]));
  }
  if (config.trace) {
    report->Set("service.plans_generated", plans_generated);
    report->Set("dist.runs_started", static_cast<double>(dist_started));
    report->Set("dist.runs_rejected", static_cast<double>(dist_rejected));
    report->Set("dist.live_workers", static_cast<double>(live_workers));
    report->Set("dist.worker_cpu_s", workers.user_s + workers.sys_s -
                                         children_before.user_s -
                                         children_before.sys_s);
    // Largest of the workers (RUSAGE_CHILDREN keeps the maximum); the
    // idle workers of the earlier set-ups are smaller.
    report->Set("dist.worker_peak_rss_mb", workers.peak_rss_mb);
    report->Set("dist.slowdown", Median(final_ms) / Median(local_ms));
  }
}

}  // namespace perfbench
