// anytime-sweep: the paper's evaluation scenario. One query at a time runs
// the full no-interaction series r = 0..rM on an in-process
// IncrementalOptimizer whose phase 2 uses a 4-thread pool.
#include <cmath>
#include <memory>
#include <vector>

#include "bench.h"
#include "catalog/tpch.h"
#include "checks.h"
#include "core/incremental_optimizer.h"
#include "corpus.h"
#include "query/tpch_queries.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using moqo::CellIndex;
using moqo::CostVector;

constexpr int kPoolThreads = 4;
constexpr int kRandomTables = 7;
constexpr int kShapesPerTopology = 6;

struct SweepSetup {
  moqo::Catalog catalog;
  std::vector<moqo::Query> queries;
  std::vector<std::unique_ptr<moqo::PlanFactory>> factories;
  std::unique_ptr<moqo::ThreadPool> pool;
};

// Random chain, cycle and star queries of fixed shapes plus the largest
// TPC-H blocks, in seeded order; the pool is spawned here so thread
// start-up stays out of the timed region.
std::unique_ptr<SweepSetup> SetUp(uint64_t seed) {
  auto setup = std::make_unique<SweepSetup>();
  setup->catalog = moqo::MakeTpchCatalog();
  moqo::Rng rng(seed);
  const moqo::Topology kTopologies[] = {
      moqo::Topology::kChain, moqo::Topology::kCycle, moqo::Topology::kStar};
  for (int k = 0; k < kShapesPerTopology; ++k) {
    for (const moqo::Topology topology : kTopologies) {
      const uint64_t shape = 0xA5EED00 + 16 * static_cast<uint64_t>(k) +
                             static_cast<uint64_t>(topology);
      setup->queries.push_back(JitteredRandomQuery(
          shape, topology, kRandomTables, rng, &setup->catalog));
    }
  }
  int largest = 0;
  for (int t : moqo::TpchBlockTableCounts(setup->catalog)) {
    largest = std::max(largest, t);
  }
  for (const moqo::Query& q :
       moqo::TpchBlocksWithTables(setup->catalog, largest)) {
    setup->queries.push_back(q);
  }
  Shuffle(&setup->queries, rng);
  for (const moqo::Query& q : setup->queries) {
    setup->factories.push_back(std::make_unique<moqo::PlanFactory>(
        q, setup->catalog, moqo::MetricSchema::Standard3(),
        moqo::CostModelParams{}, SweepOperatorOptions()));
  }
  setup->pool = std::make_unique<moqo::ThreadPool>(kPoolThreads);
  return setup;
}

}  // namespace

void RunAnytimeSweep(const RunConfig& config, Report* report) {
  const std::unique_ptr<SweepSetup> setup =
      RepeatSetUp([&]() { return SetUp(config.seed); }, report);

  const moqo::ResolutionSchedule schedule = SweepSchedule();
  const int levels = schedule.NumLevels();
  const CostVector inf = CostVector::Infinite(3);
  moqo::OptimizerOptions options;
  options.pool = setup->pool.get();
  const size_t num_queries = setup->queries.size();

  // First-round snapshots per query and resolution (coverage-checked
  // after the run) and every round's final frontier (checked against the
  // first round's: the series is deterministic).
  std::vector<std::vector<std::vector<CellIndex::Entry>>> first_round(
      num_queries);
  std::vector<std::vector<std::vector<CellIndex::Entry>>> finals(num_queries);
  std::vector<double> ttff_ms, final_ms, invocation_ms, optimize_first_ms,
      frontier_size;
  moqo::Counters totals;
  double optimize_total_ms = 0.0;
  double result_entries = 0.0, candidate_entries = 0.0;
  uint64_t stale_pairs = 0;
  uint64_t query_seq = 0;

  const ProcessUsage before = ProcessUsage::Now();
  const Clock::time_point run_start = Clock::now();
  for (int round = 0; round == 0 || MsSince(run_start) < config.seconds * 1e3;
       ++round) {
    for (size_t qi = 0; qi < num_queries; ++qi) {
      const uint64_t qid = ++query_seq;
      ScopedSpan query_span("bench.query", qid);
      const Clock::time_point submitted = Clock::now();
      std::unique_ptr<moqo::IncrementalOptimizer> optimizer;
      {
        ScopedSpan span("core.construct", qid);
        optimizer = std::make_unique<moqo::IncrementalOptimizer>(
            *setup->factories[qi], schedule, inf, options);
      }
      double carry_ms = MsSince(submitted);  // Scan seeding joins inv 1.
      std::vector<CellIndex::Entry> plans;
      for (int r = 0; r < levels; ++r) {
        const Clock::time_point step = Clock::now();
        {
          ScopedSpan span("core.optimize", qid);
          optimizer->Optimize(inf, r);
        }
        const double step_ms = MsSince(step);
        optimize_total_ms += step_ms;
        if (r == 0) optimize_first_ms.push_back(step_ms);
        invocation_ms.push_back(step_ms + carry_ms);
        carry_ms = 0.0;
        {
          ScopedSpan span("index.result_plans", qid);
          plans = optimizer->ResultPlans(inf, r);
        }
        if (r == 0) ttff_ms.push_back(MsSince(submitted));
        if (round == 0) first_round[qi].push_back(plans);
      }
      final_ms.push_back(MsSince(submitted));
      frontier_size.push_back(static_cast<double>(plans.size()));
      finals[qi].push_back(std::move(plans));
      const moqo::Counters& c = optimizer->counters();
      totals.plans_generated += c.plans_generated;
      totals.pairs_generated += c.pairs_generated;
      totals.prune_calls += c.prune_calls;
      totals.dominance_checks += c.dominance_checks;
      totals.candidate_retrievals += c.candidate_retrievals;
      totals.result_insertions += c.result_insertions;
      stale_pairs += c.pairs_rejected_stale;
      result_entries += static_cast<double>(optimizer->NumResultEntries());
      candidate_entries +=
          static_cast<double>(optimizer->NumCandidateEntries());
      ++report->attempted;
    }
  }
  const double elapsed_s = MsSince(run_start) / 1e3;
  ReportProcess(before, report);

  const double queries = static_cast<double>(report->attempted);
  report->Set("qps", queries / elapsed_s);
  report->Set("ttff_p50_ms", Median(ttff_ms));
  report->Set("final_p50_ms", Median(final_ms));
  report->Set("invocation_p50_ms", Median(invocation_ms));
  if (config.trace) {
    report->Set("core.optimize_first_ms", Median(optimize_first_ms));
    report->Set("core.plans_per_s", static_cast<double>(totals.plans_generated) /
                                        (optimize_total_ms / 1e3));
    report->Set("core.plans_generated",
                static_cast<double>(totals.plans_generated));
    report->Set("core.pairs_generated",
                static_cast<double>(totals.pairs_generated));
    report->Set("core.prune_calls", static_cast<double>(totals.prune_calls));
    report->Set("core.dominance_checks",
                static_cast<double>(totals.dominance_checks));
    report->Set("core.candidate_retrievals",
                static_cast<double>(totals.candidate_retrievals));
    report->Set("core.result_insertions",
                static_cast<double>(totals.result_insertions));
    report->Set("core.prune_yield",
                totals.prune_calls == 0
                    ? 0.0
                    : static_cast<double>(totals.result_insertions) /
                          static_cast<double>(totals.prune_calls));
    report->Set("core.result_entries", result_entries / queries);
    report->Set("core.candidate_entries", candidate_entries / queries);
    report->Set("index.frontier_size", Median(frontier_size));
    report->Set("plan.bytes_per_plan",
                report->metrics["peak_rss_mb"] * 1048576.0 * queries /
                    static_cast<double>(totals.plans_generated));
  }

  // Checks, outside the timed region. Theorem 2: the snapshot at
  // resolution r alpha_r^|Q|-covers the exact Pareto frontier. Lemma 6: no
  // sub-plan pair is offered twice in a no-interaction series.
  report->Expect("anytime-sweep stale pairs (Lemma 6)",
                 stale_pairs == 0 ? "" : std::to_string(stale_pairs) +
                                             " pairs rejected as stale");
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const moqo::PlanFactory& factory = *setup->factories[qi];
    const std::string name = "anytime-sweep " + setup->queries[qi].name;
    const std::vector<CostVector> exact = ExactFrontier(factory);
    for (int r = 0; r < levels; ++r) {
      const double alpha = std::pow(schedule.Alpha(r), factory.NumTables());
      report->Expect(name + " r=" + std::to_string(r) + " coverage",
                     CheckCovers(CostsOf(first_round[qi][static_cast<size_t>(r)]),
                                 exact, alpha));
    }
    const Signature want = FrontierSignature(finals[qi].front());
    for (const auto& plans : finals[qi]) {
      report->Expect(name + " repeat run",
                     CheckIdentical(FrontierSignature(plans), want));
    }
  }
}

}  // namespace perfbench
