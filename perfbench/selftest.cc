// Negative controls for the benchmark's correctness checks: each check
// must pass on a good frontier and fire on a frontier with one plan
// removed, a bound exceeded, or one cost bit flipped.
//
//   perfbench_selftest   (exit status 0 = every control behaved)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checks.h"
#include "core/incremental_optimizer.h"
#include "query/generator.h"
#include "util/rng.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

}  // namespace

int main() {
  using namespace moqo;
  using namespace perfbench;

  Catalog catalog;
  Rng rng(7);
  GeneratorOptions gen;
  gen.num_tables = 5;
  gen.topology = Topology::kCycle;
  const Query query = RandomQuery(rng, gen, &catalog);
  const PlanFactory factory(query, catalog, MetricSchema::Standard3());
  const ResolutionSchedule schedule(4, 1.05, 0.3);
  const CostVector inf = CostVector::Infinite(3);
  IncrementalOptimizer optimizer(factory, schedule, inf);
  for (int r = 0; r <= schedule.MaxResolution(); ++r) optimizer.Optimize(inf, r);
  const std::vector<CellIndex::Entry> frontier =
      optimizer.ResultPlans(inf, schedule.MaxResolution());
  const std::vector<CostVector> exact = ExactFrontier(factory);
  const double alpha = std::pow(schedule.alpha_target(), factory.NumTables());
  Expect(exact.size() >= 2, "exact frontier has several plans");

  // Coverage.
  Expect(CheckCovers(CostsOf(frontier), exact, alpha).empty(),
         "coverage passes on the optimizer's frontier");
  Expect(CheckCovers(exact, exact, 1.0).empty(),
         "coverage passes on the exact frontier itself");
  for (size_t drop = 0; drop < exact.size(); ++drop) {
    std::vector<CostVector> missing = exact;
    missing.erase(missing.begin() + static_cast<long>(drop));
    if (CheckCovers(missing, exact, 1.0).empty()) {
      Expect(false, "coverage fires when one exact plan is removed");
      break;
    }
    if (drop + 1 == exact.size()) {
      Expect(true, "coverage fires when any one exact plan is removed");
    }
  }

  // Bounds.
  CostVector bounds = inf;
  std::vector<double> times;
  for (const CellIndex::Entry& e : frontier) times.push_back(e.cost[0]);
  std::sort(times.begin(), times.end());
  bounds[0] = times.back();
  Expect(CheckWithinBounds(frontier, bounds).empty(),
         "bounds pass when every plan is inside");
  bounds[0] = std::nextafter(times.back(), 0.0);
  Expect(!CheckWithinBounds(frontier, bounds).empty(),
         "bounds fire when one plan exceeds the bound");

  // Bit identity.
  const Signature sig = FrontierSignature(frontier);
  Expect(CheckIdentical(sig, sig).empty(), "identity passes on equal frontiers");
  std::vector<CellIndex::Entry> flipped = frontier;
  double cost = flipped[0].cost[1];
  uint64_t bits = 0;
  std::memcpy(&bits, &cost, sizeof(bits));
  bits ^= 1;  // Lowest mantissa bit.
  std::memcpy(&cost, &bits, sizeof(bits));
  flipped[0].cost[1] = cost;
  Expect(!CheckIdentical(FrontierSignature(flipped), sig).empty(),
         "identity fires on one flipped cost bit");
  std::vector<CellIndex::Entry> shorter(frontier.begin() + 1, frontier.end());
  Expect(!CheckIdentical(FrontierSignature(shorter), sig).empty(),
         "identity fires when one plan is removed");

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
