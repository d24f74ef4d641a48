// The benchmark's inputs: query corpora, schedules and operator spaces.
//
// Random queries have a fixed shape per corpus slot (a generator seed
// that never changes) and take their statistics from the run's --seed:
// every cardinality and selectivity is scaled by an independent factor
// in [e^-0.05, e^0.05]. The plan-space size of a generated query varies by
// more than 10x across generator seeds, so drawing shapes from --seed
// would make a run's total work, not the program, set the spread of the
// figures; jittering statistics keeps the inputs seeded while each run
// does comparable work.
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "core/resolution.h"
#include "plan/operators.h"
#include "query/generator.h"
#include "query/query.h"
#include "util/rng.h"

namespace perfbench {

// bench_parallel_scaling's default configuration: 6 levels, alpha_T 1.05.
moqo::ResolutionSchedule SweepSchedule();
moqo::OperatorOptions SweepOperatorOptions();
// bench_service_throughput's operator space, used by the service tiers.
moqo::OperatorOptions ServiceOperatorOptions();

// A query of the fixed shape `(shape_seed, topology, tables)` whose
// tables are appended to `catalog` with statistics jittered from `rng`.
moqo::Query JitteredRandomQuery(uint64_t shape_seed, moqo::Topology topology,
                                int tables, moqo::Rng& rng,
                                moqo::Catalog* catalog);

// `count` distinct 10-table queries sharing a 7-table chain core, with 3
// private tables chained off a rotating core root (the
// bench_service_throughput construction). Query q's private statistics
// have a fixed shape, jittered from `rng`. The core tables are appended
// to `catalog` once, then each query's private tables.
std::vector<moqo::Query> OverlappingQueries(moqo::Catalog* catalog,
                                            moqo::Rng& rng, int count);

// TPC-H query blocks with `min_tables`..`max_tables` tables.
std::vector<moqo::Query> TpchBlocksBetween(const moqo::Catalog& catalog,
                                           int min_tables, int max_tables);

// Fisher-Yates shuffle driven by the benchmark's seeded generator.
template <typename T>
void Shuffle(std::vector<T>* items, moqo::Rng& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.Uniform(i)]);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
