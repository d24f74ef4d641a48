#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "query/tpch_queries.h"

namespace perfbench {

using moqo::Catalog;
using moqo::Query;
using moqo::Rng;

namespace {

constexpr double kJitter = 0.05;

double JitterFactor(Rng& rng) {
  return std::exp(rng.UniformDouble(-kJitter, kJitter));
}

}  // namespace

moqo::ResolutionSchedule SweepSchedule() {
  return moqo::ResolutionSchedule(6, 1.05, 0.3);
}

moqo::OperatorOptions SweepOperatorOptions() {
  moqo::OperatorOptions options;
  options.max_workers = 8;
  options.max_sampling_rates_per_table = 2;
  return options;
}

moqo::OperatorOptions ServiceOperatorOptions() {
  moqo::OperatorOptions options;
  options.max_workers = 4;
  options.max_sampling_rates_per_table = 1;
  return options;
}

Query JitteredRandomQuery(uint64_t shape_seed, moqo::Topology topology,
                          int tables, Rng& rng, Catalog* catalog) {
  Catalog shape_catalog;
  Rng shape_rng(shape_seed);
  moqo::GeneratorOptions gen;
  gen.num_tables = tables;
  gen.topology = topology;
  Query query = moqo::RandomQuery(shape_rng, gen, &shape_catalog);
  for (moqo::TableRef& ref : query.tables) {
    moqo::TableDef def = shape_catalog.Get(ref.table);
    def.cardinality =
        std::max(1.0, std::floor(def.cardinality * JitterFactor(rng)));
    ref.table = catalog->AddTable(def);
    if (ref.predicate_selectivity < 1.0) {
      ref.predicate_selectivity =
          std::min(1.0, ref.predicate_selectivity * JitterFactor(rng));
    }
  }
  for (moqo::JoinPredicate& join : query.joins) {
    join.selectivity = std::min(1.0, join.selectivity * JitterFactor(rng));
  }
  return query;
}

std::vector<Query> OverlappingQueries(Catalog* catalog, Rng& rng, int count) {
  constexpr uint64_t kShapeSeed = 0x0E7A9000;
  constexpr int kCoreTables = 7;
  constexpr int kPrivateTables = 3;
  std::vector<moqo::TableId> core_ids;
  std::vector<double> core_selectivities;
  for (int i = 0; i < kCoreTables; ++i) {
    moqo::TableDef def;
    def.name = "core" + std::to_string(i);
    def.cardinality = 1000.0 * (1 << (i % 5)) + 500.0 * i;
    core_ids.push_back(catalog->AddTable(def));
    core_selectivities.push_back(i % 2 == 0 ? 0.5 : 1.0);
  }
  std::vector<Query> queries;
  for (int q = 0; q < count; ++q) {
    moqo::QueryBuilder b("overlap10_" + std::to_string(q));
    std::vector<int> refs;
    for (int i = 0; i < kCoreTables; ++i) {
      refs.push_back(b.AddTable(core_ids[static_cast<size_t>(i)],
                                core_selectivities[static_cast<size_t>(i)]));
    }
    for (int i = 0; i + 1 < kCoreTables; ++i) {
      b.AddJoin(refs[static_cast<size_t>(i)], refs[static_cast<size_t>(i + 1)],
                1.0 / catalog->Get(core_ids[static_cast<size_t>(i + 1)])
                          .cardinality);
    }
    int attach = refs[static_cast<size_t>(q % kCoreTables)];
    Rng shape(kShapeSeed + static_cast<uint64_t>(q));
    for (int i = 0; i < kPrivateTables; ++i) {
      moqo::TableDef def;
      def.name = "priv" + std::to_string(q) + "_" + std::to_string(i);
      def.cardinality = shape.UniformDouble(1000.0, 100000.0) * JitterFactor(rng);
      const double selectivity =
          std::min(1.0, shape.UniformDouble(0.1, 1.0) * JitterFactor(rng));
      const int ref = b.AddTable(catalog->AddTable(def), selectivity);
      b.AddJoin(attach, ref, 1.0 / def.cardinality);
      attach = ref;
    }
    queries.push_back(b.Build());
  }
  return queries;
}

std::vector<Query> TpchBlocksBetween(const Catalog& catalog, int min_tables,
                                     int max_tables) {
  std::vector<Query> blocks;
  for (const Query& q : moqo::TpchQueryBlocks(catalog)) {
    if (q.NumTables() >= min_tables && q.NumTables() <= max_tables) {
      blocks.push_back(q);
    }
  }
  return blocks;
}

}  // namespace perfbench
