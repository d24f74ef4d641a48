#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "baseline/exhaustive.h"
#include "pareto/coverage.h"

namespace perfbench {

using moqo::CellIndex;
using moqo::CostVector;

Signature FrontierSignature(const std::vector<CellIndex::Entry>& plans) {
  Signature sig;
  sig.reserve(plans.size());
  for (const CellIndex::Entry& e : plans) {
    std::vector<double> row;
    for (int i = 0; i < e.cost.dims(); ++i) row.push_back(e.cost[i]);
    row.push_back(static_cast<double>(e.order));
    row.push_back(static_cast<double>(e.resolution));
    sig.push_back(std::move(row));
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

std::vector<CostVector> CostsOf(const std::vector<CellIndex::Entry>& plans) {
  std::vector<CostVector> costs;
  costs.reserve(plans.size());
  for (const CellIndex::Entry& e : plans) costs.push_back(e.cost);
  return costs;
}

std::vector<CostVector> ExactFrontier(const moqo::PlanFactory& factory) {
  const int dims = factory.cost_model().schema().dims();
  const moqo::ExactParetoResult exact =
      moqo::RunExactPareto(factory, CostVector::Infinite(dims));
  std::vector<CostVector> costs;
  for (const auto& e : exact.FinalFrontier(factory.NumTables()).entries()) {
    costs.push_back(e.cost);
  }
  return costs;
}

std::string CheckCovers(const std::vector<CostVector>& result,
                        const std::vector<CostVector>& exact, double alpha) {
  if (exact.empty()) return "exact frontier is empty";
  const moqo::CoverageReport report = moqo::CheckCoverage(
      result, exact, alpha, CostVector::Infinite(exact.front().dims()));
  if (report.covered) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%d of %d exact plans not covered within alpha %.4f "
                "(worst factor %.4f)",
                report.violations, report.required, alpha,
                report.worst_factor);
  return buf;
}

std::string CheckWithinBounds(const std::vector<CellIndex::Entry>& plans,
                              const CostVector& bounds) {
  for (const CellIndex::Entry& e : plans) {
    for (int i = 0; i < bounds.dims(); ++i) {
      if (!(e.cost[i] <= bounds[i])) {
        return "plan cost " + e.cost.ToString() + " exceeds bounds " +
               bounds.ToString();
      }
    }
  }
  return "";
}

std::string CheckIdentical(const Signature& got, const Signature& want) {
  if (got.size() != want.size()) {
    return "frontier has " + std::to_string(got.size()) + " plans, expected " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    // Compare bit patterns, not values: -0.0 and 0.0 differ here.
    if (got[i].size() != want[i].size() ||
        std::memcmp(got[i].data(), want[i].data(),
                    got[i].size() * sizeof(double)) != 0) {
      return "frontier differs at sorted plan " + std::to_string(i);
    }
  }
  return "";
}

}  // namespace perfbench
