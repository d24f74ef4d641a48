// Correctness checks of the benchmark. Each one compares an optimizer
// output against an independent computation (the exact Pareto DP) or
// against a property the method promises (bounds respected, identical
// frontiers across execution paths); none compares against a stored
// copy of earlier output. Each returns "" on success and a one-line
// description of the first violation otherwise.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "cost/cost_vector.h"
#include "index/cell_index.h"
#include "plan/cost_model.h"

namespace perfbench {

// Sorted rows of (costs..., order tag, resolution tag): two frontiers
// with equal signatures are bit-identical up to plan ids.
using Signature = std::vector<std::vector<double>>;
Signature FrontierSignature(const std::vector<moqo::CellIndex::Entry>& plans);

std::vector<moqo::CostVector> CostsOf(
    const std::vector<moqo::CellIndex::Entry>& plans);

// The unbounded exact Pareto frontier of the whole query (RunExactPareto).
std::vector<moqo::CostVector> ExactFrontier(const moqo::PlanFactory& factory);

// Theorem 2: `result` alpha-covers every vector of `exact`.
std::string CheckCovers(const std::vector<moqo::CostVector>& result,
                        const std::vector<moqo::CostVector>& exact,
                        double alpha);

// Every plan's cost lies within `bounds` in every dimension.
std::string CheckWithinBounds(const std::vector<moqo::CellIndex::Entry>& plans,
                              const moqo::CostVector& bounds);

// The two frontiers are bit-identical.
std::string CheckIdentical(const Signature& got, const Signature& want);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
