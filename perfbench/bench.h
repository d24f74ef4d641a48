// Shared declarations of the repository benchmark (perfbench): the run
// configuration, the per-run report, and the four workload entry points.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Everything one run measured. Metric names are those of BENCHMARK.json;
// a metric a workload never measures is left out (run.py reports it as 0).
struct Report {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // One line per violated correctness check; empty = all checks passed.
  std::vector<std::string> violations;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  // Records `violation` (a check's result) when it is non-empty.
  void Expect(const std::string& what, const std::string& violation) {
    if (!violation.empty()) violations.push_back(what + ": " + violation);
  }
};

// getrusage() in the units the report uses.
struct ProcessUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double peak_rss_mb = 0.0;

  // The benchmark process (RUSAGE_SELF).
  static ProcessUsage Now();
  // Its terminated and reaped children (RUSAGE_CHILDREN): times and
  // faults summed, peak_rss_mb of the largest child.
  static ProcessUsage Children();
};

// Records the process.* metrics for the interval since `before`, and the
// process's peak resident memory so far as peak_rss_mb.
void ReportProcess(const ProcessUsage& before, Report* report);

// Each workload sets itself up kSetupSamples x kSetupBatch times,
// reporting the median per-set-up time of a sample as setup_s, runs
// whole rounds until `seconds` have passed, then runs its correctness
// checks outside the timed region. A set-up takes well under a
// millisecond on most workloads, so one sample times a batch of them.
constexpr int kSetupSamples = 15;
constexpr int kSetupBatch = 8;

// Calls `set_up()` kSetupSamples x kSetupBatch times, destroying each
// result (untimed) before the next call, reports the median over samples
// of a batch's summed set-up time divided by kSetupBatch as setup_s, and
// returns the last result (null as soon as one call returns null).
template <typename SetUpFn>
auto RepeatSetUp(SetUpFn set_up, Report* report) -> decltype(set_up()) {
  std::vector<double> seconds;
  decltype(set_up()) setup;
  for (int i = 0; i < kSetupSamples; ++i) {
    double batch_ms = 0.0;
    for (int j = 0; j < kSetupBatch; ++j) {
      setup.reset();
      const Clock::time_point start = Clock::now();
      setup = set_up();
      batch_ms += MsSince(start);
      if (setup == nullptr) return setup;
    }
    seconds.push_back(batch_ms / kSetupBatch / 1e3);
  }
  report->Set("setup_s", Median(seconds));
  return setup;
}

void RunAnytimeSweep(const RunConfig& config, Report* report);
void RunInteractiveDrag(const RunConfig& config, Report* report);
void RunWireOverlap(const RunConfig& config, Report* report);
void RunDistOverlap(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
