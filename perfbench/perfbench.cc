// perfbench: runs one benchmark workload and prints its result as one
// JSON line (the last line of stdout).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The metrics are every value the run measured, by name, without units:
// perfbench/run.py takes names, units and the end-to-end/per-layer split
// from BENCHMARK.json. With --trace 1 the run also records spans of every
// call into a layer, writes them to .bench_trace/<workload>-<seed>.jsonl
// and derives the span-based per-layer metrics from them.
// Exit status: 0 when the run finished (the JSON says whether its checks
// passed), 2 on bad arguments.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

const char* const kSelfTimeLayers[] = {"core", "index", "service", "net",
                                       "bench"};

// Per-layer timings read off the spans: the median duration of every span
// of that name, scaled from ms to the metric's unit.
struct SpanMetric {
  const char* metric;
  const char* span;
  double scale;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"core.construct_ms", "core.construct", 1.0},
    {"core.optimize_ms", "core.optimize", 1.0},
    {"index.result_plans_ms", "index.result_plans", 1.0},
    {"service.submit_ms", "service.submit", 1.0},
    {"service.apply_bounds_ms", "service.apply_bounds", 1.0},
    {"service.cancel_call_ms", "service.cancel", 1.0},
    {"net.connect_ms", "net.connect", 1.0},
    {"net.submit_rtt_ms", "net.submit", 1.0},
    {"net.result_codec_us", "net.codec", 1e3},
    {"dist.fork_ms", "dist.fork", 1.0},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload anytime-sweep|interactive-drag|"
               "wire-overlap|dist-overlap --seed N --seconds S --trace 0|1\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

namespace {

ProcessUsage Usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  ProcessUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

}  // namespace

ProcessUsage ProcessUsage::Now() { return Usage(RUSAGE_SELF); }
ProcessUsage ProcessUsage::Children() { return Usage(RUSAGE_CHILDREN); }

void ReportProcess(const ProcessUsage& before, Report* report) {
  const ProcessUsage now = ProcessUsage::Now();
  report->Set("peak_rss_mb", now.peak_rss_mb);
  report->Set("process.user_cpu_s", now.user_s - before.user_s);
  report->Set("process.sys_cpu_s", now.sys_s - before.sys_s);
  report->Set("process.minor_faults", now.minor_faults - before.minor_faults);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0.0)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_workload) return Usage();

  void (*run)(const RunConfig&, Report*) = nullptr;
  if (config.workload == "anytime-sweep") run = RunAnytimeSweep;
  if (config.workload == "interactive-drag") run = RunInteractiveDrag;
  if (config.workload == "wire-overlap") run = RunWireOverlap;
  if (config.workload == "dist-overlap") run = RunDistOverlap;
  if (run == nullptr) return Usage();

  if (config.trace) Tracer::Enable();
  Report report;
  run(config, &report);

  if (config.trace) {
    const std::vector<SpanRecord> spans = Tracer::Collect();
    for (const char* layer : kSelfTimeLayers) {
      report.Set(std::string(layer) + ".self_s",
                 LayerSelfSeconds(spans, layer));
    }
    for (const SpanMetric& m : kSpanMetrics) {
      report.Set(m.metric, MedianSpanMs(spans, m.span) * m.scale);
    }
    report.Set("trace.spans", static_cast<double>(spans.size()));
    // The traced run's throughput; against an untraced run of the same
    // seed it gives the tracing overhead.
    report.Set("trace.qps", report.metrics["qps"]);
    std::error_code ec;
    std::filesystem::create_directories(".bench_trace", ec);
    const std::string path = ".bench_trace/" + config.workload + "-" +
                             std::to_string(config.seed) + ".jsonl";
    if (ec || !Tracer::Write(spans, path)) {
      report.Expect("trace", "cannot write " + path);
    } else {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   spans.size(), path.c_str());
    }
  }
  for (const std::string& v : report.violations) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", v.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.violations.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    json += first ? "" : ", ";
    json += JsonString(name) + ": " + buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
