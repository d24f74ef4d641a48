// In-memory span recorder for traced benchmark runs.
//
// A span wraps one call the benchmark makes into a layer's public API.
// Its name is "<layer>.<call>"; spans opened while another span is open
// on the same thread become its children; spans of one query share the
// query id the caller passes. Nothing is recorded unless Tracer::Enable()
// ran, so untraced runs pay one branch per span. Spans stay in memory and
// are written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t query = 0;   // Shared by all spans of one query; 0 = none.
  const char* name = "";
  double start_us = 0.0;  // Since the tracer was enabled.
  double end_us = 0.0;
};

class Tracer {
 public:
  static void Enable();
  static bool enabled();
  // All spans recorded so far, in start order. Call after every thread
  // that recorded spans has been joined.
  static std::vector<SpanRecord> Collect();
  // Writes `spans` as JSON lines to `path`; returns false on I/O error.
  static bool Write(const std::vector<SpanRecord>& spans,
                    const std::string& path);
};

class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t query);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
  bool active_ = false;
};

// Per-name and per-layer summaries of a span list.
double MedianSpanMs(const std::vector<SpanRecord>& spans, const char* name);
// Self time of every span of `layer` ("core" for "core.*"): its duration
// minus the durations of its direct children, summed, in seconds.
double LayerSelfSeconds(const std::vector<SpanRecord>& spans,
                        const std::string& layer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
