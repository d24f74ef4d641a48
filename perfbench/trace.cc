#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
Clock::time_point g_origin;

// Every thread appends to its own buffer; the registry owns the buffers
// so they outlive the threads that filled them.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;

std::vector<SpanRecord>* ThreadBuffer() {
  thread_local std::vector<SpanRecord>* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    buffer = g_buffers.back().get();
  }
  return buffer;
}

thread_local uint64_t t_open_span = 0;

double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_origin)
      .count();
}

}  // namespace

void Tracer::Enable() {
  g_origin = Clock::now();
  g_enabled.store(true);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::Collect() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us < b.start_us;
            });
  return all;
}

bool Tracer::Write(const std::vector<SpanRecord>& spans,
                   const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"query\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query), s.name, s.start_us,
                 s.end_us);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint64_t query) {
  if (!Tracer::enabled()) return;
  active_ = true;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_open_span;
  record_.query = query;
  record_.name = name;
  saved_parent_ = t_open_span;
  t_open_span = record_.id;
  record_.start_us = NowUs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.end_us = NowUs();
  t_open_span = saved_parent_;
  ThreadBuffer()->push_back(record_);
}

double MedianSpanMs(const std::vector<SpanRecord>& spans, const char* name) {
  std::vector<double> ms;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == name) ms.push_back((s.end_us - s.start_us) / 1e3);
  }
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const size_t n = ms.size();
  return n % 2 == 1 ? ms[n / 2] : 0.5 * (ms[n / 2 - 1] + ms[n / 2]);
}

double LayerSelfSeconds(const std::vector<SpanRecord>& spans,
                        const std::string& layer) {
  std::unordered_map<uint64_t, double> child_us;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  const std::string prefix = layer + ".";
  double self_us = 0.0;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name).compare(0, prefix.size(), prefix) != 0) continue;
    const auto it = child_us.find(s.id);
    const double children = it == child_us.end() ? 0.0 : it->second;
    self_us += std::max(0.0, (s.end_us - s.start_us) - children);
  }
  return self_us / 1e6;
}

}  // namespace perfbench
