#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace spmvopt::e2e::trace {

namespace {

struct Buffer {
  std::vector<Record> records;
  int tid = 0;
};

std::atomic<bool> g_enabled{false};
std::size_t g_capacity = 0;
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint64_t> g_dropped{0};
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  ///< guarded by g_mu

/// Enclosing spans of this thread; deeper nesting is recorded without a
/// parent link (the benchmark nests at most four deep).
constexpr int kMaxDepth = 16;
thread_local Buffer* t_buf = nullptr;
thread_local int t_depth = 0;
thread_local std::uint32_t t_ids[kMaxDepth];
thread_local std::uint64_t t_requests[kMaxDepth];

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Buffer& buffer() {
  if (t_buf == nullptr) {
    auto b = std::make_unique<Buffer>();
    b->records.reserve(g_capacity);
    std::lock_guard lock(g_mu);
    b->tid = static_cast<int>(g_buffers.size());
    t_buf = b.get();
    g_buffers.push_back(std::move(b));
  }
  return *t_buf;
}

}  // namespace

void enable(std::size_t capacity) {
  g_capacity = capacity;
  g_enabled.store(true, std::memory_order_release);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void prepare_thread() {
  if (enabled()) (void)buffer();
}

Span::Span(const char* name, std::uint64_t request) noexcept {
  if (!enabled()) return;
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (t_depth > 0 && t_depth <= kMaxDepth) {
    parent_ = t_ids[t_depth - 1];
    request_ = request != 0 ? request : t_requests[t_depth - 1];
  } else {
    request_ = request;
  }
  if (t_depth < kMaxDepth) {
    t_ids[t_depth] = id_;
    t_requests[t_depth] = request_;
  }
  ++t_depth;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const std::int64_t end = now_ns();
  --t_depth;
  Buffer* b = nullptr;
  try {
    b = &buffer();
  } catch (...) {  // allocation failed: the span is lost, not the run
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (b->records.size() == b->records.capacity()) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b->records.push_back(
      Record{name_, start_ns_, end, id_, parent_, request_, b->tid});
}

std::vector<Record> collect() {
  std::vector<Record> all;
  std::lock_guard lock(g_mu);
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->records.begin(), b->records.end());
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::uint64_t dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

std::vector<double> durations(const std::vector<Record>& recs,
                              std::string_view name) {
  std::vector<double> out;
  for (const Record& r : recs)
    if (name == r.name) out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
  return out;
}

std::vector<Coverage> coverage(const std::vector<Record>& recs,
                               std::string_view parent,
                               std::string_view child) {
  std::unordered_map<std::uint32_t, std::size_t> slot;  // parent id -> index
  std::vector<const Record*> parents;
  for (const Record& r : recs)
    if (parent == r.name) {
      slot.emplace(r.id, parents.size());
      parents.push_back(&r);
    }
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> spans(
      parents.size());
  for (const Record& r : recs) {
    if (child != r.name) continue;
    const auto it = slot.find(r.parent);
    if (it == slot.end()) continue;
    const Record& p = *parents[it->second];
    spans[it->second].emplace_back(std::max(r.start_ns, p.start_ns),
                                   std::min(r.end_ns, p.end_ns));
  }
  std::vector<Coverage> out(parents.size());
  for (std::size_t i = 0; i < parents.size(); ++i) {
    auto& iv = spans[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = parents[i]->start_ns;
    for (const auto& [s, e] : iv) {
      const std::int64_t from = std::max(s, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    out[i] = Coverage{
        static_cast<double>(parents[i]->end_ns - parents[i]->start_ns) * 1e-9,
        static_cast<double>(covered) * 1e-9, iv.size()};
  }
  return out;
}

bool write_chrome(const std::vector<Record>& recs, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = recs.empty() ? 0 : recs.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Record& r = recs[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":%llu}}\n",
                 i == 0 ? "" : ",", r.name, r.tid,
                 static_cast<double>(r.start_ns - t0) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, r.id,
                 r.parent, static_cast<unsigned long long>(r.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace spmvopt::e2e::trace
