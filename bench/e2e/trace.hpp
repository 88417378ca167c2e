// Span recorder of the traced run (`--trace 1`).
//
// A span marks one call into a layer of spmvopt, recorded by the benchmark
// around that call: name, start, end, the enclosing span and the request or
// solve it belongs to.  Each thread appends to its own buffer, allocated at
// its full capacity before the thread's timed work starts, so recording
// takes no lock and never reallocates; spans beyond the capacity are counted
// as dropped.  The records are written once at exit as Chrome trace-event
// JSON and reduced to the per-layer metrics (durations by name, self time
// from child coverage).  With recording off a Span costs one relaxed load.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spmvopt::e2e::trace {

struct Record {
  const char* name = "";     ///< static string
  std::int64_t start_ns = 0; ///< steady clock
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      ///< unique, > 0
  std::uint32_t parent = 0;  ///< enclosing span on the same thread, 0 = root
  std::uint64_t request = 0; ///< request/solve id, inherited from the parent
  int tid = 0;               ///< buffer (thread) index
};

/// Turn recording on with `capacity` spans per thread.  Call before any
/// thread that records is started.
void enable(std::size_t capacity);
[[nodiscard]] bool enabled() noexcept;

/// Allocate the calling thread's buffer now, outside its timed loop.
void prepare_thread();

class Span {
 public:
  /// `request` 0 inherits the enclosing span's request id.
  explicit Span(const char* name, std::uint64_t request = 0) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  ///< null when recording is off
  std::int64_t start_ns_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::uint64_t request_ = 0;
};

/// Every recorded span, ordered by start time.  Call after the recording
/// threads have finished.
[[nodiscard]] std::vector<Record> collect();
[[nodiscard]] std::uint64_t dropped() noexcept;

/// Durations in seconds of the spans called `name`.
[[nodiscard]] std::vector<double> durations(const std::vector<Record>& recs,
                                            std::string_view name);

/// One span called `parent` and the part of it its direct children called
/// `child` cover (the union of their intervals, clipped to the parent).
/// Self time is `total_s - covered_s`.
struct Coverage {
  double total_s = 0.0;
  double covered_s = 0.0;
  std::size_t children = 0;
};
[[nodiscard]] std::vector<Coverage> coverage(const std::vector<Record>& recs,
                                             std::string_view parent,
                                             std::string_view child);

/// Chrome trace-event JSON ("X" complete events, microseconds).  False when
/// the file cannot be written.
[[nodiscard]] bool write_chrome(const std::vector<Record>& recs,
                                const std::string& path);

}  // namespace spmvopt::e2e::trace
