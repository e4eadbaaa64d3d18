// Shared plumbing of the benchmark driver: the metric sheet every workload
// fills, wall-clock helpers, the in-memory span recorder of the traced run,
// and the mapping from the library's ShareStats counters to per-layer
// metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "dsm/stats.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A run is cut into slices of equal length.  A traced run alternates
/// untraced and traced slices (U, T, U, T, ...), so drift does not skew
/// the ratio of their rates (the tracing overhead).  Per-layer metrics
/// come from the T slices only.
inline bool traced_slice(bool trace, std::uint32_t slice) {
  return trace && slice % 2 == 1;
}

/// Command-line settings shared by every workload.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced run: where the spans are written
};

/// One reported metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): its metrics (end-to-end when
/// untraced, per-layer when traced), the op accounting, and the human
/// readable lines printed before the result.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = false;
  std::vector<std::string> notes;  ///< extra "name value unit" lines

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit);
  /// A "name v1 v2 ..." line, e.g. a figure's value in every slice.
  void note_series(std::string name, const std::vector<double>& values);
};

/// q-quantile (0..1) by nearest rank of an unsorted sample; 0 when empty.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The run's figure from its per-slice figures: the slice at the fast
/// decile (the 90th percentile of rates, the 10th of times; with 12 to 16
/// slices, the second-best slice).  On a shared host, CPU steal comes and
/// goes over seconds to minutes and only ever slows a slice down, often
/// threefold; the fast decile is a slice outside it whenever a run saw at
/// least two calm slices.  A change that slows every slice moves it just
/// as it moves the median.
inline double fast_decile_rate(std::vector<double> per_slice) {
  return quantile(std::move(per_slice), 0.9);
}
inline double fast_decile_time(std::vector<double> per_slice) {
  return quantile(std::move(per_slice), 0.1);
}

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();
/// User + system CPU seconds this process has used so far.
double process_cpu_s();

// -- Traced run: spans recorded in memory, written at exit --

enum class SpanName : std::uint8_t {
  None,  ///< parent of a root span
  Op,
  Acquire,
  Critical,
  FirstWrite,
  Release,
  Setup,
  Solve,
};
const char* span_name(SpanName n);

struct Span {
  std::uint64_t id = 0;  ///< rank << 32 | op index, shared by an op's spans
  SpanName name = SpanName::None;
  SpanName parent = SpanName::None;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint8_t detail = 0;  ///< paper_sl: which app a solve span ran
};

/// One thread's spans in recording order: an op's spans are contiguous,
/// and each child is recorded before its parent.
using SpanLog = std::vector<Span>;

/// Mean self time (µs) per span name over every log: a span's duration
/// minus the part its child spans (same id, parent == its name) cover.
/// Indexed by SpanName.
std::vector<double> mean_self_us(const std::vector<const SpanLog*>& logs);

/// Write every span to `path`: one JSON header line (format, record size,
/// span and detail names, the time origin), then one packed little-endian
/// 24-byte record per span — u64 id, i64 start (ns after the origin),
/// u32 duration ns, u8 name, u8 parent, u8 detail, u8 zero.  Names and
/// details index the header's lists.  Returns false when the file cannot
/// be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs,
                 const std::vector<std::string>& detail_names);

/// Per-layer metrics derived from a ShareStats delta over the traced body,
/// each normalised by `per` (ops on kv_*, solves on paper_sl).
void add_layer_counters(Outcome& out, const hdsm::dsm::ShareStats& d,
                        double per);

/// Field-wise a - b (counters are monotonic, so a >= b).
hdsm::dsm::ShareStats stats_delta(const hdsm::dsm::ShareStats& a,
                                  const hdsm::dsm::ShareStats& b);
/// Field-wise a * k.
hdsm::dsm::ShareStats stats_scaled(const hdsm::dsm::ShareStats& a,
                                   std::uint64_t k);

// -- The workloads (kv.cpp, paper.cpp) --

/// kv_object (object_mode) or kv_page.
Outcome run_kv(const RunArgs& args, bool object_mode);
/// paper_sl: matmul, LU and SOR on the heterogeneous SL pair.
Outcome run_paper(const RunArgs& args);

}  // namespace bench
