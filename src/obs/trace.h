// Request-scoped tracing: per-phase wall time recorded into histograms,
// plus a real per-request span tree.
//
//   Result<...> EtiMatcher::FindMatches(...) {
//     FM_TRACE_SPAN("match.signature");   // until end of scope
//     ...
//   }
//
// Every FM_TRACE_SPAN("x") call site records its elapsed seconds into
// the registry histogram `span.x_seconds` (the histogram pointer is
// resolved once per call site via a function-local static). When a
// RequestTrace is active on the current thread, the span additionally
// becomes a node of that request's span tree: name, start offset,
// duration, and parent span, bounded in depth and width so a
// pathological request cannot balloon its own trace.
//
// A RequestTrace is installed at a request boundary — the MatchServer
// worker, BatchCleaner::Clean, or EtiMatcher::FindMatches when nothing
// upstream started one — carries the process-unique request id, and on
// destruction hands the finished TraceRecord to a FlightRecorder (see
// obs/flight_recorder.h), which retains recent and outlier traces for
// the `tracez` endpoint and the slow-query log.
//
// Overhead: two steady_clock reads plus one histogram observation per
// span; tree recording is one thread-local pointer test when no trace is
// active, and one vector append when one is. SetTracingEnabled(false)
// stops boundaries from creating traces (spans still feed histograms);
// bench_query_time measures the on/off delta (DESIGN.md 5g).

#ifndef FUZZYMATCH_OBS_TRACE_H_
#define FUZZYMATCH_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace fuzzymatch {
namespace obs {

class FlightRecorder;

/// Allocates the next process-unique request id (1-based, monotonic).
uint64_t NextRequestId();

/// Whether request boundaries install RequestTraces (default true).
/// Spans always record into their histograms regardless.
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

/// One node of a request's span tree. Offsets are nanoseconds from the
/// trace start; `parent` indexes an earlier span, -1 = child of the
/// request root.
struct TraceSpan {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  int32_t parent = -1;
};

/// A named per-request tally (accel hits, pages read, candidates...),
/// aggregated at the trace root.
struct TraceCount {
  const char* key = nullptr;
  uint64_t value = 0;
};

/// The finished, self-contained form of one request's trace — what the
/// flight recorder retains and `tracez` serves.
struct TraceRecord {
  uint64_t request_id = 0;
  std::string op;                 // boundary label: "match", "clean", ...
  int64_t start_unix_ns = 0;      // wall-clock start, for display
  uint64_t duration_ns = 0;
  bool error = false;
  std::string status;             // non-OK status string when error
  uint32_t dropped_spans = 0;     // spans lost to the depth/width bounds
  std::vector<TraceSpan> spans;   // start-ordered; parents precede children
  std::vector<TraceCount> counts;

  double duration_seconds() const {
    return static_cast<double>(duration_ns) * 1e-9;
  }
};

/// Collects one request's span tree; installs itself as the current
/// thread's trace on construction and offers the finished record to
/// `recorder` (when non-null) on destruction. Nestable: the previous
/// trace is restored, and inner traces record independently.
class RequestTrace {
 public:
  struct Limits {
    uint32_t max_spans = 192;  // width bound: further spans are dropped
    uint32_t max_depth = 12;   // depth bound: deeper spans are dropped
  };

  RequestTrace(std::string op, uint64_t request_id,
               FlightRecorder* recorder);  // default Limits
  RequestTrace(std::string op, uint64_t request_id,
               FlightRecorder* recorder, Limits limits);
  ~RequestTrace();

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  /// The active trace on this thread, or nullptr.
  static RequestTrace* Current();

  /// Opens a span starting at `start`; returns its index, or -1 when the
  /// span was dropped by the depth/width bounds. Balanced by CloseSpan.
  int32_t OpenSpan(const char* name,
                   std::chrono::steady_clock::time_point start);
  void CloseSpan(int32_t index, uint64_t duration_ns);

  /// Adds `delta` to the root-level tally named `key` (pointer-stable
  /// string literals expected; names are aggregated).
  void AddCount(const char* key, uint64_t delta);

  /// Records the request's final status; non-OK marks the trace as an
  /// error outlier for the recorder.
  void SetStatus(const Status& status);

  uint64_t request_id() const { return record_.request_id; }
  const TraceRecord& record() const { return record_; }

  /// One-line per-span-name aggregation ("probe=3ms/12 verify=1ms/4"),
  /// the per-query breakdown dumped at debug level.
  std::string Summary() const;

 private:
  TraceRecord record_;
  Limits limits_;
  FlightRecorder* recorder_;         // may be null (collect only)
  std::chrono::steady_clock::time_point start_;
  std::vector<int32_t> open_stack_;  // indexes of open spans, root first
  RequestTrace* previous_ = nullptr;
};

/// Installs a RequestTrace with a fresh request id only when tracing is
/// enabled and no trace is already active on this thread — the
/// one-liner for request boundaries that may also run nested (e.g.
/// BatchCleaner::Clean under the server worker's trace).
class MaybeRequestTrace {
 public:
  /// `op` must outlive the trace (string literal). A null `recorder`
  /// means FlightRecorder::Global().
  explicit MaybeRequestTrace(const char* op,
                             FlightRecorder* recorder = nullptr);

  MaybeRequestTrace(const MaybeRequestTrace&) = delete;
  MaybeRequestTrace& operator=(const MaybeRequestTrace&) = delete;

  /// The trace this boundary installed (null when one was already
  /// active upstream or tracing is disabled).
  RequestTrace* installed() { return trace_ ? &*trace_ : nullptr; }

  /// Forwards a final status to whichever trace is active — the one this
  /// boundary installed or the upstream one.
  void SetStatus(const Status& status);

 private:
  std::optional<RequestTrace> trace_;
};

/// RAII span: measures its own lifetime, records it into `hist`, and
/// appends itself to the current RequestTrace's span tree. Use via
/// FM_TRACE_SPAN.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {
    if (RequestTrace* trace = RequestTrace::Current()) {
      trace_ = trace;
      index_ = trace->OpenSpan(name, start_);
    }
  }

  ~ScopedSpan() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->Observe(std::chrono::duration<double>(elapsed).count());
    if (trace_ != nullptr) {
      trace_->CloseSpan(
          index_,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Histogram* hist_;
  RequestTrace* trace_ = nullptr;
  int32_t index_ = -1;
  std::chrono::steady_clock::time_point start_;
};

/// The registry histogram a span named `name` records into
/// (`span.<name>_seconds`, latency bucket layout).
Histogram* SpanHistogram(const char* name);

/// Adds `delta` to the current trace's root tally `key`; no-op without
/// an active trace. For hot paths: one thread-local load when idle.
inline void AddTraceCount(const char* key, uint64_t delta) {
  if (RequestTrace* trace = RequestTrace::Current()) {
    trace->AddCount(key, delta);
  }
}

}  // namespace obs
}  // namespace fuzzymatch

#define FM_TRACE_SPAN(name) FM_TRACE_SPAN_COUNTER_(name, __COUNTER__)
#define FM_TRACE_SPAN_COUNTER_(name, ctr) FM_TRACE_SPAN_IMPL_(name, ctr)
#define FM_TRACE_SPAN_IMPL_(name, ctr)                                 \
  static ::fuzzymatch::obs::Histogram* fm_span_hist_##ctr =            \
      ::fuzzymatch::obs::SpanHistogram(name);                          \
  const ::fuzzymatch::obs::ScopedSpan fm_span_##ctr((name),            \
                                                    fm_span_hist_##ctr)

#endif  // FUZZYMATCH_OBS_TRACE_H_
