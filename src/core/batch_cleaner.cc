#include "core/batch_cleaner.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fuzzymatch {

namespace {

/// The cleaner's registry slice, resolved once per process.
struct CleanerMetrics {
  obs::Counter* processed;
  obs::Counter* validated;
  obs::Counter* corrected;
  obs::Counter* routed;
  obs::Histogram* clean_seconds;  // end-to-end latency of one tuple
  obs::Histogram* batch_seconds;
  obs::Gauge* queries_per_second;  // of the most recent batch

  static const CleanerMetrics& Get() {
    static const CleanerMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* metrics = new CleanerMetrics();
      metrics->processed = reg.GetCounter("cleaner.processed");
      metrics->validated = reg.GetCounter("cleaner.validated");
      metrics->corrected = reg.GetCounter("cleaner.corrected");
      metrics->routed = reg.GetCounter("cleaner.routed");
      metrics->clean_seconds = reg.GetHistogram(
          "cleaner.clean_seconds", obs::LatencyHistogramOptions());
      metrics->batch_seconds = reg.GetHistogram(
          "cleaner.batch_seconds", obs::LatencyHistogramOptions());
      metrics->queries_per_second =
          reg.GetGauge("cleaner.queries_per_second");
      return metrics;
    }();
    return *m;
  }
};

}  // namespace

BatchCleaner::BatchCleaner(const FuzzyMatcher* matcher, Options options)
    : matcher_(matcher), options_(options) {
  FM_CHECK(matcher != nullptr);
}

Result<CleanResult> BatchCleaner::Clean(const Row& input) const {
  // Request boundary when called outside the server (CLI, benches);
  // under a server worker the worker's trace is already installed.
  obs::MaybeRequestTrace boundary("clean");
  Result<CleanResult> result = CleanImpl(input);
  if (!result.ok()) {
    boundary.SetStatus(result.status());
  }
  return result;
}

Result<CleanResult> BatchCleaner::CleanImpl(const Row& input) const {
  const CleanerMetrics& m = CleanerMetrics::Get();
  FM_TRACE_SPAN("cleaner.clean");
  Timer timer;
  FM_ASSIGN_OR_RETURN(const std::vector<Match> matches,
                      matcher_->FindMatches(input));
  CleanResult result;
  if (matches.empty() ||
      matches[0].similarity < options_.load_threshold) {
    result.outcome = CleanOutcome::kRouted;
    result.output = input;
    if (!matches.empty()) {
      result.best_match = matches[0];
    }
  } else {
    result.best_match = matches[0];
    FM_ASSIGN_OR_RETURN(result.output,
                        matcher_->GetReferenceTuple(matches[0].tid));
    result.outcome = matches[0].similarity >= 1.0
                         ? CleanOutcome::kValidated
                         : CleanOutcome::kCorrected;
  }
  m.clean_seconds->Observe(timer.ElapsedSeconds());
  m.processed->Increment();
  switch (result.outcome) {
    case CleanOutcome::kValidated:
      m.validated->Increment();
      break;
    case CleanOutcome::kCorrected:
      m.corrected->Increment();
      break;
    case CleanOutcome::kRouted:
      m.routed->Increment();
      break;
  }
  return result;
}

Result<CleanStats> BatchCleaner::CleanBatch(const std::vector<Row>& inputs,
                                            const Sink& sink) const {
  Timer timer;
  CleanStats stats;
  for (size_t i = 0; i < inputs.size(); ++i) {
    FM_ASSIGN_OR_RETURN(const CleanResult result, Clean(inputs[i]));
    ++stats.processed;
    switch (result.outcome) {
      case CleanOutcome::kValidated:
        ++stats.validated;
        break;
      case CleanOutcome::kCorrected:
        ++stats.corrected;
        break;
      case CleanOutcome::kRouted:
        ++stats.routed;
        break;
    }
    if (sink) {
      FM_RETURN_IF_ERROR(sink(i, result));
    }
  }
  stats.elapsed_seconds = timer.ElapsedSeconds();
  const CleanerMetrics& m = CleanerMetrics::Get();
  m.batch_seconds->Observe(stats.elapsed_seconds);
  if (stats.elapsed_seconds > 0.0) {
    m.queries_per_second->Set(static_cast<double>(stats.processed) /
                              stats.elapsed_seconds);
  }
  return stats;
}

Result<CleanStats> BatchCleaner::CleanBatchParallel(
    const std::vector<Row>& inputs, size_t threads, const Sink& sink) const {
  if (threads <= 1 || inputs.size() <= 1) {
    return CleanBatch(inputs, sink);
  }
  threads = std::min(threads, inputs.size());

  Timer timer;
  std::vector<std::optional<CleanResult>> results(inputs.size());
  // Workers pull indices from a shared cursor (cheap work stealing: input
  // tuples vary a lot in cost, so static partitioning would straggle).
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  size_t first_error_index = inputs.size();
  Status first_error = Status::OK();

  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= inputs.size() || failed.load(std::memory_order_relaxed)) {
        return;
      }
      Result<CleanResult> result = Clean(inputs[i]);
      if (!result.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = result.status();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      results[i] = std::move(result).value();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (failed.load(std::memory_order_relaxed)) {
    return first_error;
  }

  // Serial, in-order reduction keeps sink output deterministic.
  CleanStats stats;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const CleanResult& result = *results[i];
    ++stats.processed;
    switch (result.outcome) {
      case CleanOutcome::kValidated:
        ++stats.validated;
        break;
      case CleanOutcome::kCorrected:
        ++stats.corrected;
        break;
      case CleanOutcome::kRouted:
        ++stats.routed;
        break;
    }
    if (sink) {
      FM_RETURN_IF_ERROR(sink(i, result));
    }
  }
  stats.elapsed_seconds = timer.ElapsedSeconds();
  const CleanerMetrics& m = CleanerMetrics::Get();
  m.batch_seconds->Observe(stats.elapsed_seconds);
  if (stats.elapsed_seconds > 0.0) {
    m.queries_per_second->Set(static_cast<double>(stats.processed) /
                              stats.elapsed_seconds);
  }
  return stats;
}

}  // namespace fuzzymatch
