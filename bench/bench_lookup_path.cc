// bench_lookup_path: the ETI probe-route microbenchmark (DESIGN.md 5i).
// One ETI is built over the synthetic relation, then
//
//   1. the raw probe loop — every [QGram, Coordinate, Column] key a
//      sample of reference tuples generates, probed through LookupInto;
//      timed per pass, with a posting-heavy subset (frequency >= 16)
//      reported separately (dense tid-lists are where the SIMD decode
//      pays);
//   2. end-to-end FindMatches over a dirty input dataset — per-query
//      p50/p95 latency.
//
// The row is labelled with the posting-decode kernel in use
// (SimdLevelName(DetectSimdLevel())): run once under FM_SIMD_LEVEL=scalar
// and once with the default to compare the scalar and SIMD kernels. Their
// match output is byte-identical (tools/ci.sh lookupcheck). Heap
// allocations per timed probe pass are reported via the global alloc
// counter: steady-state probe loops must not allocate.
//
// Scale knobs: FM_REF_SIZE, FM_NUM_INPUTS (bench_env.h), FM_PASSES.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/simd_varint.h"
#include "common/string_util.h"
#include "eti/signature.h"
#include "obs/metrics.h"
#include "support/alloc_counter.h"
#include "support/bench_env.h"

using namespace fuzzymatch;
using namespace fuzzymatch::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ProbeKey {
  std::string gram;
  uint32_t coordinate = 0;
  uint32_t column = 0;
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  return values[idx];
}

/// Times `passes` probe loops over `keys` and returns per-probe seconds
/// of each pass (after one untimed warmup pass that faults everything
/// resident and grows the scratch to its steady-state capacity).
std::vector<double> TimeProbePasses(const Eti& eti,
                                    const std::vector<ProbeKey>& keys,
                                    size_t passes, uint64_t* checksum,
                                    double* allocs_per_pass) {
  EtiScratch scratch;
  uint64_t sum = 0;
  for (const ProbeKey& key : keys) {  // warmup
    auto view = eti.LookupInto(key.gram, key.coordinate, key.column,
                               &scratch);
    if (view.ok() && view->found) sum += view->frequency;
  }
  std::vector<double> per_probe_s;
  per_probe_s.reserve(passes);
  const uint64_t allocs_before = AllocationCount();
  for (size_t p = 0; p < passes; ++p) {
    const double t0 = Now();
    for (const ProbeKey& key : keys) {
      auto view = eti.LookupInto(key.gram, key.coordinate, key.column,
                                 &scratch);
      if (view.ok() && view->found) {
        sum += view->frequency;
        for (size_t i = 0; i < view->num_tids; ++i) {
          sum += view->tids[i];
        }
      }
    }
    per_probe_s.push_back((Now() - t0) /
                          static_cast<double>(keys.size()));
  }
  *allocs_per_pass =
      static_cast<double>(AllocationCount() - allocs_before) /
      static_cast<double>(passes);
  *checksum += sum;
  return per_probe_s;
}

Status RunBench() {
  FM_ASSIGN_OR_RETURN(BenchEnv env, MakeBenchEnv());
  FM_ASSIGN_OR_RETURN(const std::vector<InputTuple> inputs,
                      GenerateInputs(env.customers,
                                     WithInputs(DatasetD2(), env.num_inputs),
                                     nullptr));
  const size_t passes = EnvSize("FM_PASSES", 9);

  FuzzyMatchConfig config;
  config.eti.signature_size = 3;
  config.eti.index_tokens = true;
  ApplyHotPathEnvOverrides(&config);
  FM_ASSIGN_OR_RETURN(auto matcher,
                      FuzzyMatcher::Build(env.db.get(), "customers", config));
  const Eti& eti = matcher->eti();
  const char* level = SimdLevelName(DetectSimdLevel());

  std::printf("bench_lookup_path: |R|=%zu inputs=%zu passes=%zu kernel=%s\n",
              env.ref_size, inputs.size(), passes, level);

  // The probe corpus: every key the first 200 reference tuples generate
  // (the exact keys FindMatches would probe for clean versions of them).
  std::vector<ProbeKey> all_keys;
  std::vector<ProbeKey> heavy_keys;
  {
    const Tokenizer tokenizer = eti.MakeTokenizer();
    const MinHasher hasher = eti.MakeHasher();
    Table::Scanner scanner = env.customers->Scan();
    Tid tid;
    Row row;
    size_t seen = 0;
    for (;;) {
      FM_ASSIGN_OR_RETURN(const bool more, scanner.Next(&tid, &row));
      if (!more || seen++ >= 200) break;
      const TokenizedTuple tokens = tokenizer.TokenizeTuple(row);
      for (uint32_t col = 0; col < tokens.size(); ++col) {
        for (const auto& token : tokens[col]) {
          for (const auto& tc :
               MakeTokenCoordinates(hasher, eti.params(), token, 1.0)) {
            all_keys.push_back({tc.gram, tc.coordinate, col});
          }
        }
      }
    }
    EtiScratch scratch;
    for (const ProbeKey& key : all_keys) {
      auto view = eti.LookupInto(key.gram, key.coordinate, key.column,
                                 &scratch);
      if (view.ok() && view->found && view->frequency >= 16) {
        heavy_keys.push_back(key);
      }
    }
    if (heavy_keys.size() < 64) {
      heavy_keys = all_keys;  // tiny FM_REF_SIZE: no dense lists to split
    }
  }
  std::printf("probe corpus: %zu keys (%zu posting-heavy)\n\n",
              all_keys.size(), heavy_keys.size());

  uint64_t checksum = 0;  // anti-DCE
  double allocs_per_pass = 0.0;
  const std::vector<double> all_pass =
      TimeProbePasses(eti, all_keys, passes, &checksum, &allocs_per_pass);
  double heavy_allocs = 0.0;
  const std::vector<double> heavy_pass =
      TimeProbePasses(eti, heavy_keys, passes, &checksum, &heavy_allocs);

  std::vector<double> query_s;
  query_s.reserve(inputs.size());
  for (const InputTuple& input : inputs) {
    const double t0 = Now();
    FM_RETURN_IF_ERROR(matcher->FindMatches(input.dirty).status());
    query_s.push_back(Now() - t0);
  }

  const double probe_p50_ns = Quantile(all_pass, 0.50) * 1e9;
  const double probe_p95_ns = Quantile(all_pass, 0.95) * 1e9;
  const double heavy_p50_ns = Quantile(heavy_pass, 0.50) * 1e9;
  const double heavy_p95_ns = Quantile(heavy_pass, 0.95) * 1e9;
  const double query_p50_ms = Quantile(query_s, 0.50) * 1e3;
  const double query_p95_ms = Quantile(query_s, 0.95) * 1e3;
  PrintRow({"kernel", "probe_p50ns", "probe_p95ns", "heavy_p50ns",
            "heavy_p95ns", "query_p50ms", "query_p95ms", "allocs/pass"});
  PrintRow({level, StringPrintf("%.1f", probe_p50_ns),
            StringPrintf("%.1f", probe_p95_ns),
            StringPrintf("%.1f", heavy_p50_ns),
            StringPrintf("%.1f", heavy_p95_ns),
            StringPrintf("%.3f", query_p50_ms),
            StringPrintf("%.3f", query_p95_ms),
            StringPrintf("%.1f", allocs_per_pass)});
  std::printf("\nprobe checksum %llu\n",
              static_cast<unsigned long long>(checksum));

  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("lookup_path.simd_level")
      ->Set(static_cast<double>(DetectSimdLevel()));
  reg.GetGauge("lookup_path.probe_p50_ns")->Set(probe_p50_ns);
  reg.GetGauge("lookup_path.probe_p95_ns")->Set(probe_p95_ns);
  reg.GetGauge("lookup_path.heavy_p50_ns")->Set(heavy_p50_ns);
  reg.GetGauge("lookup_path.heavy_p95_ns")->Set(heavy_p95_ns);
  reg.GetGauge("lookup_path.query_p50_ms")->Set(query_p50_ms);
  reg.GetGauge("lookup_path.query_p95_ms")->Set(query_p95_ms);
  reg.GetGauge("lookup_path.allocs_per_pass")->Set(allocs_per_pass);
  DumpMetrics("bench_lookup_path");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = RunBench();
  if (!status.ok()) {
    std::fprintf(stderr, "bench_lookup_path: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
