// fuzzymatch_loadgen: closed-loop load generator for fuzzymatch_server.
//
//   fuzzymatch_loadgen --port P [--host A] [--clients N] [--requests N]
//                      [--input dirty.csv] [--op match|clean|mixed]
//                      [--metrics-out FILE] [--watch [SECONDS]]
//
// Each client opens its own connection and issues `--requests` requests
// back to back (one outstanding at a time, matching the protocol).
// Request rows come from --input (a CSV with header, cycled as needed);
// without --input every request is a ping, which measures pure
// server/protocol overhead. `--op mixed` alternates match and clean per
// input row. Prints throughput and latency quantiles overall and per op
// type, and counts shed ("overloaded") and error responses separately.
// --metrics-out writes the run's summary as one JSON object (overall +
// per-op breakdown), in the same shape the bench harnesses archive under
// bench_results/. --watch polls the server's statusz and tracez
// endpoints on a side connection during the run and prints one live line
// per interval (busy workers, queue depth, shed/error counts, flight-
// recorder slow/error outliers, RSS). An unknown flag or a malformed
// number is an error naming it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "server/client.h"
#include "server/json.h"

using namespace fuzzymatch;

namespace {

/// Request op types tracked separately in the report.
enum OpKind : uint8_t { kMatch = 0, kClean = 1, kPing = 2 };
constexpr const char* kOpNames[] = {"match", "clean", "ping"};
constexpr size_t kOpKinds = 3;

struct RequestSet {
  std::vector<std::string> lines;
  std::vector<OpKind> kinds;  // parallel to lines
};

/// Builds the request lines up front so the measured loop is pure I/O.
/// `op` is "match", "clean", or "mixed" (alternating per input row).
Result<RequestSet> BuildRequests(const std::string& input_path,
                                 const std::string& op) {
  RequestSet requests;
  if (input_path.empty()) {
    requests.lines.push_back("ping");
    requests.kinds.push_back(kPing);
    return requests;
  }
  if (op != "match" && op != "clean" && op != "mixed") {
    return Status::InvalidArgument("--op must be match, clean, or mixed");
  }
  std::ifstream in(input_path);
  if (!in) {
    return Status::IOError("cannot open " + input_path);
  }
  CsvReader reader(&in);
  std::vector<std::string> fields;
  FM_ASSIGN_OR_RETURN(const bool has_header, reader.Next(&fields));
  if (!has_header) {
    return Status::InvalidArgument(input_path + " is empty");
  }
  for (;;) {
    FM_ASSIGN_OR_RETURN(const bool more, reader.Next(&fields));
    if (!more) break;
    const OpKind kind =
        op == "mixed" ? (requests.lines.size() % 2 == 0 ? kMatch : kClean)
                      : (op == "clean" ? kClean : kMatch);
    std::string line = "{\"op\":";
    server::AppendJsonString(kOpNames[kind], &line);
    line += ",\"row\":[";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) line.push_back(',');
      if (fields[i].empty()) {
        line += "null";
      } else {
        server::AppendJsonString(fields[i], &line);
      }
    }
    line += "]}";
    requests.lines.push_back(std::move(line));
    requests.kinds.push_back(kind);
  }
  if (requests.lines.empty()) {
    return Status::InvalidArgument(input_path + " has no data rows");
  }
  return requests;
}

/// Per-op tallies; index by OpKind.
struct OpTally {
  std::vector<double> latencies_s;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;

  void Merge(const OpTally& other) {
    ok += other.ok;
    shed += other.shed;
    errors += other.errors;
    latencies_s.insert(latencies_s.end(), other.latencies_s.begin(),
                       other.latencies_s.end());
  }
};

struct ClientResult {
  OpTally per_op[kOpKinds];
  std::string fatal;  // non-empty = connection-level failure
};

void RunClient(const std::string& host, uint16_t port,
               const RequestSet& requests, size_t offset, size_t count,
               ClientResult* out) {
  server::LineClient client;
  if (const Status s = client.Connect(host, port); !s.ok()) {
    out->fatal = s.ToString();
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const size_t slot = (offset + i) % requests.lines.size();
    const std::string& request = requests.lines[slot];
    OpTally& tally = out->per_op[requests.kinds[slot]];
    const auto start = std::chrono::steady_clock::now();
    auto response = client.Roundtrip(request);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (!response.ok()) {
      out->fatal = response.status().ToString();
      return;
    }
    tally.latencies_s.push_back(elapsed);
    if (response->find("\"shed\":true") != std::string::npos) {
      ++tally.shed;
    } else if (response->rfind("{\"ok\":true", 0) == 0) {
      ++tally.ok;
    } else {
      ++tally.errors;
    }
  }
}

double Quantile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  const size_t idx = std::min(
      sorted->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted->size())));
  return (*sorted)[idx];
}

/// One latency summary as a JSON fragment (`sorted` must be sorted).
std::string LatencyJson(std::vector<double>* sorted) {
  return StringPrintf(
      "{\"p50\": %.6f, \"p95\": %.6f, \"p99\": %.6f, \"max\": %.6f}",
      Quantile(sorted, 0.50) * 1e3, Quantile(sorted, 0.95) * 1e3,
      Quantile(sorted, 0.99) * 1e3,
      sorted->empty() ? 0.0 : sorted->back() * 1e3);
}

/// --watch: polls statusz on a side connection and prints one compact
/// live line per interval until `stop` flips.
void WatchLoop(const std::string& host, uint16_t port, double interval_s,
               const std::atomic<bool>* stop) {
  server::LineClient client;
  if (const Status s = client.Connect(host, port); !s.ok()) {
    std::fprintf(stderr, "watch: %s\n", s.ToString().c_str());
    return;
  }
  while (!stop->load(std::memory_order_acquire)) {
    auto response = client.Roundtrip("statusz");
    if (!response.ok()) {
      std::fprintf(stderr, "watch: %s\n",
                   response.status().ToString().c_str());
      return;
    }
    auto doc = server::ParseJson(*response);
    if (!doc.ok() || !doc->is_object()) {
      std::fprintf(stderr, "watch: unparseable statusz\n");
      return;
    }
    size_t busy = 0, workers = 0;
    if (const server::JsonValue* w = doc->Find("workers");
        w != nullptr && w->is_array()) {
      workers = w->array_items().size();
      for (const server::JsonValue& one : w->array_items()) {
        const server::JsonValue* b = one.Find("busy");
        if (b != nullptr && b->bool_value()) ++busy;
      }
    }
    auto number_at = [&doc](const char* section, const char* key) {
      const server::JsonValue* s = doc->Find(section);
      if (s == nullptr) return 0.0;
      const server::JsonValue* v = s->Find(key);
      return v == nullptr ? 0.0 : v->number_value();
    };
    // Flight-recorder outliers come from tracez, not statusz: the
    // recorder's slow/error tallies are the authoritative count of
    // requests that crossed the slow threshold or failed.
    double trace_slow = 0.0;
    double trace_errors = 0.0;
    if (auto outliers = client.Roundtrip("tracez 1"); outliers.ok()) {
      if (auto odoc = server::ParseJson(*outliers);
          odoc.ok() && odoc->is_object()) {
        if (const server::JsonValue* recorder = odoc->Find("recorder")) {
          if (const server::JsonValue* stats = recorder->Find("stats")) {
            if (const server::JsonValue* v = stats->Find("slow")) {
              trace_slow = v->number_value();
            }
            if (const server::JsonValue* v = stats->Find("errors")) {
              trace_errors = v->number_value();
            }
          }
        }
      }
    }
    std::printf(
        "[watch] up=%.0fs busy=%zu/%zu queue=%.0f/%.0f shed=%.0f "
        "errors=%.0f outliers=%.0f slow/%.0f err rss=%.0fMB\n",
        doc->Find("uptime_seconds") != nullptr
            ? doc->Find("uptime_seconds")->number_value()
            : 0.0,
        busy, workers, number_at("queue", "depth"),
        number_at("queue", "capacity"), number_at("counters", "shed"),
        number_at("counters", "query_errors"), trace_slow, trace_errors,
        number_at("process", "rss_bytes") / (1 << 20));
    std::fflush(stdout);
    // Sleep in small steps so shutdown is prompt.
    for (double slept = 0.0;
         slept < interval_s && !stop->load(std::memory_order_acquire);
         slept += 0.05) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, 1);
  if (args.Has("help") || !args.Has("port")) {
    std::fprintf(
        stderr,
        "usage: fuzzymatch_loadgen --port P [--host A] [--clients N]\n"
        "         [--requests N] [--input dirty.csv]\n"
        "         [--op match|clean|mixed] [--metrics-out FILE]\n"
        "         [--watch [SECONDS]]\n");
    return 2;
  }
  const Status known =
      args.RejectUnknown({"port", "host", "clients", "requests", "input",
                          "op", "metrics-out", "watch", "help"});
  const Result<int64_t> port_flag = args.GetIntInRange("port", 0, 1, 65535);
  const Result<int64_t> clients_flag =
      args.GetIntInRange("clients", 4, 1, 1024);
  const Result<int64_t> requests_flag =
      args.GetIntInRange("requests", 100, 1, 1 << 30);
  // --watch takes an optional interval in seconds.
  const Result<int64_t> watch_flag =
      args.Get("watch", "").empty() ? Result<int64_t>(1)
                                    : args.GetIntInRange("watch", 1, 1, 3600);
  for (const Status& s : {known, port_flag.status(), clients_flag.status(),
                          requests_flag.status(), watch_flag.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const std::string host = args.Get("host", "127.0.0.1");
  const uint16_t port = static_cast<uint16_t>(*port_flag);
  const size_t clients = static_cast<size_t>(*clients_flag);
  const size_t requests_per_client = static_cast<size_t>(*requests_flag);
  const std::string op = args.Get("op", "match");

  auto requests = BuildRequests(args.Get("input", ""), op);
  if (!requests.ok()) {
    std::fprintf(stderr, "error: %s\n", requests.status().ToString().c_str());
    return 1;
  }

  std::atomic<bool> stop_watch{false};
  std::thread watcher;
  if (args.Has("watch")) {
    watcher = std::thread(WatchLoop, host, port,
                          static_cast<double>(*watch_flag), &stop_watch);
  }

  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, host, port, std::cref(*requests),
                         c * requests_per_client, requests_per_client,
                         &results[c]);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (watcher.joinable()) {
    stop_watch.store(true, std::memory_order_release);
    watcher.join();
  }

  OpTally totals[kOpKinds];
  for (const ClientResult& r : results) {
    if (!r.fatal.empty()) {
      std::fprintf(stderr, "client error: %s\n", r.fatal.c_str());
    }
    for (size_t k = 0; k < kOpKinds; ++k) {
      totals[k].Merge(r.per_op[k]);
    }
  }
  uint64_t ok = 0, shed = 0, errors = 0;
  std::vector<double> latencies;
  for (const OpTally& t : totals) {
    ok += t.ok;
    shed += t.shed;
    errors += t.errors;
    latencies.insert(latencies.end(), t.latencies_s.begin(),
                     t.latencies_s.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double throughput =
      wall > 0 ? static_cast<double>(latencies.size()) / wall : 0.0;
  std::printf(
      "%zu clients x %zu requests in %.3fs\n"
      "  throughput: %.1f req/s\n"
      "  ok: %llu  shed: %llu  errors: %llu\n"
      "  latency p50: %.3fms  p95: %.3fms  p99: %.3fms  max: %.3fms\n",
      clients, requests_per_client, wall, throughput,
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(errors),
      Quantile(&latencies, 0.50) * 1e3, Quantile(&latencies, 0.95) * 1e3,
      Quantile(&latencies, 0.99) * 1e3,
      latencies.empty() ? 0.0 : latencies.back() * 1e3);
  for (size_t k = 0; k < kOpKinds; ++k) {
    OpTally& t = totals[k];
    if (t.latencies_s.empty()) continue;
    std::sort(t.latencies_s.begin(), t.latencies_s.end());
    std::printf(
        "  %s: %zu req  ok: %llu  shed: %llu  errors: %llu  "
        "p50: %.3fms  p95: %.3fms  p99: %.3fms\n",
        kOpNames[k], t.latencies_s.size(),
        static_cast<unsigned long long>(t.ok),
        static_cast<unsigned long long>(t.shed),
        static_cast<unsigned long long>(t.errors),
        Quantile(&t.latencies_s, 0.50) * 1e3,
        Quantile(&t.latencies_s, 0.95) * 1e3,
        Quantile(&t.latencies_s, 0.99) * 1e3);
  }

  const std::string metrics_path = args.Get("metrics-out", "");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::string ops_json;
    for (size_t k = 0; k < kOpKinds; ++k) {
      OpTally& t = totals[k];
      if (t.latencies_s.empty()) continue;  // already sorted above
      if (!ops_json.empty()) ops_json += ", ";
      ops_json += StringPrintf(
          "\"%s\": {\"count\": %zu, \"ok\": %llu, \"shed\": %llu, "
          "\"errors\": %llu, \"latency_ms\": %s}",
          kOpNames[k], t.latencies_s.size(),
          static_cast<unsigned long long>(t.ok),
          static_cast<unsigned long long>(t.shed),
          static_cast<unsigned long long>(t.errors),
          LatencyJson(&t.latencies_s).c_str());
    }
    out << StringPrintf(
        "{\"clients\": %zu, \"requests_per_client\": %zu, "
        "\"wall_seconds\": %.6f, \"throughput_rps\": %.3f, "
        "\"ok\": %llu, \"shed\": %llu, \"errors\": %llu, "
        "\"latency_ms\": %s, \"ops\": {%s}}\n",
        clients, requests_per_client, wall, throughput,
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(errors),
        LatencyJson(&latencies).c_str(), ops_json.c_str());
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return latencies.empty() ? 1 : 0;
}
