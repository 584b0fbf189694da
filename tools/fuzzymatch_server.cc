// fuzzymatch_server: the online serving daemon.
//
//   fuzzymatch_server --ref ref.csv [--port P] [--host A]
//                     [--workers N] [--queue N] [--max-conns N]
//                     [--idle-timeout-ms N]
//                     [--q N] [--h N] [--tokens] [--k N] [--threshold C]
//                     [--load-threshold C]
//                     [--accel-budget-mb MB] [--tuple-cache-mb MB]
//                     [--db PATH] [--wal-fsync group|never]
//                     [--verbose]
//
// Loads the reference CSV, builds the Error Tolerant Index once, then
// serves match/clean requests over the line protocol (see
// src/server/protocol.h) from a fixed worker pool. A full request queue
// sheds with {"ok":false,"error":"overloaded","shed":true}. SIGTERM and
// SIGINT trigger a graceful drain: in-flight requests complete and their
// responses flush — and, with a file-backed store, the WAL is
// group-committed and fsynced — before the process exits.
//
// --db makes the store file-backed and durable: maintenance commits
// through a write-ahead log at <PATH>.wal (replayed on the next open),
// --wal-fsync picks the log's durability/latency trade-off, and a
// restart with the same --db reattaches to the persisted ETI instead of
// rebuilding it. The default remains an in-memory store.
//
// An unknown flag is a startup error naming the flag, so a retired or
// misspelt option never passes silently.
//
// Try it with netcat:
//
//   $ fuzzymatch_server --ref ref.csv --port 7878 &
//   $ printf 'ping\n{"op":"match","row":["joe","smith",...],"id":1}\n' |
//       nc 127.0.0.1 7878

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "args.h"
#include "common/logging.h"
#include "core/fuzzy_match.h"
#include "fault/failpoint.h"
#include "obs/log.h"
#include "obs/process_metrics.h"
#include "obs/trace.h"
#include "server/server.h"
#include "storage/wal.h"

using namespace fuzzymatch;

namespace {

// Self-pipe: the signal handler's only job is to wake main (a write(2) to
// a pipe is async-signal-safe; so is the server's RequestStop, but the
// graceful Shutdown must run on a normal thread).
int g_stop_pipe[2] = {-1, -1};
server::MatchServer* g_server = nullptr;

void HandleStopSignal(int) {
  if (g_server != nullptr) {
    g_server->RequestStop();
  }
  const char byte = 1;
  // The return value is irrelevant: if the pipe is full, main is already
  // waking up.
  [[maybe_unused]] const ssize_t n = ::write(g_stop_pipe[1], &byte, 1);
}

Status Run(const Args& args) {
  FM_RETURN_IF_ERROR(args.RejectUnknown(
      {"ref", "port", "host", "workers", "queue", "max-conns",
       "idle-timeout-ms", "q", "h", "tokens", "k", "threshold",
       "load-threshold", "build-threads", "accel-budget-mb",
       "tuple-cache-mb", "db", "wal-fsync", "slow-trace-ms",
       "recorder-capacity", "no-trace", "verbose", "help"}));
  const std::string ref_path = args.Get("ref", "");
  if (ref_path.empty()) {
    return Status::InvalidArgument("fuzzymatch_server requires --ref");
  }

  // Parse and validate every flag before touching the data so a typo'd
  // invocation fails in milliseconds with a one-line diagnostic.
  FuzzyMatchConfig config;
  FM_ASSIGN_OR_RETURN(const int64_t q, args.GetIntInRange("q", 4, 1, 64));
  FM_ASSIGN_OR_RETURN(const int64_t h, args.GetIntInRange("h", 3, 1, 256));
  FM_ASSIGN_OR_RETURN(const int64_t k, args.GetIntInRange("k", 1, 1, 1024));
  config.eti.q = static_cast<int>(q);
  config.eti.signature_size = static_cast<int>(h);
  config.eti.index_tokens = args.Has("tokens");
  config.matcher.k = static_cast<size_t>(k);
  FM_ASSIGN_OR_RETURN(config.matcher.min_similarity,
                      args.GetDouble("threshold", 0.0));
  FM_ASSIGN_OR_RETURN(
      const int64_t accel_mb,
      args.GetIntInRange("accel-budget-mb",
                         static_cast<int64_t>(config.accel_memory_bytes >> 20),
                         0, 1 << 20));
  config.accel_memory_bytes = static_cast<size_t>(accel_mb) << 20;
  FM_ASSIGN_OR_RETURN(
      const int64_t cache_mb,
      args.GetIntInRange(
          "tuple-cache-mb",
          static_cast<int64_t>(config.matcher.tuple_cache_bytes >> 20), 0,
          1 << 20));
  config.matcher.tuple_cache_bytes = static_cast<size_t>(cache_mb) << 20;
  FM_ASSIGN_OR_RETURN(const int64_t build_threads,
                      args.GetIntInRange("build-threads", 1, 0, 256));
  config.build_threads = static_cast<int>(build_threads);

  BatchCleaner::Options clean_options;
  FM_ASSIGN_OR_RETURN(clean_options.load_threshold,
                      args.GetDouble("load-threshold", 0.8));

  server::ServerOptions options;
  options.host = args.Get("host", "127.0.0.1");
  FM_ASSIGN_OR_RETURN(const int64_t port,
                      args.GetIntInRange("port", 7878, 0, 65535));
  options.port = static_cast<uint16_t>(port);
  FM_ASSIGN_OR_RETURN(const int64_t workers,
                      args.GetIntInRange("workers", 4, 1, 4096));
  options.workers = static_cast<size_t>(workers);
  FM_ASSIGN_OR_RETURN(const int64_t queue,
                      args.GetIntInRange("queue", 64, 1, 1 << 20));
  options.queue_capacity = static_cast<size_t>(queue);
  FM_ASSIGN_OR_RETURN(const int64_t max_conns,
                      args.GetIntInRange("max-conns", 256, 1, 1 << 20));
  options.max_connections = static_cast<size_t>(max_conns);
  FM_ASSIGN_OR_RETURN(
      const int64_t idle_ms,
      args.GetIntInRange("idle-timeout-ms", 30000, 0, 86400000));
  options.idle_timeout_ms = static_cast<int>(idle_ms);
  FM_ASSIGN_OR_RETURN(const int64_t slow_ms,
                      args.GetIntInRange("slow-trace-ms", 100, 1, 3600000));
  options.slow_trace_ms = static_cast<int>(slow_ms);
  FM_ASSIGN_OR_RETURN(
      const int64_t recorder_cap,
      args.GetIntInRange("recorder-capacity", 64, 1, 1 << 16));
  options.recorder_capacity = static_cast<size_t>(recorder_cap);
  if (args.Has("no-trace")) {
    obs::SetTracingEnabled(false);
  }

  // Out-of-band fault arming for harnesses driving this process (e.g.
  // tools/ci.sh obscheck injects a sleep to exercise slow-query capture).
  FM_RETURN_IF_ERROR(fault::ArmFromEnv());

  DatabaseOptions db_options;
  db_options.path = args.Get("db", "");
  db_options.pool_pages = 64 * 1024;
  FM_ASSIGN_OR_RETURN(db_options.wal_fsync,
                      ParseWalFsyncMode(args.Get("wal-fsync", "group")));
  FM_ASSIGN_OR_RETURN(auto db, Database::Open(db_options));

  // A file-backed store that already holds the reference relation (a
  // restart with the same --db) is reattached; otherwise the CSV loads.
  Table* ref = nullptr;
  bool reattached = false;
  if (!db_options.path.empty()) {
    const Result<Table*> existing = db->GetTable("ref");
    if (existing.ok()) {
      ref = *existing;
      reattached = true;
    } else if (!existing.status().IsNotFound()) {
      return existing.status();
    }
  }
  if (ref == nullptr) {
    FM_ASSIGN_OR_RETURN(ref, LoadCsvTable(db.get(), "ref", ref_path));
  }
  FM_SLOG(Info, "server.reference_loaded")
      .Field("tuples", ref->row_count())
      .Field("path", reattached ? db_options.path : ref_path)
      .Field("reattached", reattached);

  // On a reattach the persisted ETI already exists; Open() attaches to
  // it instead of paying the build again.
  Result<std::unique_ptr<FuzzyMatcher>> built =
      FuzzyMatcher::Build(db.get(), "ref", config);
  const bool fresh_build = built.ok();
  if (!built.ok() && built.status().IsAlreadyExists()) {
    built = FuzzyMatcher::Open(db.get(), "ref", config.eti.StrategyName(),
                               config);
  }
  FM_ASSIGN_OR_RETURN(const std::unique_ptr<FuzzyMatcher> matcher,
                      std::move(built));
  // The load and the build write the store outside the log, so until a
  // checkpoint every commit logs its pages whole (DESIGN.md 5j).
  if (fresh_build && !db_options.path.empty()) {
    FM_RETURN_IF_ERROR(db->Checkpoint());
  }
  FM_SLOG(Info, "server.eti_built")
      .Field("strategy", config.eti.StrategyName())
      .Field("seconds", matcher->build_stats().total_seconds)
      .Field("rows", matcher->build_stats().eti_rows);
  if (const EtiAccel* accel = matcher->eti().accelerator()) {
    FM_SLOG(Info, "server.accel_attached")
        .Field("entries", static_cast<uint64_t>(accel->entry_count()))
        .Field("bytes", static_cast<uint64_t>(accel->memory_bytes()))
        .Field("complete", accel->complete());
  }

  // Graceful drain must not lose acknowledged maintenance: after the
  // last response flushes, group-commit and fsync the WAL.
  options.drain_flush = [db = db.get()] { return db->FlushWal(); };
  options.rebuild_handler = [m = matcher.get()] { return m->RebuildEti(); };

  const auto srv = std::make_unique<server::MatchServer>(
      matcher.get(), clean_options, options);

  if (::pipe(g_stop_pipe) != 0) {
    return Status::IOError("pipe: " + std::string(std::strerror(errno)));
  }
  g_server = srv.get();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  FM_RETURN_IF_ERROR(srv->Start());
  const obs::BuildInfo& build = obs::GetBuildInfo();
  FM_SLOG(Info, "server.start")
      .Field("host", options.host)
      .Field("port", static_cast<uint64_t>(srv->port()))
      .Field("workers", static_cast<uint64_t>(options.workers))
      .Field("queue", static_cast<uint64_t>(options.queue_capacity))
      .Field("slow_trace_ms", options.slow_trace_ms)
      .Field("tracing", obs::TracingEnabled())
      .Field("version", build.version)
      .Field("build_type", build.build_type);
  // Keep one human-facing line so `fuzzymatch_server &` in a shell still
  // shows where to connect.
  std::printf("serving on %s:%u (%zu workers, queue %zu); "
              "SIGTERM drains gracefully\n",
              options.host.c_str(), srv->port(), options.workers,
              options.queue_capacity);
  std::fflush(stdout);

  // Block until a stop signal arrives.
  char byte;
  while (::read(g_stop_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  FM_SLOG(Info, "server.drain");
  srv->Shutdown();
  g_server = nullptr;
  FM_SLOG(Info, "server.stop")
      .Field("responses", srv->responses_sent())
      .Field("shed", srv->shed_requests());
  return Status::OK();
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: fuzzymatch_server --ref ref.csv [--port P] [--host A]\n"
      "         [--workers N] [--queue N] [--max-conns N]\n"
      "         [--idle-timeout-ms N] [--q N] [--h N] [--tokens] [--k N]\n"
      "         [--threshold C] [--load-threshold C] [--build-threads N]\n"
      "         [--accel-budget-mb MB] [--tuple-cache-mb MB]\n"
      "         [--db PATH] [--wal-fsync group|never]\n"
      "         [--slow-trace-ms N] [--recorder-capacity N] [--no-trace]\n"
      "         [--verbose]\n"
      "env: FM_FAILPOINTS=\"name=sleep:MS,name=error\" arms failpoints\n"
      "     at startup (builds with -DFM_FAILPOINTS=ON only)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, 1);
  if (args.Has("help") || argc < 2) {
    PrintUsage();
    return 2;
  }
  if (args.Has("verbose")) {
    SetLogLevel(LogLevel::kDebug);
  }
  const Status status = Run(args);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
