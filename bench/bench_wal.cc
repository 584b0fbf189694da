// WAL durability bench (DESIGN.md 5j): durable maintenance throughput
// under the two fsync policies, and log-replay recovery speed over a
// crash snapshot taken mid-session. Archives the wal.* counter family
// plus its own gauges via DumpMetrics, so CI's walcheck stage keeps a
// diffable record of the group-commit and recovery costs.
//
//   FM_REF_SIZE     reference relation cardinality (default 3000)
//   FM_MAINT_OPS    maintenance ops per fsync mode (default 200)

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "storage/wal.h"
#include "support/bench_env.h"

using namespace fuzzymatch;
using namespace fuzzymatch::bench;

namespace {

std::string TempDbPath(const char* tag) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/bench_wal_" +
         tag + "_" + std::to_string(::getpid()) + ".db";
}

void RemoveWithWal(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".wal");
}

Status Run() {
  const size_t ref_size = EnvSize("FM_REF_SIZE", 3000);
  const size_t maint_ops = EnvSize("FM_MAINT_OPS", 200);
  std::printf("WAL durability — |R| = %zu, %zu maintenance ops per mode\n\n",
              ref_size, maint_ops);
  PrintRow({"fsync mode", "ops/s", "commits", "fsyncs", "log MiB"});

  auto& registry = obs::MetricsRegistry::Global();
  std::string replay_snapshot;  // crash snapshot from the kGroup run

  for (const WalFsyncMode mode : {WalFsyncMode::kGroup, WalFsyncMode::kNever}) {
    const std::string name(WalFsyncModeName(mode));
    const std::string path = TempDbPath(name.c_str());
    RemoveWithWal(path);

    DatabaseOptions options;
    options.path = path;
    options.wal_fsync = mode;
    FM_ASSIGN_OR_RETURN(auto db, Database::Open(options));
    {
      FM_ASSIGN_OR_RETURN(
          Table * customers,
          db->CreateTable("customers", CustomerGenerator::CustomerSchema()));
      CustomerGenOptions gen_options;
      gen_options.num_tuples = ref_size;
      CustomerGenerator gen(gen_options);
      FM_RETURN_IF_ERROR(gen.Populate(customers));
    }
    FuzzyMatchConfig config;
    config.eti.signature_size = 2;
    config.eti.index_tokens = true;
    ApplyHotPathEnvOverrides(&config);
    FM_ASSIGN_OR_RETURN(auto matcher,
                        FuzzyMatcher::Build(db.get(), "customers", config));
    // Start the measured window from a truncated log.
    FM_RETURN_IF_ERROR(db->Checkpoint());

    const uint64_t commits0 = registry.GetCounter("wal.commits")->value();
    const uint64_t fsyncs0 = registry.GetCounter("wal.fsyncs")->value();
    Timer timer;
    for (size_t i = 0; i < maint_ops; ++i) {
      Row row{"walbench " + std::to_string(i) + " inc",
              std::string("renton"), std::string("wa"), std::string("98055")};
      FM_ASSIGN_OR_RETURN(Tid tid, matcher->InsertReferenceTuple(row));
      if (i % 4 == 3) {
        FM_RETURN_IF_ERROR(matcher->RemoveReferenceTuple(tid));
      }
    }
    FM_RETURN_IF_ERROR(db->FlushWal());
    const double seconds = timer.ElapsedSeconds();
    const double ops_per_s = static_cast<double>(maint_ops) / seconds;
    const uint64_t commits = registry.GetCounter("wal.commits")->value()
                             - commits0;
    const uint64_t fsyncs = registry.GetCounter("wal.fsyncs")->value()
                            - fsyncs0;
    const double log_mib =
        static_cast<double>(std::filesystem::file_size(path + ".wal")) /
        (1024.0 * 1024.0);
    registry.GetGauge("bench_wal.maint_ops_per_s_" + name)->Set(ops_per_s);
    PrintRow({name, StringPrintf("%.0f", ops_per_s),
              StringPrintf("%llu", static_cast<unsigned long long>(commits)),
              StringPrintf("%llu", static_cast<unsigned long long>(fsyncs)),
              StringPrintf("%.1f", log_mib)});

    if (mode == WalFsyncMode::kGroup) {
      // A crash snapshot: main file as-is (dirty pages unflushed), log as
      // fsynced. Opening the copy must replay every committed op.
      replay_snapshot = TempDbPath("replay");
      RemoveWithWal(replay_snapshot);
      std::filesystem::copy_file(path, replay_snapshot);
      std::filesystem::copy_file(path + ".wal", replay_snapshot + ".wal");
    }
    db.reset();
    RemoveWithWal(path);
  }

  if (!replay_snapshot.empty()) {
    DatabaseOptions options;
    options.path = replay_snapshot;
    Timer timer;
    FM_ASSIGN_OR_RETURN(auto db, Database::Open(options));
    const double seconds = timer.ElapsedSeconds();
    const Wal::ReplayStats& replay = db->replay_stats();
    registry.GetGauge("bench_wal.replay_seconds")->Set(seconds);
    registry.GetGauge("bench_wal.replay_pages")
        ->Set(static_cast<double>(replay.pages_applied));
    std::printf("\nRecovery: replayed %llu commits / %llu pages in %.3fs "
                "(open-to-serving)\n",
                static_cast<unsigned long long>(replay.commits_applied),
                static_cast<unsigned long long>(replay.pages_applied),
                seconds);
    db.reset();
    RemoveWithWal(replay_snapshot);
  }

  std::printf("\nExpected shape: never > group in ops/s (no fsync "
              "waits); recovery cost\nscales with the committed log, not "
              "the database size.\n");
  return Status::OK();
}

}  // namespace

int main() {
  const Status status = Run();
  DumpMetrics("bench_wal");
  if (!status.ok()) {
    std::fprintf(stderr, "bench_wal: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
