// fmbench: the repository benchmark program (benchmark/README.md).
//
// One process runs one workload. The reference relation is the same in
// every run; the dirty inputs, the arrival schedules and the maintenance
// ops come from --seed. The program receives only the generated rows and
// is measured from the outside: through the public entry points of
// server, core, match, eti and storage, and through the counters and span
// histograms the program already exports (obs). Every served response is
// checked against the in-process rendering of the same input.
//
//   fmbench --workload hot --seed 1 --seconds 24 --trace 0
//           [--quick] [--work-dir DIR] [--out FILE] [--commit SHA]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (a separate process, so the end-to-end numbers never carry the
// benchmark's own tracing). Each metric prints as
// "<workload> <metric> <value> <unit>"; the last stdout line is the JSON
// result {"correct", "attempted", "failed", "metrics"}. --out appends the
// full result, with its context, as one JSON line.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/simd_varint.h"
#include "core/batch_cleaner.h"
#include "core/fuzzy_match.h"
#include "gen/customer_gen.h"
#include "gen/dataset.h"
#include "gen/error_model.h"
#include "match/naive_matcher.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/database.h"

namespace fm = fuzzymatch;
namespace fs = std::filesystem;
using fm::Result;
using fm::Row;
using fm::Status;
using fm::Tid;
using fm::server::JsonValue;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

// Nearest-rank quantile of an ascending sample.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))),
      1, sorted.size());
  return sorted[rank - 1];
}

// Samples strictly above the nearest-rank q-quantile.
size_t SamplesBeyond(size_t n, double q) {
  return n - std::min(n, static_cast<size_t>(
                             std::ceil(q * static_cast<double>(n))));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string work_dir;  // scratch files; created and removed here
  std::string out_file;  // full result appended as one JSON line
  std::string commit = "unknown";
};

Result<Options> ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      o.quick = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--out") {
      o.out_file = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') {
      return Status::InvalidArgument("bad number for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) {
    return Status::InvalidArgument("--workload is required");
  }
  if (!(o.seconds > 0.0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  if (o.work_dir.empty()) {
    o.work_dir = "fmbench-work-" + o.workload;
  }
  return o;
}

// -------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  bool durable = false;
  size_t ref_rows = 100000;
  size_t inputs = 0;  // distinct dirty inputs (durable: read-back inputs)
  size_t pool_pages = fm::DatabaseOptions{}.pool_pages;
  size_t accel_bytes = fm::FuzzyMatchConfig{}.accel_memory_bytes;
  size_t tuple_cache_bytes = fm::FuzzyMatchConfig{}.matcher.tuple_cache_bytes;
  double open_rate = 0;    // open-loop arrivals per second, all clients
  size_t maint_ops = 0;    // durable: deletes in the write phase
  size_t reopens = 7;      // recovery_s is the median of these
  size_t replay_requests = 0;  // traced run: in-process replay length
};

constexpr size_t kClients = 4;    // load-generator threads
constexpr size_t kOpenConns = 4;  // open-loop connections per thread
constexpr size_t kSetups = 5;     // setup_s is the median of these
constexpr size_t kRestartChecks = 200;
// Seed of the reference relation. It is fixed so that runs with different
// --seed values differ only in their inputs and schedules, not in the data
// every query runs against.
constexpr uint64_t kRelationSeed = 1;

// Sizes and defaults. Everything not set here is the shipped default:
// FuzzyMatchConfig (Q_3, K=1, serial build, 64 MiB accelerator, 32 MiB
// tuple cache), ServerOptions (4 workers, queue 64, tracing on),
// DatabaseOptions (4096-page pool, group commit) and BatchCleaner::Options.
// Open-loop rates sit near a fifth of each workload's closed-loop capacity
// on a 4-core machine, and `inputs` is rate x 12 s, so at --seconds 24 the
// open loop sends every input once.
const Workload kWorkloads[] = {
    // Every cache holds the working set: the server launcher's 64k-page pool.
    {.name = "hot", .inputs = 24000, .pool_pages = 64 * 1024,
     .open_rate = 2000, .replay_requests = 5000},
    // Pool, accelerator and tuple cache each at a tenth of the default, so
    // probes and fetches reach the pager: about 5 pool misses per query.
    {.name = "cold", .inputs = 24000,
     .pool_pages = fm::DatabaseOptions{}.pool_pages / 10,
     .accel_bytes = fm::FuzzyMatchConfig{}.accel_memory_bytes / 10,
     .tuple_cache_bytes = fm::FuzzyMatchConfig{}.matcher.tuple_cache_bytes / 10,
     .open_rate = 2000, .replay_requests = 3000},
    // Durable maintenance: 4 writers, WAL group commit. Each recovery
    // replays the whole log, so fewer repetitions.
    {.name = "durable", .durable = true, .inputs = 8000, .maint_ops = 1600,
     .reopens = 3, .replay_requests = 2000},
};

Workload Scaled(Workload w, bool quick) {
  if (quick) {
    w.ref_rows = 3000;
    w.inputs = std::min<size_t>(w.inputs, 300);
    w.maint_ops = std::min<size_t>(w.maint_ops, 40);
    w.replay_requests = 150;
    w.pool_pages = std::max<size_t>(w.pool_pages / 8, 64);
  }
  return w;
}

// Independent deterministic streams derived from --seed.
enum Stream : uint64_t {
  kInputStream = 2,
  kOpenStream,
  kClosedStream,
  kOpStream,
  kReadbackStream,
  kReplayStream,
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return fm::Mix64(fm::HashCombine(seed, stream));
}

// ----------------------------------------------------------------- inputs

// `n` distinct indexes of [0, size), in random order.
std::vector<Tid> SampleDistinct(size_t size, size_t n, fm::Rng& rng) {
  std::vector<Tid> all(size);
  std::iota(all.begin(), all.end(), Tid{0});
  n = std::min(n, size);
  for (size_t i = 0; i < n; ++i) {
    std::swap(all[i], all[i + rng.Uniform(size - i)]);
  }
  all.resize(n);
  return all;
}

// Dataset D2 of the paper's Table 5 applied to `clean` rows.
std::vector<Row> Corrupt(const std::vector<const Row*>& clean, uint64_t seed) {
  fm::ErrorModelOptions model;
  model.column_error_prob = fm::DatasetD2().column_error_prob;
  const fm::ErrorInjector injector(model);
  fm::Rng rng(seed);
  std::vector<Row> out;
  out.reserve(clean.size());
  for (const Row* row : clean) {
    out.push_back(injector.Inject(*row, rng));
  }
  return out;
}

std::string CleanRequestLine(const Row& row, uint64_t id) {
  std::string line =
      "{\"op\":\"clean\",\"id\":" + std::to_string(id) + ",\"row\":[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line.push_back(',');
    if (row[i].has_value()) {
      fm::server::AppendJsonString(*row[i], &line);
    } else {
      line += "null";
    }
  }
  return line + "]}";
}

// The traffic of one served phase: wire lines, the responses they must
// produce, and the tid each dirty input was derived from.
struct Traffic {
  std::vector<Row> dirty;
  std::vector<std::string> requests;
  std::vector<std::string> expected;  // filled by the canonical pass
  std::vector<Tid> source_tid;
};

Traffic MakeTraffic(std::vector<Row> dirty, std::vector<Tid> source_tid) {
  Traffic t;
  t.dirty = std::move(dirty);
  t.source_tid = std::move(source_tid);
  for (size_t i = 0; i < t.dirty.size(); ++i) {
    t.requests.push_back(CleanRequestLine(t.dirty[i], i));
  }
  return t;
}

// -------------------------------------------------------------- deployment

fm::FuzzyMatchConfig Config(const Workload& w, const std::string& temp_dir) {
  fm::FuzzyMatchConfig config;
  config.accel_memory_bytes = w.accel_bytes;
  config.matcher.tuple_cache_bytes = w.tuple_cache_bytes;
  config.temp_dir = temp_dir;  // keep build spill files in the work dir
  return config;
}

fm::DatabaseOptions DbOptions(const Workload& w, const std::string& path) {
  fm::DatabaseOptions options;
  options.path = path;
  options.pool_pages = w.pool_pages;
  options.wal_fsync = fm::WalFsyncMode::kGroup;
  return options;
}

// One served deployment. Members are destroyed bottom-up: the server
// first, the storage last.
struct Deployment {
  std::string dir;
  std::unique_ptr<fm::Database> db;
  std::unique_ptr<fm::FuzzyMatcher> matcher;
  std::unique_ptr<fm::server::MatchServer> server;

  std::string db_path() const { return dir + "/ref.fmdb"; }
};

Status LoadRows(fm::Table* table, const std::vector<Row>& rows,
                size_t count) {
  for (size_t i = 0; i < count; ++i) {
    FM_ASSIGN_OR_RETURN(const Tid tid, table->Insert(rows[i]));
    if (tid != i) {
      return Status::Internal("tids are not dense insertion order");
    }
  }
  return Status::OK();
}

// The timed set-up: load the rows, build the ETI (and accelerator), start
// the server.
Result<std::unique_ptr<Deployment>> SetUp(const Workload& w,
                                          const std::vector<Row>& rows,
                                          const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  fs::create_directories(dir);
  FM_ASSIGN_OR_RETURN(d->db, fm::Database::Open(DbOptions(w, d->db_path())));
  FM_ASSIGN_OR_RETURN(
      fm::Table * table,
      d->db->CreateTable("customers", fm::CustomerGenerator::CustomerSchema()));
  FM_RETURN_IF_ERROR(LoadRows(table, rows, w.ref_rows));
  FM_ASSIGN_OR_RETURN(d->matcher, fm::FuzzyMatcher::Build(
                                      d->db.get(), "customers", Config(w, dir)));
  d->server = std::make_unique<fm::server::MatchServer>(
      d->matcher.get(), fm::BatchCleaner::Options{},
      fm::server::ServerOptions{});
  FM_RETURN_IF_ERROR(d->server->Start());
  return d;
}

// Reopens a deployment's persisted files (after a checkpoint or a crash):
// storage open, including WAL replay, then the matcher ready to serve.
Result<std::unique_ptr<Deployment>> Reopen(const Workload& w,
                                           const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  const fm::FuzzyMatchConfig config = Config(w, dir);
  FM_ASSIGN_OR_RETURN(d->db, fm::Database::Open(DbOptions(w, d->db_path())));
  FM_ASSIGN_OR_RETURN(d->matcher,
                      fm::FuzzyMatcher::Open(d->db.get(), "customers",
                                             config.eti.StrategyName(),
                                             config));
  return d;
}

// ----------------------------------------------------------------- report

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, value, unit});
  }

  // Records `n` attempted operations or checked items.
  void Attempt(uint64_t n) { attempted_ += n; }

  // Records one failed operation or violated check.
  void Fail(const std::string& what) {
    ++failed_;
    if (violations_.size() < 10) violations_.push_back(what);
  }

  void Check(bool ok, const std::string& what) {
    Attempt(1);
    if (!ok) Fail(what);
  }

  JsonValue& context() { return context_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Human-readable lines, then the one-line JSON result (last line).
  void Print(const std::string& workload, const Options& options) const {
    for (const std::string& v : violations_) {
      std::printf("%s violation %s\n", workload.c_str(), v.c_str());
    }
    for (const auto& m : metrics_) {
      std::printf("%s %s %.9g %s\n", workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
    JsonValue summary = Summary();
    if (!options.out_file.empty()) {
      JsonValue full = JsonValue::Object();
      full.Set("workload", JsonValue::String(workload));
      full.Set("seed", JsonValue::Number(static_cast<double>(options.seed)));
      full.Set("trace", JsonValue::Bool(options.trace));
      full.Set("quick", JsonValue::Bool(options.quick));
      for (const auto& [key, value] : summary.object_items()) {
        full.Set(key, value);
      }
      JsonValue violations = JsonValue::Array();
      for (const std::string& v : violations_) {
        violations.Append(JsonValue::String(v));
      }
      full.Set("violations", std::move(violations));
      full.Set("context", context_);
      std::ofstream out(options.out_file, std::ios::app);
      out << full.Dump() << "\n";
      if (!out) {
        std::fprintf(stderr, "fmbench: cannot write %s\n",
                     options.out_file.c_str());
      }
    }
    std::printf("%s\n", summary.Dump().c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  JsonValue Summary() const {
    JsonValue metrics = JsonValue::Object();
    for (const auto& m : metrics_) {
      JsonValue entry = JsonValue::Object();
      entry.Set("value", JsonValue::Number(m.value));
      entry.Set("unit", JsonValue::String(m.unit));
      metrics.Set(m.name, std::move(entry));
    }
    JsonValue out = JsonValue::Object();
    out.Set("correct", JsonValue::Bool(failed_ == 0));
    out.Set("attempted",
            JsonValue::Number(static_cast<double>(std::max<uint64_t>(
                attempted_, 1))));
    out.Set("failed", JsonValue::Number(static_cast<double>(failed_)));
    out.Set("metrics", std::move(metrics));
    return out;
  }

  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> violations_;
  JsonValue context_ = JsonValue::Object();
};

JsonValue Num(double v) { return JsonValue::Number(std::isfinite(v) ? v : 0); }

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

// --------------------------------------------------------- canonical pass

struct Canonical {
  std::vector<std::optional<fm::Match>> best;
  double recall_at_1 = 0.0;
  uint64_t digest = 0;
};

// Cleans every input in-process; the rendered lines are what each served
// response must equal byte for byte. Doubles as the warm-up.
Result<Canonical> CanonicalPass(const fm::MatchSource* source,
                                Traffic* traffic) {
  const fm::BatchCleaner cleaner(source, fm::BatchCleaner::Options{});
  const size_t n = traffic->dirty.size();
  Canonical c;
  c.best.resize(n);
  traffic->expected.assign(n, "");
  FM_RETURN_IF_ERROR(
      cleaner
          .CleanBatchParallel(
              traffic->dirty, kClients,
              [&](size_t i, const fm::CleanResult& r) -> Status {
                std::string line = fm::server::RenderCleanResponse(i, r);
                line.pop_back();  // LineClient strips the '\n'
                traffic->expected[i] = std::move(line);
                c.best[i] = r.best_match;
                return Status::OK();
              })
          .status());
  size_t hits = 0;
  c.digest = 0;
  for (size_t i = 0; i < n; ++i) {
    if (c.best[i].has_value() && c.best[i]->tid == traffic->source_tid[i]) {
      ++hits;
    }
    c.digest = fm::HashCombine(c.digest, fm::Hash64(traffic->expected[i]));
  }
  c.recall_at_1 = Ratio(static_cast<double>(hits), static_cast<double>(n));
  return c;
}

// ------------------------------------------------------------ load phases

struct Phase {
  std::vector<double> latency_ms;    // per completed request
  std::vector<double> done_s;        // completion times from phase start
  std::vector<double> wake_late_ms;  // open loop: generator lateness
  uint64_t scheduled = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t backlogged = 0;  // open loop: sends already late when due
  double seconds = 0.0;
  std::string first_failure;
};

void MergeInto(Phase* total, Phase&& part) {
  const auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&total->latency_ms, part.latency_ms);
  append(&total->done_s, part.done_s);
  append(&total->wake_late_ms, part.wake_late_ms);
  total->scheduled += part.scheduled;
  total->ok += part.ok;
  total->failed += part.failed;
  total->backlogged += part.backlogged;
  if (total->first_failure.empty()) total->first_failure = part.first_failure;
}

// Completions per second in each of ten equal windows of the phase. Their
// median is the reported rate, so a burst of interference from outside
// the process moves it less than a mean.
std::vector<double> WindowRates(const Phase& p) {
  constexpr size_t kWindows = 10;
  std::vector<double> rates(kWindows, 0.0);
  const double width = p.seconds / kWindows;
  for (const double t : p.done_s) {
    rates[std::min(kWindows - 1, static_cast<size_t>(t / width))] += 1.0;
  }
  for (double& r : rates) r /= width;
  return rates;
}

// A seeded permutation of the inputs. Every phase walks it, so each input
// is sent equally often and a run's work does not depend on how many
// expensive inputs a random draw happened to pick.
std::vector<uint32_t> Order(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  fm::Rng rng(seed);
  rng.Shuffle(order);
  return order;
}

// Sends one request and checks the response against the canonical line.
bool Exchange(fm::server::LineClient* client, const Traffic& traffic,
              size_t idx, Clock::time_point phase_start,
              Clock::time_point latency_from, Phase* tally) {
  Result<std::string> response = client->Roundtrip(traffic.requests[idx]);
  const Clock::time_point done = Clock::now();
  tally->latency_ms.push_back(
      std::chrono::duration<double, std::milli>(done - latency_from).count());
  tally->done_s.push_back(
      std::chrono::duration<double>(done - phase_start).count());
  if (response.ok() && *response == traffic.expected[idx]) {
    ++tally->ok;
    return true;
  }
  ++tally->failed;
  if (tally->first_failure.empty()) {
    tally->first_failure =
        "request " + std::to_string(idx) + ": " +
        (response.ok() ? "response differs from in-process rendering: " +
                             response->substr(0, 160)
                       : response.status().ToString());
  }
  return response.ok();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// One connection of the open-loop generator. LineClient blocks on one
// request at a time; the generator needs to wait on several connections
// at once, so it drives raw sockets with ppoll(2).
struct OpenConn {
  int fd = -1;
  std::string buffer;        // response bytes not yet consumed
  bool busy = false;
  size_t idx = 0;            // request in flight
  Clock::time_point due;     // ... and when it was due

  OpenConn() = default;
  OpenConn(const OpenConn&) = delete;
  OpenConn& operator=(const OpenConn&) = delete;
  ~OpenConn() {
    if (fd >= 0) ::close(fd);
  }
};

Status ConnectLoopback(uint16_t port, OpenConn* conn) {
  conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (conn->fd < 0) return Status::IOError("socket failed");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn->fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Status::IOError(std::string("connect: ") + std::strerror(errno));
  }
  return Status::OK();
}

bool SendLine(int fd, const std::string& request) {
  const std::string line = request + "\n";
  for (size_t sent = 0; sent < line.size();) {
    const ssize_t n =
        ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Open loop: each client thread owns kOpenConns connections and sends on
// its own Poisson schedule (rate/kClients) whatever the server does,
// walking its share of the permutation. An arrival goes out on an idle
// connection, so like an independent user it never queues behind another
// user's slow request; it waits only when every connection is busy.
// Latency runs from the due time, so a stall also charges the requests
// that arrive during it. Requests still unsent at twice the phase length
// fail.
Phase RunOpenLoop(uint16_t port, const Traffic& traffic, double rate,
                  double seconds, uint64_t seed) {
  const std::vector<uint32_t> order = Order(traffic.requests.size(), seed);
  std::vector<Phase> tallies(kClients);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(200);
  const Clock::time_point give_up = start + Seconds(2 * seconds + 1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Phase& mine = tallies[c];
      std::vector<Clock::time_point> due;
      fm::Rng rng(SubSeed(seed, 1000 + c));
      for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.NextDouble()) * kClients / rate;
        if (t >= seconds) break;
        due.push_back(start + Seconds(t));
      }
      mine.scheduled = due.size();
      const auto fail = [&mine](uint64_t n, const std::string& why) {
        mine.failed += n;
        if (mine.first_failure.empty()) mine.first_failure = why;
      };
      std::vector<OpenConn> conns(kOpenConns);
      for (OpenConn& conn : conns) {
        if (Status s = ConnectLoopback(port, &conn); !s.ok()) {
          fail(due.size(), s.ToString());
          return;
        }
      }
      size_t next = 0, in_flight = 0;
      bool waited_for_conn = false;  // the next arrival found none idle
      std::vector<struct pollfd> fds(kOpenConns);
      while (next < due.size() || in_flight > 0) {
        Clock::time_point now = Clock::now();
        if (now > give_up) {
          fail(due.size() - next + in_flight, "timed out");
          return;
        }
        // Send every arrival that is due, while a connection is idle.
        while (next < due.size() && due[next] <= now) {
          auto idle = std::find_if(conns.begin(), conns.end(),
                                   [](const OpenConn& x) { return !x.busy; });
          if (idle == conns.end()) {
            waited_for_conn = true;
            break;
          }
          if (waited_for_conn) {
            ++mine.backlogged;
          } else {
            mine.wake_late_ms.push_back(
                std::chrono::duration<double, std::milli>(now - due[next])
                    .count());
          }
          waited_for_conn = false;
          idle->idx = order[(c + kClients * next) % order.size()];
          idle->due = due[next];
          ++next;
          if (!SendLine(idle->fd, traffic.requests[idle->idx])) {
            fail(due.size() - next + in_flight + 1, "send failed");
            return;
          }
          idle->busy = true;
          ++in_flight;
        }
        // Wait for a response, or until the next arrival can be sent.
        struct timespec timeout = {1, 0};
        struct timespec* wait = &timeout;
        const bool can_send =
            next < due.size() && in_flight < conns.size();
        if (can_send) {
          const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              due[next] - Clock::now())
                              .count();
          timeout.tv_sec = ns > 0 ? ns / 1000000000 : 0;
          timeout.tv_nsec = ns > 0 ? ns % 1000000000 : 0;
        }
        for (size_t i = 0; i < conns.size(); ++i) {
          fds[i].fd = conns[i].busy ? conns[i].fd : -1;
          fds[i].events = POLLIN;
          fds[i].revents = 0;
        }
        if (::ppoll(fds.data(), fds.size(), wait, nullptr) < 0 &&
            errno != EINTR) {
          fail(due.size() - next + in_flight, "ppoll failed");
          return;
        }
        for (size_t i = 0; i < conns.size(); ++i) {
          if (fds[i].revents == 0) continue;
          OpenConn& conn = conns[i];
          char chunk[4096];
          const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
          if (n <= 0) {
            fail(due.size() - next + in_flight, "connection closed");
            return;
          }
          conn.buffer.append(chunk, static_cast<size_t>(n));
          const size_t nl = conn.buffer.find('\n');
          if (nl == std::string::npos) continue;
          const Clock::time_point done = Clock::now();
          mine.latency_ms.push_back(
              std::chrono::duration<double, std::milli>(done - conn.due)
                  .count());
          mine.done_s.push_back(
              std::chrono::duration<double>(done - start).count());
          if (conn.buffer.compare(0, nl, traffic.expected[conn.idx]) == 0) {
            ++mine.ok;
          } else {
            fail(1, "request " + std::to_string(conn.idx) +
                        ": response differs from in-process rendering: " +
                        conn.buffer.substr(0, std::min<size_t>(nl, 160)));
          }
          conn.buffer.erase(0, nl + 1);
          conn.busy = false;
          --in_flight;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase total;
  total.seconds = SecondsSince(start);
  for (Phase& t : tallies) MergeInto(&total, std::move(t));
  return total;
}

// Closed loop: each connection sends its next request as soon as the
// previous response arrives, starting a quarter of the permutation apart.
Phase RunClosedLoop(uint16_t port, const Traffic& traffic, double seconds,
                    uint64_t seed) {
  const std::vector<uint32_t> order = Order(traffic.requests.size(), seed);
  std::vector<Phase> tallies(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + Seconds(seconds);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Phase& mine = tallies[c];
      fm::server::LineClient client;
      if (Status s = client.Connect("127.0.0.1", port); !s.ok()) {
        mine.scheduled = mine.failed = 1;
        mine.first_failure = "connect: " + s.ToString();
        return;
      }
      for (size_t i = c * order.size() / kClients; Clock::now() < end; ++i) {
        ++mine.scheduled;
        const Clock::time_point sent = Clock::now();
        if (!Exchange(&client, traffic, order[i % order.size()], start, sent,
                      &mine)) {
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase total;
  total.seconds = SecondsSince(start);
  for (Phase& t : tallies) MergeInto(&total, std::move(t));
  return total;
}

// ------------------------------------------------- exported program state

// The counters and span histograms (`span.<name>_seconds`) the per-layer
// metrics read, as deltas over a phase.
constexpr const char* kCounterNames[] = {
    "bufferpool.hits",       "bufferpool.misses",
    "bufferpool.evictions",  "pager.pages_read",
    "pager.pages_written",   "btree.lookups",
    "btree.node_reads",      "match.queries",
    "match.eti_lookups",     "match.tids_processed",
    "match.candidates",      "match.ref_tuples_fetched",
    "match.osc_succeeded",   "tuple_cache.hits",
    "tuple_cache.misses",    "eti_accel.hits",
    "eti_accel.negative_hits", "eti_accel.fallbacks",
    "eti_accel.invalidations", "eti_accel.bytes_decoded",
    "eti.tidlist_bytes_decoded", "wal.bytes_written",
    "wal.fsyncs",            "wal.commits",
    "wal.undo_records",
};
constexpr const char* kSpanNames[] = {
    "server.handle_query", "cleaner.clean",   "match.find_matches",
    "match.signature",     "match.probe",     "match.score",
    "match.fetch",         "match.verify",    "btree.lookup",
    "pager.read_page",
};

class Snapshot {
 public:
  static Snapshot Take() {
    auto& reg = fm::obs::MetricsRegistry::Global();
    Snapshot s;
    for (const char* name : kCounterNames) {
      s.Put(name, static_cast<double>(reg.GetCounter(name)->value()));
    }
    for (const char* name : kSpanNames) {
      const fm::obs::Histogram* h = fm::obs::SpanHistogram(name);
      s.Put(std::string(name) + ".count", static_cast<double>(h->count()));
      s.Put(std::string(name) + ".sum", h->sum());
    }
    // Same layout as the WAL's own registration of this histogram.
    const fm::obs::Histogram* group = reg.GetHistogram(
        "wal.group_commit_size", fm::obs::HistogramOptions{1.0, 2.0, 10});
    s.Put("wal.group_commit_size.count", static_cast<double>(group->count()));
    s.Put("wal.group_commit_size.sum", group->sum());
    return s;
  }

  // this - before, for one key.
  double Since(const Snapshot& before, const std::string& key) const {
    return Get(key) - before.Get(key);
  }

 private:
  void Put(std::string key, double v) { values_.emplace_back(std::move(key), v); }
  double Get(const std::string& key) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return v;
    }
    return 0.0;
  }
  std::vector<std::pair<std::string, double>> values_;
};

// Samples gauges every 10 ms on its own thread until Stop().
class GaugeSampler {
 public:
  explicit GaugeSampler(std::vector<const fm::obs::Gauge*> gauges)
      : gauges_(std::move(gauges)), sums_(gauges_.size(), 0.0) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        for (size_t i = 0; i < gauges_.size(); ++i) {
          sums_[i] += gauges_[i]->value();
        }
        ++samples_;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  ~GaugeSampler() { Stop(); }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  // Joins the sampler; returns each gauge's mean over the samples.
  std::vector<double> Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    std::vector<double> means;
    for (const double sum : sums_) {
      means.push_back(Ratio(sum, static_cast<double>(samples_)));
    }
    return means;
  }

 private:
  std::vector<const fm::obs::Gauge*> gauges_;
  std::vector<double> sums_;
  size_t samples_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --------------------------------------------------------- traced replay

// Part 1 of a traced run: single-threaded in-process replay of the served
// call sequence ParseRequest -> FindMatches -> GetReferenceTuple ->
// RenderCleanResponse (the worker's path, minus the socket), each call
// timed here and the matcher's spans collected into a RequestTrace.
struct Replay {
  double parse_us = 0;
  double render_us = 0;
  double output_fetch_us = 0;
  // Benchmark tracing cost: mean request time traced vs untraced.
  double traced_us = 0;
  double plain_us = 0;
  uint64_t requests = 0;
  uint64_t mismatches = 0;
  uint64_t dropped_spans = 0;
  std::string first_mismatch;
};

// Per-call times of one replayed request, microseconds.
struct CallTimes {
  double parse = 0, fetch = 0, render = 0;
};

// One request, as the server worker runs it. Returns the rendered line
// (without '\n'); fills the per-call times when `times` is non-null.
Result<std::string> ServeInProcess(const fm::MatchSource* source,
                                   const std::string& request,
                                   CallTimes* times) {
  const Clock::time_point t0 = Clock::now();
  FM_ASSIGN_OR_RETURN(const fm::server::Request parsed,
                      fm::server::ParseRequest(request));
  const Clock::time_point t1 = Clock::now();
  FM_ASSIGN_OR_RETURN(const std::vector<fm::Match> matches,
                      source->FindMatches(parsed.row));
  const Clock::time_point t2 = Clock::now();
  // BatchCleaner::Clean's routing, with the output fetch timed apart.
  fm::CleanResult result;
  const double threshold = fm::BatchCleaner::Options{}.load_threshold;
  if (matches.empty() || matches[0].similarity < threshold) {
    result.outcome = fm::CleanOutcome::kRouted;
    result.output = parsed.row;
    if (!matches.empty()) result.best_match = matches[0];
  } else {
    result.best_match = matches[0];
    FM_ASSIGN_OR_RETURN(result.output,
                        source->GetReferenceTuple(matches[0].tid));
    result.outcome = matches[0].similarity >= 1.0
                         ? fm::CleanOutcome::kValidated
                         : fm::CleanOutcome::kCorrected;
  }
  const Clock::time_point t3 = Clock::now();
  std::string line = fm::server::RenderCleanResponse(parsed.id, result);
  const Clock::time_point t4 = Clock::now();
  line.pop_back();
  if (times != nullptr) {
    using Us = std::chrono::duration<double, std::micro>;
    times->parse = Us(t1 - t0).count();
    times->fetch = Us(t3 - t2).count();
    times->render = Us(t4 - t3).count();
  }
  return line;
}

Replay RunReplay(const fm::MatchSource* source, const Traffic& traffic,
                 size_t requests, uint64_t seed) {
  constexpr size_t kBlock = 100;
  fm::Rng rng(SubSeed(seed, kReplayStream));
  std::vector<size_t> order(requests);
  for (size_t& idx : order) idx = rng.Uniform(traffic.requests.size());

  Replay r;
  double traced_total = 0, plain_total = 0;
  size_t traced_n = 0, plain_n = 0;
  for (size_t begin = 0; begin < requests; begin += kBlock) {
    const size_t end = std::min(requests, begin + kBlock);
    // Alternate which variant runs a block first, so neither always
    // inherits the other's warm caches.
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == ((begin / kBlock) % 2 == 0);
      fm::obs::SetTracingEnabled(traced);
      for (size_t i = begin; i < end; ++i) {
        const size_t idx = order[i];
        const Clock::time_point t0 = Clock::now();
        if (!traced) {
          (void)ServeInProcess(source, traffic.requests[idx], nullptr);
          plain_total += std::chrono::duration<double, std::micro>(
                             Clock::now() - t0)
                             .count();
          ++plain_n;
          continue;
        }
        CallTimes times;
        fm::obs::TraceRecord record;
        Result<std::string> line = std::string();
        {
          fm::obs::RequestTrace trace("clean", fm::obs::NextRequestId(),
                                      nullptr);
          line = ServeInProcess(source, traffic.requests[idx], &times);
          record = trace.record();
        }
        traced_total +=
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        ++traced_n;
        ++r.requests;
        if (!line.ok() || *line != traffic.expected[idx]) {
          ++r.mismatches;
          if (r.first_mismatch.empty()) {
            r.first_mismatch =
                "replay of request " + std::to_string(idx) + ": " +
                (line.ok() ? line->substr(0, 160) : line.status().ToString());
          }
        }
        r.parse_us += times.parse;
        r.render_us += times.render;
        r.output_fetch_us += times.fetch;
        r.dropped_spans += record.dropped_spans;
      }
    }
  }
  fm::obs::SetTracingEnabled(true);
  const double n = static_cast<double>(std::max<uint64_t>(r.requests, 1));
  for (double* v : {&r.parse_us, &r.render_us, &r.output_fetch_us}) {
    *v /= n;
  }
  r.traced_us = Ratio(traced_total, static_cast<double>(traced_n));
  r.plain_us = Ratio(plain_total, static_cast<double>(plain_n));
  return r;
}

// Seconds one naive probe takes over the whole relation: the paper's unit
// of normalized time (Figure 6).
Result<double> NaiveProbeSeconds(fm::FuzzyMatcher* matcher,
                                 fm::Database* db,
                                 const std::vector<Row>& inputs) {
  FM_ASSIGN_OR_RETURN(fm::Table * table, db->GetTable("customers"));
  fm::NaiveMatcher naive(table, &matcher->weights(),
                         fm::NaiveMatcher::SimilarityKind::kFms,
                         fm::MatcherOptions{});
  FM_RETURN_IF_ERROR(naive.Prepare());
  std::vector<double> seconds;
  for (const Row& input : inputs) {
    fm::QueryStats stats;
    FM_RETURN_IF_ERROR(naive.FindMatches(input, &stats).status());
    seconds.push_back(stats.elapsed_seconds);
  }
  return Median(seconds);
}

// Part 2 of a traced run plus the attribution: a closed-loop served phase
// read through the registry deltas, decomposed as
//   client = wire + parse + render + output_fetch + find + remainder.
Status TracedLayers(const Workload& w, Deployment* d, const Traffic& traffic,
                    const Options& options, Report* report) {
  const Replay replay =
      RunReplay(d->matcher.get(), traffic, w.replay_requests, options.seed);
  report->Attempt(replay.requests);
  if (replay.mismatches > 0) {
    report->Fail(replay.first_mismatch + " (" +
                 std::to_string(replay.mismatches) + " replay mismatches)");
    for (uint64_t i = 1; i < replay.mismatches; ++i) report->Fail("replay");
  }

  auto& reg = fm::obs::MetricsRegistry::Global();
  const Snapshot before = Snapshot::Take();
  GaugeSampler sampler(
      {reg.GetGauge("server.queue_depth"), reg.GetGauge("server.busy_workers")});
  const Phase phase = RunClosedLoop(d->server->port(), traffic,
                                    options.seconds / 2,
                                    SubSeed(options.seed, kClosedStream));
  const std::vector<double> gauge_means = sampler.Stop();
  const Snapshot after = Snapshot::Take();
  report->Attempt(phase.scheduled);
  for (uint64_t i = 0; i < phase.failed; ++i) {
    report->Fail(i == 0 ? "traced phase: " + phase.first_failure
                        : "traced phase");
  }

  const auto delta = [&](const std::string& key) {
    return after.Since(before, key);
  };
  const auto span_sum_us = [&](const char* name) {
    return delta(std::string(name) + ".sum") * 1e6;
  };
  const double q = std::max(1.0, delta("server.handle_query.count"));
  const double client_us = Mean(phase.latency_ms) * 1e3;
  const double handle_us = span_sum_us("server.handle_query") / q;
  const double find_us = span_sum_us("match.find_matches") / q;
  const double signature_us = span_sum_us("match.signature") / q;
  const double probe_us = span_sum_us("match.probe") / q;
  const double score_us = span_sum_us("match.score") / q;
  const double fetch_us = span_sum_us("match.fetch") / q;
  const double verify_us = span_sum_us("match.verify") / q;
  const double wire_us = client_us - handle_us - replay.parse_us;
  const double remainder_us =
      handle_us - replay.render_us - replay.output_fetch_us - find_us;

  report->Metric("client_us", client_us, "us");
  report->Metric("server.wire_us", wire_us, "us");
  report->Metric("server.parse_us", replay.parse_us, "us");
  report->Metric("server.handle_us", handle_us, "us");
  report->Metric("server.render_us", replay.render_us, "us");
  report->Metric("server.queue_depth_mean", gauge_means[0], "count");
  report->Metric("server.busy_workers_mean", gauge_means[1], "count");
  report->Metric("core.clean_us", span_sum_us("cleaner.clean") / q, "us");
  report->Metric("core.output_fetch_us", replay.output_fetch_us, "us");

  report->Metric("match.find_us", find_us, "us");
  report->Metric("match.signature_us", signature_us, "us");
  report->Metric("match.probe_us", probe_us, "us");
  report->Metric("match.score_us", score_us, "us");
  report->Metric("match.verify_us", verify_us, "us");
  report->Metric("match.self_us",
                 find_us - signature_us - probe_us - score_us - fetch_us -
                     verify_us,
                 "us");
  report->Metric("match.fetch_pct", 100.0 * Ratio(fetch_us, find_us), "%");
  const double engine_queries = std::max(1.0, delta("match.queries"));
  report->Metric("match.lookups_per_q", delta("match.eti_lookups") / q,
                 "count");
  report->Metric("match.tids_per_q", delta("match.tids_processed") / q,
                 "count");
  report->Metric("match.candidates_per_q", delta("match.candidates") / q,
                 "count");
  report->Metric("match.fetched_per_q", delta("match.ref_tuples_fetched") / q,
                 "count");
  report->Metric("match.osc_success_frac",
                 delta("match.osc_succeeded") / engine_queries, "ratio");
  report->Metric("match.tuple_cache_hit_frac",
                 Ratio(delta("tuple_cache.hits"),
                       delta("tuple_cache.hits") + delta("tuple_cache.misses")),
                 "ratio");
  const std::vector<Row> probes(
      traffic.dirty.begin(),
      traffic.dirty.begin() + std::min<size_t>(3, traffic.dirty.size()));
  FM_ASSIGN_OR_RETURN(const double naive_s,
                      NaiveProbeSeconds(d->matcher.get(), d->db.get(), probes));
  report->context().Set("naive_probe_s", Num(naive_s));
  report->Metric("match.norm_find", Ratio(find_us * 1e-6, naive_s), "ratio");

  const double accel_answers =
      delta("eti_accel.hits") + delta("eti_accel.negative_hits");
  report->Metric("eti.accel_hit_frac",
                 Ratio(accel_answers,
                       accel_answers + delta("eti_accel.fallbacks")),
                 "ratio");
  report->Metric("eti.fallbacks_per_q", delta("eti_accel.fallbacks") / q,
                 "count");
  report->Metric("eti.decoded_bytes_per_q",
                 (delta("eti_accel.bytes_decoded") +
                  delta("eti.tidlist_bytes_decoded")) /
                     q,
                 "bytes");

  const double pool_refs =
      delta("bufferpool.hits") + delta("bufferpool.misses");
  report->Metric("storage.pool_hit_frac",
                 Ratio(delta("bufferpool.hits"), pool_refs), "ratio");
  report->Metric("storage.pool_misses_per_q", delta("bufferpool.misses") / q,
                 "count");
  report->Metric("storage.evictions_per_q", delta("bufferpool.evictions") / q,
                 "count");
  report->Metric("storage.pages_read_per_q", delta("pager.pages_read") / q,
                 "count");
  report->Metric("storage.read_page_pct",
                 100.0 * Ratio(span_sum_us("pager.read_page") / q, client_us),
                 "%");
  report->Metric("storage.btree_lookups_per_q", delta("btree.lookups") / q,
                 "count");
  report->Metric("storage.btree_nodes_per_lookup",
                 Ratio(delta("btree.node_reads"), delta("btree.lookups")),
                 "count");
  report->Metric("storage.btree_lookup_us",
                 Ratio(span_sum_us("btree.lookup"),
                       delta("btree.lookup.count")),
                 "us");

  report->Metric("obs.bench_trace_overhead_pct",
                 100.0 * Ratio(replay.traced_us - replay.plain_us,
                               replay.plain_us),
                 "%");
  report->Metric("remainder_us", remainder_us, "us");

  std::printf(
      "%s attribution: client %.2f us = wire %.2f + parse %.2f + render %.2f "
      "+ output_fetch %.2f + find %.2f + remainder %.2f\n",
      w.name, client_us, wire_us, replay.parse_us, replay.render_us,
      replay.output_fetch_us, find_us, remainder_us);
  JsonValue& ctx = report->context();
  ctx.Set("traced_phase_s", Num(phase.seconds));
  ctx.Set("traced_requests", Num(q));
  ctx.Set("replay_requests", Num(static_cast<double>(replay.requests)));
  ctx.Set("replay_dropped_spans",
          Num(static_cast<double>(replay.dropped_spans)));
  return Status::OK();
}

void BuildMetrics(const Deployment& d, Report* report) {
  const fm::EtiBuildStats& build = d.matcher->build_stats();
  report->Metric("eti.build_scan_s", build.scan_seconds, "s");
  report->Metric("eti.build_merge_s", build.merge_seconds, "s");
  // The accelerator build of the last engine set up (a gauge).
  report->Metric(
      "eti.accel_build_s",
      fm::obs::MetricsRegistry::Global().GetGauge("eti_accel.build_seconds")
          ->value(),
      "s");
}

// ------------------------------------------------------------- workloads

void ContextBasics(const Workload& w, const Options& o, Report* report) {
  JsonValue& ctx = report->context();
  const fm::obs::BuildInfo& build = fm::obs::GetBuildInfo();
  ctx.Set("commit", JsonValue::String(o.commit));
  ctx.Set("nproc", Num(std::thread::hardware_concurrency()));
  ctx.Set("cpu_model", JsonValue::String(CpuModel()));
  ctx.Set("build_type", JsonValue::String(build.build_type));
  ctx.Set("failpoints", JsonValue::Bool(build.failpoints));
  ctx.Set("simd", JsonValue::String(
                      fm::SimdLevelName(fm::DetectSimdLevel())));
  ctx.Set("ref_rows", Num(static_cast<double>(w.ref_rows)));
  ctx.Set("pool_pages", Num(static_cast<double>(w.pool_pages)));
  ctx.Set("accel_bytes", Num(static_cast<double>(w.accel_bytes)));
  ctx.Set("tuple_cache_bytes", Num(static_cast<double>(w.tuple_cache_bytes)));
  ctx.Set("relation_seed", Num(static_cast<double>(kRelationSeed)));
  ctx.Set("clients", Num(static_cast<double>(kClients)));
  ctx.Set("seed", Num(static_cast<double>(o.seed)));
  ctx.Set("seconds", Num(o.seconds));
}

// Runs the timed set-up kSetups times (once when traced) and keeps the
// last deployment; reports setup_s as the median.
Result<std::unique_ptr<Deployment>> TimedSetUp(const Workload& w,
                                               const std::vector<Row>& rows,
                                               const Options& o,
                                               Report* report) {
  const size_t reps = o.trace ? 1 : kSetups;
  std::vector<double> seconds;
  std::unique_ptr<Deployment> d;
  for (size_t i = 0; i < reps; ++i) {
    if (d != nullptr) {
      const std::string old_dir = d->dir;
      d.reset();
      fs::remove_all(old_dir);
    }
    const Clock::time_point t0 = Clock::now();
    FM_ASSIGN_OR_RETURN(
        d, SetUp(w, rows, o.work_dir + "/setup" + std::to_string(i)));
    seconds.push_back(SecondsSince(t0));
  }
  JsonValue all = JsonValue::Array();
  for (const double s : seconds) all.Append(Num(s));
  report->context().Set("setup_runs_s", std::move(all));
  if (!o.trace) report->Metric("setup_s", Median(seconds), "s");
  return d;
}

std::vector<Row> GenerateRows(size_t count) {
  fm::CustomerGenOptions gen_options;
  gen_options.seed = kRelationSeed;
  gen_options.num_tuples = count;
  fm::CustomerGenerator generator(gen_options);
  std::vector<Row> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) rows.push_back(generator.NextRow());
  return rows;
}

void LatencyContext(const char* prefix, const Phase& p, Report* report) {
  std::vector<double> sorted = p.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  JsonValue& ctx = report->context();
  const std::string pre(prefix);
  ctx.Set(pre + "_s", Num(p.seconds));
  ctx.Set(pre + "_samples", Num(static_cast<double>(sorted.size())));
  ctx.Set(pre + "_p50_ms", Num(Quantile(sorted, 0.50)));
  ctx.Set(pre + "_p95_ms", Num(Quantile(sorted, 0.95)));
  ctx.Set(pre + "_p99_ms", Num(Quantile(sorted, 0.99)));
  ctx.Set(pre + "_p99_beyond",
          Num(static_cast<double>(SamplesBeyond(sorted.size(), 0.99))));
  ctx.Set(pre + "_p999_ms", Num(Quantile(sorted, 0.999)));
  ctx.Set(pre + "_p999_beyond",
          Num(static_cast<double>(SamplesBeyond(sorted.size(), 0.999))));
}

// The end-to-end metrics every workload reports; latencies ascending.
// Throughput comes from `rate_phase`.
void ReportEndToEnd(double rss_mib, const Phase& rate_phase,
                    const std::vector<double>& latency_ms, double recall,
                    Report* report) {
  const std::vector<double> rates = WindowRates(rate_phase);
  JsonValue all = JsonValue::Array();
  for (const double r : rates) all.Append(Num(r));
  report->context().Set("window_rates", std::move(all));
  report->Metric("rss_mb", rss_mib, "MiB");
  report->Metric("ops_per_s", Median(rates), "ops/s");
  report->Metric("p50_ms", Quantile(latency_ms, 0.50), "ms");
  report->Metric("p95_ms", Quantile(latency_ms, 0.95), "ms");
  report->Metric("recall_at_1", recall, "ratio");
  report->Metric("ok_frac",
                 1.0 - Ratio(static_cast<double>(report->failed()),
                             static_cast<double>(
                                 std::max<uint64_t>(report->attempted(), 1))),
                 "ratio");
}

// recovery_s (a traced-run metric): the median time to reopen the files
// until the matcher is ready to serve.
void ReportRecovery(const std::vector<double>& seconds, Report* report) {
  JsonValue all = JsonValue::Array();
  for (const double s : seconds) all.Append(Num(s));
  report->context().Set("recovery_runs_s", std::move(all));
  report->Metric("recovery_s", Median(seconds), "s");
}

// Checkpoints and closes a served deployment, then reopens its files
// `times` times; the last reopened engine must answer like the one it
// replaces. Returns the reopen times.
Result<std::vector<double>> Restart(const Workload& w,
                                    std::unique_ptr<Deployment> d,
                                    const Traffic& traffic, size_t times,
                                    Report* report) {
  d->server->Shutdown();
  FM_RETURN_IF_ERROR(d->db->Checkpoint());
  const std::string dir = d->dir;
  d.reset();
  std::vector<double> seconds;
  for (size_t r = 0; r < times; ++r) {
    const Clock::time_point t0 = Clock::now();
    FM_ASSIGN_OR_RETURN(auto reopened, Reopen(w, dir));
    seconds.push_back(SecondsSince(t0));
    if (r + 1 < times) continue;
    const fm::BatchCleaner cleaner(reopened->matcher.get(), {});
    for (size_t i = 0; i < std::min(kRestartChecks, traffic.dirty.size());
         ++i) {
      Result<fm::CleanResult> cleaned = cleaner.Clean(traffic.dirty[i]);
      std::string line =
          cleaned.ok() ? fm::server::RenderCleanResponse(i, *cleaned) : "";
      if (!line.empty()) line.pop_back();
      report->Check(line == traffic.expected[i],
                    "input " + std::to_string(i) +
                        ": answer changed across a restart");
    }
  }
  return seconds;
}

// hot and cold.
Status RunServed(const Workload& w, const Options& o, Report* report) {
  const std::vector<Row> rows = GenerateRows(w.ref_rows);
  fm::Rng input_rng(SubSeed(o.seed, kInputStream));
  std::vector<Tid> tids = SampleDistinct(w.ref_rows, w.inputs, input_rng);
  std::vector<const Row*> clean;
  for (const Tid tid : tids) clean.push_back(&rows[tid]);
  Traffic traffic =
      MakeTraffic(Corrupt(clean, SubSeed(o.seed, kInputStream + 100)), tids);

  FM_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                      TimedSetUp(w, rows, o, report));
  FM_ASSIGN_OR_RETURN(const Canonical canonical,
                      CanonicalPass(d->matcher.get(), &traffic));
  std::printf("%s digest %016llx over %zu canonical responses\n", w.name,
              static_cast<unsigned long long>(canonical.digest),
              traffic.expected.size());
  report->context().Set(
      "digest", JsonValue::String(std::to_string(canonical.digest)));

  if (o.trace) {
    BuildMetrics(*d, report);
    FM_RETURN_IF_ERROR(TracedLayers(w, d.get(), traffic, o, report));
    FM_ASSIGN_OR_RETURN(const std::vector<double> reopen_s,
                        Restart(w, std::move(d), traffic, w.reopens, report));
    ReportRecovery(reopen_s, report);
    return Status::OK();
  }

  const double half = o.seconds / 2;
  const Phase open = RunOpenLoop(d->server->port(), traffic, w.open_rate,
                                 half, SubSeed(o.seed, kOpenStream));
  const Phase closed = RunClosedLoop(d->server->port(), traffic, half,
                                     SubSeed(o.seed, kClosedStream));
  const double rss_mib = PeakRssMiB();
  for (const Phase* p : {&open, &closed}) {
    report->Attempt(p->scheduled);
    for (uint64_t i = 0; i < p->failed; ++i) {
      report->Fail(i == 0 ? p->first_failure : "served request");
    }
  }
  std::vector<double> sorted = open.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> late = open.wake_late_ms;
  std::sort(late.begin(), late.end());
  LatencyContext("open", open, report);
  LatencyContext("closed", closed, report);
  JsonValue& ctx = report->context();
  ctx.Set("open_rate", Num(w.open_rate));
  ctx.Set("open_sent_rate",
          Num(Ratio(static_cast<double>(open.ok + open.failed), half)));
  ctx.Set("generator_late_p50_ms", Num(Quantile(late, 0.5)));
  ctx.Set("generator_late_p99_ms", Num(Quantile(late, 0.99)));
  ctx.Set("generator_late_max_ms", Num(late.empty() ? 0.0 : late.back()));
  ctx.Set("backlogged_sends", Num(static_cast<double>(open.backlogged)));
  // The generator fell behind when its own wake-ups, not the server,
  // made sends late: then the latencies measure the client.
  const bool valid = Quantile(late, 0.99) < 1.0;
  ctx.Set("open_loop_valid", JsonValue::Bool(valid));
  if (!valid) {
    std::printf("%s warning: open-loop generator fell behind (p99 wake "
                "lateness %.3f ms); latencies are not valid\n",
                w.name, Quantile(late, 0.99));
  }

  FM_RETURN_IF_ERROR(Restart(w, std::move(d), traffic, 1, report).status());
  ReportEndToEnd(rss_mib, closed, sorted, canonical.recall_at_1, report);
  return Status::OK();
}

Status CopyImage(const std::string& from_db, const std::string& to_dir) {
  fs::create_directories(to_dir);
  std::error_code ec;
  fs::copy_file(from_db, to_dir + "/ref.fmdb",
                fs::copy_options::overwrite_existing, ec);
  if (!ec) {
    fs::copy_file(from_db + ".wal", to_dir + "/ref.fmdb.wal",
                  fs::copy_options::overwrite_existing, ec);
  }
  if (ec) return Status::IOError("copy crash image: " + ec.message());
  return Status::OK();
}

// Durable maintenance: kClients writers delete rows through the WAL
// (group commit), a crash image of the files is recovered, and every
// acknowledged delete plus a sample of the surviving rows is read back.
// Deletes only: a durable insert that splits a B-tree node has the WAL
// stamp its LSN over the node's leftmost child pointer (both live at page
// offset 12), so an insert mix corrupts lookups and would fail every run
// (benchmark/README.md, known defects).
Status RunDurable(const Workload& w, const Options& o, Report* report) {
  const std::vector<Row> rows = GenerateRows(w.ref_rows);
  fm::Rng op_rng(SubSeed(o.seed, kOpStream));
  const std::vector<Tid> victims =
      SampleDistinct(w.ref_rows, w.maint_ops, op_rng);

  // Read-back traffic: dirty versions of rows the writers leave alone.
  std::vector<bool> removed(w.ref_rows, false);
  for (const Tid tid : victims) removed[tid] = true;
  fm::Rng readback_rng(SubSeed(o.seed, kReadbackStream));
  std::vector<Tid> survivors;
  for (const Tid tid : SampleDistinct(w.ref_rows, w.inputs + w.maint_ops,
                                      readback_rng)) {
    if (!removed[tid] && survivors.size() < w.inputs) {
      survivors.push_back(tid);
    }
  }
  std::vector<const Row*> clean;
  for (const Tid tid : survivors) clean.push_back(&rows[tid]);
  Traffic traffic = MakeTraffic(
      Corrupt(clean, SubSeed(o.seed, kReadbackStream + 100)), survivors);

  FM_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                      TimedSetUp(w, rows, o, report));
  // Start the measured window from a truncated log.
  FM_RETURN_IF_ERROR(d->db->Checkpoint());

  const Snapshot before = Snapshot::Take();
  std::vector<uint8_t> acked(victims.size(), 0);
  std::vector<Phase> tallies(kClients);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> writers;
    for (size_t c = 0; c < kClients; ++c) {
      writers.emplace_back([&, c] {
        Phase& mine = tallies[c];
        for (size_t j; (j = next.fetch_add(1)) < victims.size();) {
          const Clock::time_point t0 = Clock::now();
          const Status status = d->matcher->RemoveReferenceTuple(victims[j]);
          const Clock::time_point done = Clock::now();
          mine.latency_ms.push_back(
              std::chrono::duration<double, std::milli>(done - t0).count());
          mine.done_s.push_back(
              std::chrono::duration<double>(done - start).count());
          ++mine.scheduled;
          if (status.ok()) {
            acked[j] = 1;
            ++mine.ok;
          } else {
            ++mine.failed;
            if (mine.first_failure.empty()) {
              mine.first_failure = "delete of tid " +
                                   std::to_string(victims[j]) + ": " +
                                   status.ToString();
            }
          }
        }
      });
    }
    for (std::thread& t : writers) t.join();
  }
  Phase writes;
  writes.seconds = SecondsSince(start);
  for (Phase& t : tallies) MergeInto(&writes, std::move(t));
  const Snapshot after = Snapshot::Take();
  const double rss_mib = PeakRssMiB();

  std::vector<double> sorted = writes.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const size_t ok_ops = writes.ok;
  report->Attempt(writes.scheduled);
  for (uint64_t i = 0; i < writes.failed; ++i) {
    report->Fail(i == 0 ? writes.first_failure : "durable delete");
  }

  const auto delta = [&](const std::string& key) {
    return after.Since(before, key);
  };
  const double n_ops = std::max<double>(1.0, static_cast<double>(ok_ops));
  JsonValue& ctx = report->context();
  ctx.Set("maint_ops", Num(static_cast<double>(victims.size())));
  ctx.Set("write_phase_s", Num(writes.seconds));
  ctx.Set("wal_commits", Num(delta("wal.commits")));
  ctx.Set("wal_fsyncs", Num(delta("wal.fsyncs")));

  // Crash image: the main file as it is (dirty pages unflushed) and the
  // log as fsynced, copied before any checkpoint.
  const std::string image = o.work_dir + "/image";
  FM_RETURN_IF_ERROR(CopyImage(d->db_path(), image));

  if (o.trace) {
    BuildMetrics(*d, report);
    report->Metric("eti.accel_invalidations_per_op",
                   delta("eti_accel.invalidations") / n_ops, "count");
    report->Metric("storage.wal_bytes_per_op",
                   delta("wal.bytes_written") / n_ops, "bytes");
    report->Metric("storage.wal_fsyncs_per_op", delta("wal.fsyncs") / n_ops,
                   "count");
    report->Metric("storage.wal_group_size_mean",
                   Ratio(delta("wal.group_commit_size.sum"),
                         delta("wal.group_commit_size.count")),
                   "count");
    report->Metric("storage.wal_undo_per_op",
                   delta("wal.undo_records") / n_ops, "count");
    report->Metric("storage.pages_written_per_op",
                   delta("pager.pages_written") / n_ops, "count");
    // The read path served over the live engine, whose accelerator
    // carries the writers' invalidations.
    FM_RETURN_IF_ERROR(CanonicalPass(d->matcher.get(), &traffic).status());
    FM_RETURN_IF_ERROR(TracedLayers(w, d.get(), traffic, o, report));
  }
  // What recovery must reproduce: the answers after a clean shutdown.
  d->server->Shutdown();
  FM_RETURN_IF_ERROR(d->db->Checkpoint());
  const std::string live_dir = d->dir;
  d.reset();
  std::vector<std::string> clean_restart;
  {
    FM_ASSIGN_OR_RETURN(auto reopened, Reopen(w, live_dir));
    FM_RETURN_IF_ERROR(
        CanonicalPass(reopened->matcher.get(), &traffic).status());
    clean_restart = traffic.expected;
  }
  fs::remove_all(live_dir);

  // Recovery: open the crash image (WAL replay) until ready to serve.
  std::vector<double> recovery_s;
  std::unique_ptr<Deployment> rec;
  fm::Wal::ReplayStats replay;
  for (size_t r = 0; r < (o.trace ? w.reopens : 1); ++r) {
    if (rec != nullptr) {
      const std::string old_dir = rec->dir;
      rec.reset();
      fs::remove_all(old_dir);
    }
    const std::string dir = o.work_dir + "/recovered" + std::to_string(r);
    FM_RETURN_IF_ERROR(CopyImage(image + "/ref.fmdb", dir));
    const Clock::time_point t0 = Clock::now();
    FM_ASSIGN_OR_RETURN(rec, Reopen(w, dir));
    recovery_s.push_back(SecondsSince(t0));
    replay = rec->db->replay_stats();
  }
  const uint64_t image_wal = fs::file_size(image + "/ref.fmdb.wal");
  fs::remove_all(image);
  ctx.Set("replay_pages", Num(static_cast<double>(replay.pages_applied)));
  ctx.Set("replay_commits", Num(static_cast<double>(replay.commits_applied)));
  ctx.Set("replay_wal_bytes", Num(static_cast<double>(image_wal)));

  // Every acknowledged delete is gone, every sampled survivor reads back
  // byte-equal, and the recovered engine answers like a clean restart.
  const fm::MatchSource* recovered = rec->matcher.get();
  for (size_t j = 0; j < victims.size(); ++j) {
    if (!acked[j]) continue;
    const Result<Row> row = recovered->GetReferenceTuple(victims[j]);
    report->Check(!row.ok() && row.status().IsNotFound(),
                  "acknowledged delete of tid " + std::to_string(victims[j]) +
                      " is visible after recovery");
  }
  // The default aggressive bound policy is lossy: a few clean rows do not
  // retrieve themselves at 1.0 even without maintenance, so self-matches
  // are counted, not gated.
  size_t self_below_one = 0;
  for (const Tid tid : survivors) {
    const Result<Row> row = recovered->GetReferenceTuple(tid);
    report->Check(row.ok() && *row == rows[tid],
                  "row " + std::to_string(tid) +
                      " does not read back after recovery");
    const Result<std::vector<fm::Match>> self =
        recovered->FindMatches(rows[tid]);
    report->Check(self.ok(), "self-match of row " + std::to_string(tid) +
                                 " failed after recovery");
    if (self.ok() && (self->empty() || (*self)[0].similarity < 1.0)) {
      ++self_below_one;
    }
  }
  ctx.Set("self_match_below_1", Num(static_cast<double>(self_below_one)));
  FM_ASSIGN_OR_RETURN(const Canonical canonical,
                      CanonicalPass(recovered, &traffic));
  for (size_t i = 0; i < traffic.expected.size(); ++i) {
    report->Check(traffic.expected[i] == clean_restart[i],
                  "read-back input " + std::to_string(i) +
                      ": recovered answer differs from a clean restart's");
  }
  std::printf("%s digest %016llx over %zu read-back responses\n", w.name,
              static_cast<unsigned long long>(canonical.digest),
              traffic.expected.size());
  ctx.Set("digest", JsonValue::String(std::to_string(canonical.digest)));

  if (o.trace) {
    ReportRecovery(recovery_s, report);
    report->Metric("storage.replay_pages",
                   static_cast<double>(replay.pages_applied), "count");
    report->Metric("storage.replay_mb_per_s",
                   Ratio(static_cast<double>(image_wal) / 1e6, replay.seconds),
                   "MB/s");
    return Status::OK();
  }
  LatencyContext("writes", writes, report);
  ReportEndToEnd(rss_mib, writes, sorted, canonical.recall_at_1, report);
  return Status::OK();
}

// Zero-valued per-layer metrics of layers a workload does not exercise,
// so every traced run reports the full declared set.
void FillAbsentLayers(Report* report, const Workload& w) {
  if (w.durable) return;
  report->Metric("eti.accel_invalidations_per_op", 0.0, "count");
  report->Metric("storage.wal_bytes_per_op", 0.0, "bytes");
  report->Metric("storage.wal_fsyncs_per_op", 0.0, "count");
  report->Metric("storage.wal_group_size_mean", 0.0, "count");
  report->Metric("storage.wal_undo_per_op", 0.0, "count");
  report->Metric("storage.pages_written_per_op", 0.0, "count");
  report->Metric("storage.replay_pages", 0.0, "count");
  report->Metric("storage.replay_mb_per_s", 0.0, "MB/s");
}

int Main(int argc, char** argv) {
  Result<Options> parsed = ParseOptions(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "fmbench: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Options& o = *parsed;
  const Workload* spec = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "fmbench: unknown workload %s\n",
                 o.workload.c_str());
    return 2;
  }
  const Workload w = Scaled(*spec, o.quick);

  std::error_code ec;
  fs::remove_all(o.work_dir, ec);
  fs::create_directories(o.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "fmbench: cannot create %s: %s\n",
                 o.work_dir.c_str(), ec.message().c_str());
    return 1;
  }
  Report report;
  ContextBasics(w, o, &report);
  const Status status =
      w.durable ? RunDurable(w, o, &report) : RunServed(w, o, &report);
  fs::remove_all(o.work_dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "fmbench: %s: %s\n", w.name,
                 status.ToString().c_str());
    return 1;
  }
  if (o.trace) FillAbsentLayers(&report, w);
  report.Print(w.name, o);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
