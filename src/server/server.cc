#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"
#include "obs/trace.h"
#include "server/json.h"

namespace fuzzymatch {
namespace server {

namespace {

/// Writes the whole buffer, riding out EINTR and partial writes.
/// MSG_NOSIGNAL turns a dead peer into an error instead of SIGPIPE.
bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // peer gone or write timeout
  }
  return true;
}

void SetSocketTimeout(int fd, int optname, int timeout_ms) {
  if (timeout_ms <= 0) {
    return;
  }
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// Backend Status failures surfaced to clients as typed error responses
// (distinct from malformed-request errors, which clients must not retry).
obs::Counter& QueryErrorsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("server.query_errors");
  return *c;
}

}  // namespace

MatchServer::MatchServer(const FuzzyMatcher* matcher,
                         BatchCleaner::Options clean_options,
                         ServerOptions options)
    : matcher_(matcher),
      cleaner_(matcher, clean_options),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {}

MatchServer::~MatchServer() { Shutdown(); }

Status MatchServer::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  if (options_.workers == 0) {
    return Status::InvalidArgument("server needs at least one worker");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Errno("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status s = Errno("bind " + options_.host);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    const Status s = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) != 0) {
    const Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  started_.store(true, std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("server.workers")->Set(static_cast<double>(options_.workers));
  reg.GetGauge("server.queue_capacity")
      ->Set(static_cast<double>(options_.queue_capacity));

  // Size the flight recorder to this deployment before traffic arrives.
  {
    obs::FlightRecorder::Options rec =
        obs::FlightRecorder::Global().options();
    if (options_.slow_trace_ms > 0) {
      rec.slow_threshold_seconds =
          static_cast<double>(options_.slow_trace_ms) * 1e-3;
    }
    if (options_.recorder_capacity > 0) {
      rec.recent_capacity = options_.recorder_capacity;
      rec.outlier_capacity = options_.recorder_capacity;
    }
    obs::FlightRecorder::Global().Configure(rec);
  }

  worker_state_.clear();
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    worker_state_.push_back(std::make_unique<WorkerState>());
  }
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MatchServer::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  // Unblocks accept(2). shutdown(2) is async-signal-safe, so this whole
  // method may run inside a SIGTERM handler.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
}

void MatchServer::Shutdown() {
  if (!started_.load(std::memory_order_acquire) ||
      shut_down_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  RequestStop();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }

  // Stop reading new requests on every live connection. In-flight
  // requests still complete: the workers stay up until all connection
  // threads (each possibly blocked on a reply future) have exited.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) {
        break;
      }
      conn = std::move(conns_.front());
      conns_.pop_front();
    }
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
    ::close(conn->fd);
  }

  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  workers_.clear();

  // Every acknowledged response is flushed; now make the backing store
  // durable (group-commit + fsync the WAL) before the process exits.
  if (options_.drain_flush) {
    const Status flushed = options_.drain_flush();
    if (!flushed.ok()) {
      FM_LOG(Warning) << "drain flush on shutdown failed: " << flushed;
    }
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  obs::MetricsRegistry::Global().GetGauge("server.active_connections")->Set(0);
}

void MatchServer::ReapConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection* conn = it->get();
    if (conn->done.load(std::memory_order_acquire)) {
      if (conn->thread.joinable()) {
        conn->thread.join();
      }
      ::close(conn->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void MatchServer::AcceptLoop() {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* accepted = reg.GetCounter("server.connections_accepted");
  obs::Counter* refused = reg.GetCounter("server.connections_refused");

  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      // Listener shut down (RequestStop) or broken: stop accepting.
      break;
    }
    ReapConnections();
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      refused->Increment();
      WriteAll(fd, RenderErrorResponse("overloaded", /*shed=*/true));
      ::close(fd);
      continue;
    }
    SetSocketTimeout(fd, SO_RCVTIMEO, options_.idle_timeout_ms);
    SetSocketTimeout(fd, SO_SNDTIMEO, options_.write_timeout_ms);

    accepted->Increment();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ConnectionLoop(raw); });
  }
}

void MatchServer::ConnectionLoop(Connection* conn) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Gauge* active = reg.GetGauge("server.active_connections");
  obs::Gauge* queue_depth = reg.GetGauge("server.queue_depth");
  obs::Counter* requests = reg.GetCounter("server.requests");
  obs::Counter* responses = reg.GetCounter("server.responses");
  obs::Counter* shed = reg.GetCounter("server.shed_requests");
  obs::Counter* parse_errors = reg.GetCounter("server.parse_errors");

  active->Set(static_cast<double>(
      active_connections_.fetch_add(1, std::memory_order_relaxed) + 1));

  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    // Assemble the next request line.
    size_t nl;
    while ((nl = buffer.find('\n')) == std::string::npos) {
      if (buffer.size() > options_.max_line_bytes) {
        WriteAll(conn->fd, RenderErrorResponse("request line too long"));
        open = false;
        break;
      }
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      // 0 = peer closed (or our SHUT_RD during drain); EAGAIN/EWOULDBLOCK
      // = idle timeout. Either way the connection is done.
      open = false;
      break;
    }
    if (!open) {
      break;
    }

    const std::string line = buffer.substr(0, nl);
    buffer.erase(0, nl + 1);

    auto parsed = ParseRequest(line);
    if (!parsed.ok()) {
      parse_errors->Increment();
      if (!WriteAll(conn->fd, RenderErrorResponse(parsed.status().message()))) {
        break;
      }
      continue;
    }
    Request& request = *parsed;

    // Control ops answer inline: they must stay responsive while the
    // worker pool is saturated.
    if (request.op == Request::Op::kPing) {
      if (!WriteAll(conn->fd, RenderPingResponse(request.id))) break;
      continue;
    }
    if (request.op == Request::Op::kMetrics) {
      std::string text = obs::MetricsRegistry::Global().RenderText();
      text.append(kMetricsEndMarker);
      text.push_back('\n');
      if (!WriteAll(conn->fd, text)) break;
      continue;
    }
    if (request.op == Request::Op::kStatusz) {
      if (!WriteAll(conn->fd, HandleStatusz())) break;
      continue;
    }
    if (request.op == Request::Op::kTracez) {
      if (!WriteAll(conn->fd, HandleTracez(request))) break;
      continue;
    }
    if (request.op == Request::Op::kRebuild) {
      // Inline on purpose: the rebuild is long-running and the worker
      // pool must keep serving match/clean traffic while it runs.
      if (!WriteAll(conn->fd, HandleRebuild())) break;
      continue;
    }
    if (request.op == Request::Op::kQuit) {
      WriteAll(conn->fd, "{\"ok\":true,\"op\":\"quit\"}\n");
      break;
    }

    // match / clean: admission control, then hand off to the pool. The
    // request id is minted here, at the boundary, so a shed request is
    // attributable too (its id simply never reaches the recorder).
    requests->Increment();
    requests_received_.fetch_add(1, std::memory_order_relaxed);

    WorkItem item;
    item.request = std::move(request);
    item.request_id = obs::NextRequestId();
    std::future<std::string> reply = item.reply.get_future();
    if (!queue_.TryPush(&item)) {
      shed->Increment();
      shed_requests_.fetch_add(1, std::memory_order_relaxed);
      if (!WriteAll(conn->fd, RenderErrorResponse("overloaded", true))) {
        break;
      }
      continue;
    }
    queue_depth->Set(static_cast<double>(queue_.size()));
    // One outstanding request per connection: blocking here is what keeps
    // responses ordered. The item lives on this stack; the wait below is
    // what makes that safe.
    const std::string response = reply.get();
    responses->Increment();
    responses_sent_.fetch_add(1, std::memory_order_relaxed);
    if (!WriteAll(conn->fd, response)) {
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      break;  // drain: last response flushed, close out
    }
  }

  active->Set(static_cast<double>(
      active_connections_.fetch_sub(1, std::memory_order_relaxed) - 1));
  // The fd stays open until ReapConnections/Shutdown joins us; shut it
  // down now so the peer sees EOF promptly.
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

void MatchServer::WorkerLoop(size_t worker_index) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Gauge* busy = reg.GetGauge("server.busy_workers");
  obs::Histogram* latency = reg.GetHistogram(
      "server.request_seconds", obs::LatencyHistogramOptions());
  WorkerState& state = *worker_state_[worker_index];

  WorkItem* item = nullptr;
  while (queue_.Pop(&item)) {
    busy->Set(static_cast<double>(
        busy_workers_.fetch_add(1, std::memory_order_relaxed) + 1));
    const auto start = std::chrono::steady_clock::now();
    state.request_id.store(item->request_id, std::memory_order_relaxed);
    state.start_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
    state.busy.store(true, std::memory_order_release);
    if (options_.handler_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.handler_delay_ms));
    }
    std::string response;
    {
      // The request's trace context: every span and count below this
      // frame — matcher, ETI, B-tree, buffer pool, pager — lands in this
      // request's tree, keyed by the id minted at the connection.
      std::optional<obs::RequestTrace> trace;
      if (obs::TracingEnabled()) {
        trace.emplace(
            item->request.op == Request::Op::kClean ? "clean" : "match",
            item->request_id, &obs::FlightRecorder::Global());
      }
      response = HandleQuery(item->request);
    }
    latency->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
    state.busy.store(false, std::memory_order_release);
    item->reply.set_value(std::move(response));
    busy->Set(static_cast<double>(
        busy_workers_.fetch_sub(1, std::memory_order_relaxed) - 1));
  }
}

std::string MatchServer::HandleQuery(const Request& request) {
  FM_TRACE_SPAN("server.handle_query");
  const size_t want = matcher_->reference().schema().num_columns();
  if (request.row.size() != want) {
    return RenderErrorResponse(StringPrintf(
        "row arity %zu does not match reference arity %zu",
        request.row.size(), want));
  }
  switch (request.op) {
    case Request::Op::kMatch:
      return HandleMatch(request);
    case Request::Op::kClean:
      return HandleClean(request);
    default:
      return RenderErrorResponse("internal: non-query op reached the pool");
  }
}

std::string MatchServer::HandleMatch(const Request& request) {
  auto matches = matcher_->FindMatches(request.row);
  if (!matches.ok()) {
    QueryErrorsCounter().Increment();
    return RenderStatusResponse(matches.status());
  }
  std::vector<MatchWithRow> enriched;
  enriched.reserve(matches->size());
  for (const Match& m : *matches) {
    auto row = matcher_->GetReferenceTuple(m.tid);
    if (!row.ok()) {
      QueryErrorsCounter().Increment();
      // This fetch is outside the matcher's boundary; stamp the trace
      // directly so the failed request is retained with its status.
      if (obs::RequestTrace* trace = obs::RequestTrace::Current()) {
        trace->SetStatus(row.status());
      }
      return RenderStatusResponse(row.status());
    }
    enriched.push_back(MatchWithRow{m, *std::move(row)});
  }
  return RenderMatchResponse(request.id, enriched);
}

std::string MatchServer::HandleClean(const Request& request) {
  auto result = cleaner_.Clean(request.row);
  if (!result.ok()) {
    QueryErrorsCounter().Increment();
    return RenderStatusResponse(result.status());
  }
  return RenderCleanResponse(request.id, *result);
}

std::string MatchServer::HandleStatusz() const {
  auto& reg = obs::MetricsRegistry::Global();
  const auto now = std::chrono::steady_clock::now();
  const obs::ProcessStats proc = obs::UpdateProcessMetrics();
  const obs::BuildInfo& build = obs::GetBuildInfo();
  const obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const obs::FlightRecorder::Stats rec_stats = recorder.GetStats();

  JsonValue obj = JsonValue::Object();
  obj.Set("ok", JsonValue::Bool(true));
  obj.Set("op", JsonValue::String("statusz"));
  obj.Set("uptime_seconds",
          JsonValue::Number(
              std::chrono::duration<double>(now - start_time_).count()));

  JsonValue build_obj = JsonValue::Object();
  build_obj.Set("version", JsonValue::String(build.version));
  build_obj.Set("build_type", JsonValue::String(build.build_type));
  build_obj.Set("compiler", JsonValue::String(build.compiler));
  build_obj.Set("failpoints", JsonValue::Bool(build.failpoints));
  obj.Set("build", std::move(build_obj));

  obj.Set("tracing_enabled", JsonValue::Bool(obs::TracingEnabled()));

  JsonValue workers = JsonValue::Array();
  for (const auto& state : worker_state_) {
    JsonValue w = JsonValue::Object();
    const bool busy = state->busy.load(std::memory_order_acquire);
    w.Set("busy", JsonValue::Bool(busy));
    if (busy) {
      w.Set("request_id",
            JsonValue::Number(static_cast<double>(
                state->request_id.load(std::memory_order_relaxed))));
      const int64_t start_ns =
          state->start_ns.load(std::memory_order_relaxed);
      const int64_t now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now.time_since_epoch())
              .count();
      w.Set("age_ms", JsonValue::Number(
                          static_cast<double>(now_ns - start_ns) * 1e-6));
    }
    workers.Append(std::move(w));
  }
  obj.Set("workers", std::move(workers));

  JsonValue queue = JsonValue::Object();
  queue.Set("depth", JsonValue::Number(static_cast<double>(queue_.size())));
  queue.Set("capacity",
            JsonValue::Number(static_cast<double>(queue_.capacity())));
  obj.Set("queue", std::move(queue));

  JsonValue conns = JsonValue::Object();
  conns.Set("active", JsonValue::Number(
                          static_cast<double>(active_connections())));
  conns.Set("max", JsonValue::Number(
                       static_cast<double>(options_.max_connections)));
  obj.Set("connections", std::move(conns));

  JsonValue counters = JsonValue::Object();
  counters.Set("requests", JsonValue::Number(
                               static_cast<double>(requests_received())));
  counters.Set("responses",
               JsonValue::Number(static_cast<double>(responses_sent())));
  counters.Set("shed", JsonValue::Number(
                           static_cast<double>(shed_requests())));
  counters.Set("query_errors",
               JsonValue::Number(static_cast<double>(
                   QueryErrorsCounter().value())));
  counters.Set("parse_errors",
               JsonValue::Number(static_cast<double>(
                   reg.GetCounter("server.parse_errors")->value())));
  obj.Set("counters", std::move(counters));

  JsonValue accel_obj = JsonValue::Object();
  const EtiAccel* accel = matcher_->eti().accelerator();
  accel_obj.Set("present", JsonValue::Bool(accel != nullptr));
  if (accel != nullptr) {
    accel_obj.Set("complete", JsonValue::Bool(accel->complete()));
    accel_obj.Set("entries", JsonValue::Number(
                                 static_cast<double>(accel->entry_count())));
    accel_obj.Set("bytes", JsonValue::Number(
                               static_cast<double>(accel->memory_bytes())));
  }
  obj.Set("accel", std::move(accel_obj));

  JsonValue cache_obj = JsonValue::Object();
  const TupleCache& cache = matcher_->eti_matcher().tuple_cache();
  cache_obj.Set("enabled", JsonValue::Bool(cache.enabled()));
  if (cache.enabled()) {
    cache_obj.Set("entries", JsonValue::Number(
                                 static_cast<double>(cache.entry_count())));
    cache_obj.Set("bytes", JsonValue::Number(
                               static_cast<double>(cache.memory_bytes())));
  }
  obj.Set("tuple_cache", std::move(cache_obj));

  JsonValue rec_obj = JsonValue::Object();
  rec_obj.Set("recorded", JsonValue::Number(
                              static_cast<double>(rec_stats.recorded)));
  rec_obj.Set("slow",
              JsonValue::Number(static_cast<double>(rec_stats.slow)));
  rec_obj.Set("errors",
              JsonValue::Number(static_cast<double>(rec_stats.errors)));
  rec_obj.Set("retained",
              JsonValue::Number(static_cast<double>(rec_stats.retained)));
  rec_obj.Set("slow_threshold_ms",
              JsonValue::Number(
                  recorder.options().slow_threshold_seconds * 1e3));
  obj.Set("recorder", std::move(rec_obj));

  JsonValue proc_obj = JsonValue::Object();
  proc_obj.Set("rss_bytes", JsonValue::Number(
                                static_cast<double>(proc.rss_bytes)));
  proc_obj.Set("open_fds", JsonValue::Number(
                               static_cast<double>(proc.open_fds)));
  proc_obj.Set("uptime_seconds", JsonValue::Number(proc.uptime_seconds));
  obj.Set("process", std::move(proc_obj));

  return obj.Dump() + "\n";
}

std::string MatchServer::HandleTracez(const Request& request) const {
  // The recorder renders its own JSON (fm_obs cannot use server/json.h);
  // wrap it in the protocol's response envelope.
  std::string out = "{\"ok\":true,\"op\":\"tracez\",\"recorder\":";
  out += obs::FlightRecorder::Global().RenderJson(
      request.limit.has_value() ? static_cast<size_t>(*request.limit) : 32);
  out += "}\n";
  return out;
}

std::string MatchServer::HandleRebuild() {
  if (!options_.rebuild_handler) {
    return RenderStatusResponse(
        Status::NotSupported("this server has no rebuild handler"));
  }
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  const Result<EtiRebuildStats> rebuilt = options_.rebuild_handler();
  if (!rebuilt.ok()) {
    return RenderStatusResponse(rebuilt.status());
  }
  JsonValue obj = JsonValue::Object();
  obj.Set("ok", JsonValue::Bool(true));
  obj.Set("op", JsonValue::String("rebuild"));
  obj.Set("eti_rows", JsonValue::Number(
                          static_cast<double>(rebuilt->build.eti_rows)));
  obj.Set("side_ops_replayed",
          JsonValue::Number(static_cast<double>(rebuilt->side_ops_replayed)));
  obj.Set("build_seconds", JsonValue::Number(rebuilt->build.total_seconds));
  obj.Set("total_seconds", JsonValue::Number(rebuilt->total_seconds));
  return obj.Dump() + "\n";
}

}  // namespace server
}  // namespace fuzzymatch
