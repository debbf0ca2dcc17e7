#include "net/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <system_error>
#include <utility>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace appstore::net {

namespace {

constexpr std::string_view kComponent = "http";

constexpr std::string_view kStatusClasses[5] = {"1xx", "2xx", "3xx", "4xx", "5xx"};

constexpr std::string_view kShedReasons[3] = {"accept", "queue", "admission"};

/// status -> 0..4 (status/100 - 1); out-of-range statuses count as 5xx.
[[nodiscard]] std::size_t status_class(int status) noexcept {
  const int band = status / 100 - 1;
  return band < 0 || band > 4 ? 4 : static_cast<std::size_t>(band);
}

[[nodiscard]] std::size_t default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(8, std::max<std::size_t>(2, hw));
}

/// The response a kHttp* fault synthesizes (no network involved).
[[nodiscard]] HttpResponse synthetic_response(chaos::FaultKind kind) {
  switch (kind) {
    case chaos::FaultKind::kHttp429: {
      HttpResponse response = HttpResponse::text(429, "injected rate limit");
      response.reason = "Too Many Requests";
      response.headers["Retry-After"] = "1";
      return response;
    }
    case chaos::FaultKind::kHttp403: {
      HttpResponse response = HttpResponse::text(403, "injected region block");
      response.reason = "Forbidden";
      return response;
    }
    default: {
      HttpResponse response = HttpResponse::text(500, "injected server error");
      response.reason = "Internal Server Error";
      return response;
    }
  }
}

/// Connect-site seam shared by both clients: kConnectRefused fails like a
/// closed port, kLatency delays the handshake.
void apply_connect_fault(const ClientOptions& options, const std::string& host,
                         std::uint16_t port) {
  if (options.faults == nullptr) return;
  const chaos::Fault fault = options.faults->next(
      chaos::FaultSite::kConnect, host + ":" + std::to_string(port));
  if (fault.kind == chaos::FaultKind::kConnectRefused) {
    throw std::system_error(ECONNREFUSED, std::generic_category(),
                            "injected connect refusal to " + host);
  }
  if (fault.kind == chaos::FaultKind::kLatency) {
    chaos::sleep_or_real(options.clock, fault.latency);
  }
}

/// Exchange-site seam shared by both clients, decided before any network
/// work. Returns a synthetic response for kHttp* faults, throws for
/// kConnectionReset (after running `on_reset`, e.g. dropping a persistent
/// connection), sleeps for kLatency, and returns nullopt to proceed.
template <typename OnReset>
[[nodiscard]] std::optional<HttpResponse> apply_exchange_fault(
    const ClientOptions& options, const std::string& target, OnReset&& on_reset) {
  if (options.faults == nullptr) return std::nullopt;
  const chaos::Fault fault = options.faults->next(chaos::FaultSite::kExchange, target);
  switch (fault.kind) {
    case chaos::FaultKind::kConnectionReset:
      on_reset();
      throw std::system_error(ECONNRESET, std::generic_category(),
                              "injected connection reset on " + target);
    case chaos::FaultKind::kLatency:
      chaos::sleep_or_real(options.clock, fault.latency);
      return std::nullopt;
    case chaos::FaultKind::kHttp429:
    case chaos::FaultKind::kHttp403:
    case chaos::FaultKind::kHttp500:
      return synthetic_response(fault.kind);
    default:
      return std::nullopt;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

HttpServer::HttpServer(ServerOptions options, Handler handler)
    : listener_(options.port), handler_(std::move(handler)), options_(options) {
  if (options_.metrics != nullptr) {
    obs::Registry& registry = *options_.metrics;
    registry.describe("http_requests_total", "Responses by status class");
    registry.describe("http_request_seconds", "Handler + write latency by status class");
    registry.describe("http_accepted_total", "Accepted connections");
    registry.describe("http_shed_total", "Connections refused with 503 (load shedding)");
    registry.describe("server_shed_total", "Load-shed connections by layer");
    registry.describe("http_active_connections", "Connections currently being served");
    registry.describe("server_queue_depth", "Readable connections awaiting a worker");
    registry.describe("server_queue_wait_seconds", "Time spent in the ready queue");
    registry.describe("server_workers_busy", "Worker threads currently serving a request");
    for (std::size_t i = 0; i < 5; ++i) {
      metrics_.requests_by_class[i] = &registry.counter("http_requests_total", kStatusClasses[i]);
      metrics_.latency_by_class[i] =
          &registry.histogram("http_request_seconds", kStatusClasses[i]);
    }
    metrics_.accepted = &registry.counter("http_accepted_total");
    metrics_.shed = &registry.counter("http_shed_total");
    for (std::size_t i = 0; i < 3; ++i) {
      metrics_.shed_by_reason[i] = &registry.counter("server_shed_total", kShedReasons[i]);
    }
    metrics_.active = &registry.gauge("http_active_connections");
    metrics_.queue_depth = &registry.gauge("server_queue_depth");
    metrics_.queue_wait = &registry.histogram("server_queue_wait_seconds");
    metrics_.workers_busy = &registry.gauge("server_workers_busy");
  }

  // The admission controller fronts the ready queue: its ceiling IS the
  // queue capacity (one knob), and it reports into the server's registry
  // unless the caller wired its own.
  AdmissionOptions admission = options_.admission;
  admission.limit_ceiling = options_.queue_capacity;
  if (admission.metrics == nullptr) admission.metrics = options_.metrics;
  admission_ = std::make_unique<AdmissionController>(admission);

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "HttpServer: pipe");
  }
  set_nonblocking(pipe_fds[0]);
  set_nonblocking(pipe_fds[1]);
  wake_read_ = FileDescriptor(pipe_fds[0]);
  wake_write_ = FileDescriptor(pipe_fds[1]);

  const std::size_t worker_count =
      options_.worker_threads > 0 ? options_.worker_threads : default_worker_count();
  worker_fds_ = std::make_unique<std::atomic<int>[]>(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) worker_fds_[i].store(-1);
  kick_fds_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    kick_fds_.emplace_back(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!kick_fds_.back().valid()) {
      throw std::system_error(errno, std::generic_category(), "HttpServer: eventfd");
    }
  }
  parked_.reserve(worker_count);
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  util::log_info(kComponent,
                 "listening on 127.0.0.1:{} (worker pool: {} workers, queue {}, max {} "
                 "connections)",
                 listener_.port(), worker_count, options_.queue_capacity,
                 options_.max_connections);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  // 1. Parked workers close their connections (running_ is false); a worker
  //    about to park sees running_ under the same lock and closes instead.
  //    The dispatcher closes every idle connection and exits — nothing new
  //    reaches the ready queue.
  {
    const std::lock_guard lock(queue_mutex_);
    for (const std::size_t index : parked_) kick_locked(index);
    parked_.clear();
  }
  wake_dispatcher();
  if (dispatcher_.joinable()) dispatcher_.join();
  listener_.close();
  // 2. Workers drain whatever is already in the ready queue (responses carry
  //    "Connection: close" because running_ is false) and exit once it is
  //    empty.
  {
    const std::lock_guard lock(queue_mutex_);
    workers_stopping_ = true;
  }
  queue_cv_.notify_all();
  // Unblock any worker parked in recv() waiting out a slow request head.
  const std::size_t worker_count = workers_.size();
  for (std::size_t i = 0; i < worker_count; ++i) {
    const int fd = worker_fds_[i].load(std::memory_order_acquire);
    if (fd >= 0) (void)::shutdown(fd, SHUT_RD);
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // 3. Connections handed back after the dispatcher exited just close.
  const std::lock_guard lock(returned_mutex_);
  returned_.clear();
}

void HttpServer::shed_connection(TcpStream stream, ShedReason reason) {
  // Load shedding: tell the client explicitly rather than slamming the
  // connection shut — a bare close looks like a transport failure and
  // makes well-behaved clients retry immediately; a 503 lets them back
  // off. Best-effort: a client that already hung up just loses the write.
  ++connections_shed_;
  if (metrics_.shed != nullptr) metrics_.shed->inc();
  const auto reason_index = static_cast<std::size_t>(reason);
  if (metrics_.shed_by_reason[reason_index] != nullptr) {
    metrics_.shed_by_reason[reason_index]->inc();
  }
  // Retry-After reflects the smoothed queue wait the controller measured
  // (floor 1 s), so a client that honors it returns after roughly one queue
  // drain instead of hammering a still-deep backlog.
  const int retry_after = admission_->retry_after_seconds();
  try {
    stream.set_timeout(std::chrono::milliseconds(250));
    HttpResponse response;
    response.status = 503;
    response.reason = "Service Unavailable";
    response.body = options_.shed_body;
    response.headers["Content-Type"] = options_.shed_content_type;
    response.headers["Connection"] = "close";
    response.headers["Retry-After"] = std::to_string(retry_after);
    response.headers["X-Shed-Reason"] = std::string(kShedReasons[reason_index]);
    stream.write_all(response.serialize());
  } catch (const std::exception&) {
    // The shed response is advisory; dropping it is fine.
  }
}

// ---- request path -----------------------------------------------------------

HttpServer::RequestOutcome HttpServer::serve_one(const HttpRequest& request,
                                                 PendingWrites& pending) {
  // Server-side chaos seam: decided after parsing, before the handler.
  std::optional<HttpResponse> injected;
  if (options_.faults != nullptr) {
    const chaos::Fault fault = options_.faults->next(chaos::FaultSite::kServer, request.target);
    switch (fault.kind) {
      case chaos::FaultKind::kConnectionReset:
        return RequestOutcome::kDropped;  // abrupt close: client sees a dead conn
      case chaos::FaultKind::kLatency:
        chaos::sleep_or_real(options_.clock, fault.latency);
        break;
      case chaos::FaultKind::kHttp429:
      case chaos::FaultKind::kHttp403:
      case chaos::FaultKind::kHttp500:
        injected = synthetic_response(fault.kind);
        break;
      default:
        break;
    }
  }

  const auto handle_start = std::chrono::steady_clock::now();
  HttpResponse response;
  if (injected.has_value()) {
    response = std::move(*injected);
  } else {
    try {
      response = handler_(request);
    } catch (const std::exception& error) {
      util::log_warn(kComponent, "handler threw: {}", error.what());
      response = HttpResponse::text(500, "internal error");
    }
  }
  const bool client_close = [&] {
    const auto it = request.headers.find("Connection");
    return it != request.headers.end() && util::equals_ci(it->second, "close");
  }();
  // Graceful drain: requests already admitted when stop() began are still
  // served, but their response tells the client not to reuse the connection.
  const bool close_requested = client_close || !running_.load(std::memory_order_relaxed);
  if (close_requested) response.headers["Connection"] = "close";
  // Count before writing: a client that has the response must observe
  // the incremented counter.
  ++requests_served_;
  const std::size_t band = status_class(response.status);
  if (metrics_.requests_by_class[band] != nullptr) {
    metrics_.requests_by_class[band]->inc();
    pending.timings.emplace_back(band, handle_start);
  }
  response.serialize_into(pending.bytes);
  return close_requested ? RequestOutcome::kClose : RequestOutcome::kKeepAlive;
}

void HttpServer::flush(TcpStream& stream, PendingWrites& pending) {
  if (pending.bytes.empty()) return;
  stream.write_all(pending.bytes);
  pending.bytes.clear();
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [band, start] : pending.timings) {
    metrics_.latency_by_class[band]->observe(std::chrono::duration<double>(now - start).count());
  }
  pending.timings.clear();
}

// ---- connections and threads ------------------------------------------------

void HttpServer::wake_dispatcher() noexcept {
  const char byte = 1;
  (void)::write(wake_write_.get(), &byte, 1);  // nonblocking; a full pipe is fine
}

void HttpServer::kick_locked(std::size_t index) noexcept {
  const std::uint64_t one = 1;
  (void)::write(kick_fds_[index].get(), &one, sizeof one);
}

void HttpServer::release(std::unique_ptr<Conn> conn) noexcept {
  conn.reset();
  admitted_.fetch_sub(1, std::memory_order_relaxed);
  if (metrics_.active != nullptr) metrics_.active->sub(1.0);
}

void HttpServer::enqueue_ready(std::unique_ptr<Conn> conn,
                               std::chrono::steady_clock::time_point now) {
  AdmissionDecision decision = AdmissionDecision::kAdmit;
  {
    const std::lock_guard lock(queue_mutex_);
    decision = admission_->admit(ready_.size());
    if (decision == AdmissionDecision::kAdmit) {
      conn->queued_at = now;
      ready_.push_back(std::move(conn));
      if (metrics_.queue_depth != nullptr) metrics_.queue_depth->add(1.0);
      // More queued connections than waiting workers: the rest would sit
      // behind parked workers' idle timeouts, so free the longest parked.
      if (ready_.size() > waiting_workers_ && !parked_.empty()) {
        kick_locked(parked_.front());
        parked_.erase(parked_.begin());
      }
    }
  }
  if (decision != AdmissionDecision::kAdmit) {
    // Queue-level shed: the connection is readable but either the queue hit
    // its hard ceiling or the adaptive limit says the backlog's delay is
    // already past target; answering 503 now beats an unbounded (or merely
    // slow) backlog. The 503 is written outside queue_mutex_ so a slow shed
    // client cannot stall the workers.
    shed_connection(std::move(conn->stream),
                    decision == AdmissionDecision::kQueueFull ? ShedReason::kQueue
                                                              : ShedReason::kAdmission);
    release(std::move(conn));
    return;
  }
  queue_cv_.notify_one();
}

void HttpServer::dispatcher_loop() {
  std::vector<pollfd> fds;
  while (running_.load(std::memory_order_relaxed)) {
    // Fold connections the workers handed back into the idle set; their
    // idle clock started when the worker stopped serving them.
    {
      const std::lock_guard lock(returned_mutex_);
      for (auto& conn : returned_) idle_.push_back(std::move(conn));
      returned_.clear();
    }

    fds.clear();
    fds.push_back(pollfd{wake_read_.get(), POLLIN, 0});
    fds.push_back(pollfd{listener_.native_handle(), POLLIN, 0});
    for (const auto& conn : idle_) {
      fds.push_back(pollfd{conn->stream.native_handle(), POLLIN, 0});
    }

    // Wake at the nearest idle-timeout deadline (or periodically).
    auto now = std::chrono::steady_clock::now();
    auto timeout = std::chrono::milliseconds(500);
    for (const auto& conn : idle_) {
      const auto deadline = conn->idle_since + options_.read_timeout;
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
      timeout = std::clamp(remaining, std::chrono::milliseconds(0), timeout);
    }

    const int rc = ::poll(fds.data(), fds.size(), static_cast<int>(timeout.count()));
    if (rc < 0 && errno != EINTR) break;
    now = std::chrono::steady_clock::now();

    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_read_.get(), drain, sizeof drain) > 0) {
      }
    }

    // Hand readable idle connections to the workers (peer close shows up as
    // readable too — the worker turns EOF into a clean connection close) and
    // drop connections idle past the read timeout.
    std::vector<std::unique_ptr<Conn>> still_idle;
    still_idle.reserve(idle_.size());
    for (std::size_t i = 0; i < idle_.size(); ++i) {
      const short revents = fds[2 + i].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        enqueue_ready(std::move(idle_[i]), now);
      } else if (now - idle_[i]->idle_since >= options_.read_timeout) {
        release(std::move(idle_[i]));
      } else {
        still_idle.push_back(std::move(idle_[i]));
      }
    }
    idle_ = std::move(still_idle);

    if ((fds[1].revents & POLLIN) != 0) {
      // Drain the accept backlog without blocking.
      while (auto stream = listener_.accept(std::chrono::milliseconds(0))) {
        if (admitted_.load(std::memory_order_relaxed) >= options_.max_connections) {
          shed_connection(std::move(*stream), ShedReason::kAccept);
          continue;
        }
        admitted_.fetch_add(1, std::memory_order_relaxed);
        if (metrics_.accepted != nullptr) metrics_.accepted->inc();
        if (metrics_.active != nullptr) metrics_.active->add(1.0);
        stream->set_timeout(options_.read_timeout);
        auto conn = std::make_unique<Conn>(std::move(*stream));
        conn->idle_since = now;
        idle_.push_back(std::move(conn));
      }
    }
  }

  // Shutdown: close every idle connection; in-flight and queued ones are
  // drained by the workers (see stop()).
  for (auto& conn : idle_) release(std::move(conn));
  idle_.clear();
}

void HttpServer::worker_loop(std::size_t index) {
  for (;;) {
    std::unique_ptr<Conn> conn;
    {
      std::unique_lock lock(queue_mutex_);
      ++waiting_workers_;
      queue_cv_.wait(lock, [this] { return workers_stopping_ || !ready_.empty(); });
      --waiting_workers_;
      if (ready_.empty()) return;  // stopping and fully drained
      conn = std::move(ready_.front());
      ready_.pop_front();
      if (metrics_.queue_depth != nullptr) metrics_.queue_depth->sub(1.0);
    }
    // The measured queue wait feeds both the histogram and the admission
    // controller's control loop (its congestion signal), so it is computed
    // whether or not metrics are attached.
    const auto queue_wait = std::chrono::steady_clock::now() - conn->queued_at;
    admission_->observe(
        std::chrono::duration_cast<std::chrono::nanoseconds>(queue_wait));
    if (metrics_.queue_wait != nullptr) {
      metrics_.queue_wait->observe(std::chrono::duration<double>(queue_wait).count());
    }
    // Serve, then park on the connection and serve its next requests here
    // for as long as no queued work needs this worker.
    for (;;) {
      if (metrics_.workers_busy != nullptr) metrics_.workers_busy->add(1.0);
      worker_fds_[index].store(conn->stream.native_handle(), std::memory_order_release);
      const bool keep = serve_ready(*conn);
      worker_fds_[index].store(-1, std::memory_order_release);
      if (metrics_.workers_busy != nullptr) metrics_.workers_busy->sub(1.0);
      if (!keep) {
        release(std::move(conn));
        break;
      }
      conn->idle_since = std::chrono::steady_clock::now();
      const ParkOutcome outcome = park(index, *conn);
      if (outcome == ParkOutcome::kReadable) continue;
      if (outcome == ParkOutcome::kYield) {
        {
          const std::lock_guard lock(returned_mutex_);
          returned_.push_back(std::move(conn));
        }
        wake_dispatcher();
      } else {
        release(std::move(conn));
      }
      break;
    }
  }
}

HttpServer::ParkOutcome HttpServer::park(std::size_t index, Conn& conn) {
  {
    const std::lock_guard lock(queue_mutex_);
    // Checked under the lock that enqueue_ready and stop() kick under, so a
    // connection queued (or a stop begun) after this point finds the worker
    // in parked_.
    if (!running_.load(std::memory_order_relaxed)) return ParkOutcome::kClose;
    if (!ready_.empty()) return ParkOutcome::kYield;
    parked_.push_back(index);
  }
  const int kick_fd = kick_fds_[index].get();
  pollfd fds[2] = {pollfd{conn.stream.native_handle(), POLLIN, 0},
                   pollfd{kick_fd, POLLIN, 0}};
  const auto deadline = conn.idle_since + options_.read_timeout;
  bool readable = false;
  for (;;) {
    const auto remaining = deadline - std::chrono::steady_clock::now();
    if (remaining <= std::chrono::steady_clock::duration::zero()) break;
    const auto timeout = std::chrono::ceil<std::chrono::milliseconds>(remaining);
    const int rc = ::poll(fds, 2, static_cast<int>(timeout.count()));
    if (rc < 0 && errno != EINTR) break;
    if (fds[1].revents != 0) break;  // kicked
    if (fds[0].revents != 0) {       // a request, or EOF/error for serve_ready
      readable = true;
      break;
    }
  }
  bool kicked = false;
  {
    const std::lock_guard lock(queue_mutex_);
    // A kick removes the worker from parked_ before writing its eventfd.
    const auto it = std::find(parked_.begin(), parked_.end(), index);
    kicked = it == parked_.end();
    if (!kicked) parked_.erase(it);
  }
  if (kicked) {
    std::uint64_t count = 0;
    (void)::read(kick_fd, &count, sizeof count);  // reset for the next park
    return running_.load(std::memory_order_relaxed) ? ParkOutcome::kYield
                                                     : ParkOutcome::kClose;
  }
  return readable ? ParkOutcome::kReadable : ParkOutcome::kClose;
}

bool HttpServer::serve_ready(Conn& conn) {
  // Responses to pipelined requests that are already buffered collect in
  // `pending` and go out in one write. Flush before every read that can
  // block (and past kFlushBytes, which bounds the batch's memory).
  constexpr std::size_t kFlushBytes = 64 * 1024;
  PendingWrites pending;
  try {
    for (;;) {
      auto request = conn.reader.buffered_request();
      if (!request.has_value()) {
        flush(conn.stream, pending);
        request = conn.reader.read_request();
        if (!request.has_value()) return false;  // client closed
      }
      if (serve_one(*request, pending) != RequestOutcome::kKeepAlive) {
        // Close or injected reset: the responses already served still go
        // out, and nothing after this request is answered.
        flush(conn.stream, pending);
        return false;
      }
      // Pipelined bytes live in the reader's buffer, invisible to poll():
      // serve them now or they would never be seen again.
      if (!conn.reader.buffered()) {
        flush(conn.stream, pending);
        return true;
      }
      if (pending.bytes.size() >= kFlushBytes) flush(conn.stream, pending);
    }
  } catch (const std::exception& error) {
    // Connection-level failures (timeouts, resets, malformed input) only
    // terminate this connection; what was already served is still sent.
    util::log_debug(kComponent, "connection ended: {}", error.what());
    try {
      flush(conn.stream, pending);
    } catch (const std::exception&) {
      // The peer is gone; nothing more to do.
    }
    return false;
  }
}

// ---- clients ----------------------------------------------------------------

HttpResponse HttpClient::send(HttpRequest request) {
  if (auto injected = apply_exchange_fault(options_, request.target, [] {})) {
    return std::move(*injected);
  }
  apply_connect_fault(options_, host_, port_);
  TcpStream stream = TcpStream::connect(host_, port_);
  stream.set_timeout(options_.timeout);
  request.headers["Host"] = host_;
  request.headers["Connection"] = "close";
  stream.write_all(request.serialize());
  HttpReader reader(stream);
  auto response = reader.read_response();
  if (!response.has_value()) {
    throw std::runtime_error("HttpClient: empty response");
  }
  return std::move(*response);
}

HttpResponse HttpClient::get(std::string target, Headers headers) {
  HttpRequest request;
  request.method = "GET";
  request.target = std::move(target);
  request.headers = std::move(headers);
  return send(std::move(request));
}

void PersistentHttpClient::reset() noexcept {
  reader_.reset();
  stream_.close();
}

void PersistentHttpClient::ensure_connected() {
  if (stream_.valid()) return;
  apply_connect_fault(options_, host_, port_);
  stream_ = TcpStream::connect(host_, port_);
  stream_.set_timeout(options_.timeout);
  reader_ = std::make_unique<HttpReader>(stream_);
  ++connections_opened_;
}

void PersistentHttpClient::write_and_read(std::string_view wire,
                                          std::span<const std::size_t> slots,
                                          std::vector<ExchangeResult>& results,
                                          std::size_t& answered) {
  ensure_connected();
  stream_.write_all(wire);
  for (; answered < slots.size(); ++answered) {
    if (!stream_.valid()) {
      throw std::runtime_error("PersistentHttpClient: connection closed by peer");
    }
    auto response = reader_->read_response();
    if (!response.has_value()) {
      throw std::runtime_error("PersistentHttpClient: connection closed by peer");
    }
    const auto connection = response->headers.find("Connection");
    if (connection != response->headers.end() && util::equals_ci(connection->second, "close")) {
      reset();  // any later slot finds the connection gone
    }
    results[slots[answered]].response = std::move(*response);
  }
}

std::vector<ExchangeResult> PersistentHttpClient::exchange(std::span<HttpRequest> requests) {
  std::vector<ExchangeResult> results(requests.size());
  // Injected faults are decided up front, per request in pipeline order, so
  // they bypass the reconnect-retry below: an injected reset must surface
  // to the caller, not be healed.
  std::vector<std::size_t> slots;
  slots.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      if (auto injected =
              apply_exchange_fault(options_, requests[i].target, [this] { reset(); })) {
        results[i].response = std::move(*injected);
        continue;
      }
    } catch (const std::exception&) {
      results[i].error = std::current_exception();
      continue;
    }
    slots.push_back(i);
  }
  if (slots.empty()) return results;

  std::string wire;
  for (const std::size_t i : slots) {
    requests[i].headers["Host"] = host_;
    requests[i].serialize_into(wire);
  }
  const bool had_connection = stream_.valid();
  std::size_t answered = 0;
  for (int attempt = 0;; ++attempt) {
    try {
      write_and_read(wire, slots, results, answered);
      return results;
    } catch (const std::exception&) {
      reset();
      // A stale kept-alive connection (the server timed it out between
      // exchanges) fails before its first response: send the batch once
      // more on a fresh connection. A failure on a brand-new connection,
      // or after some responses, is real and goes to the unanswered slots.
      if (attempt > 0 || !had_connection || answered > 0) {
        const std::exception_ptr error = std::current_exception();
        for (std::size_t k = answered; k < slots.size(); ++k) results[slots[k]].error = error;
        return results;
      }
    }
  }
}

HttpResponse PersistentHttpClient::send(HttpRequest request) {
  auto results = exchange(std::span(&request, 1));
  if (results.front().error) std::rethrow_exception(results.front().error);
  return std::move(*results.front().response);
}

HttpResponse PersistentHttpClient::get(std::string target, Headers headers) {
  HttpRequest request;
  request.method = "GET";
  request.target = std::move(target);
  request.headers = std::move(headers);
  return send(std::move(request));
}

}  // namespace appstore::net
