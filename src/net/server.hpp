// HTTP/1.1 server over loopback TCP: a dispatcher plus a fixed worker pool.
//
//   * One dispatcher thread owns the listener and every idle keep-alive
//     connection and multiplexes them through poll(2). An idle connection
//     costs one pollfd, not a parked thread, so thousands of persistent
//     clients (the crawler keeps one per worker×proxy) are cheap.
//   * A fixed pool of worker threads serves *readable* connections handed
//     over through a bounded ready queue: a worker reads one request (plus
//     any pipelined requests already buffered), runs the handler, and writes
//     the responses — every response to an already-buffered request goes
//     out in one write, flushed before any read that could block.
//   * Parking: after a keep-alive response, a worker that finds the ready
//     queue empty keeps the connection and polls it together with its own
//     eventfd, for at most the connection's remaining read_timeout. The next
//     request on it is served directly — no dispatcher wake-up, no queue hop
//     — so a closed-loop client costs one worker wake-up per request, not
//     three thread handoffs. Only an idle connection past its timeout is
//     closed by the parked worker.
//   * Kicks: when a connection enters the ready queue and no worker is
//     waiting for it, one parked worker (the longest parked) is kicked
//     through its eventfd; it hands its connection back to the dispatcher
//     and takes the queued one. Queued work therefore never waits out a
//     parked worker's idle timeout, and with a non-empty queue nobody
//     parks, so admission and shedding under saturation are unchanged.
//   * Load shedding is explicit at two layers, both answering
//     "503 Service Unavailable" + Retry-After: accept-time (admitted
//     connections would exceed max_connections) and queue-time (a connection
//     became readable but the ready queue is full).
//   * stop() drains gracefully: requests already admitted to the ready queue
//     or being served complete (their responses carry "Connection: close");
//     idle connections, parked ones included (stop() kicks every parked
//     worker), are closed immediately.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/clock.hpp"
#include "chaos/fault.hpp"
#include "net/admission.hpp"
#include "net/http.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"

namespace appstore::net {

/// Handler: request -> response. Called concurrently from worker threads;
/// must be thread-safe.
using Handler = std::function<HttpResponse(const HttpRequest&)>;

/// Aggregate construction options for HttpServer (the Options-struct API:
/// new knobs land here without another positional parameter).
struct ServerOptions {
  /// Port to bind on 127.0.0.1 (0 = ephemeral).
  std::uint16_t port = 0;
  /// Bounds concurrently-admitted connections (served + queued + idle);
  /// excess connections receive a minimal "503 Service Unavailable" and are
  /// closed (load shedding).
  std::size_t max_connections = 256;
  /// Per-connection read timeout: an idle keep-alive connection past this is
  /// closed (by the dispatcher, or by the worker parked on it), and a worker
  /// mid-read gives up after it.
  std::chrono::milliseconds read_timeout = std::chrono::milliseconds(5000);
  /// Worker threads; 0 = min(8, hardware cores).
  std::size_t worker_threads = 0;
  /// Bound of the ready queue (readable connections awaiting a worker);
  /// a readable connection past it is shed with 503 + Retry-After.
  std::size_t queue_capacity = 256;
  /// Admission policy in front of the ready queue. The default
  /// AdmissionMode::kFixed reproduces the legacy queue_capacity cliff;
  /// kQueueDelay sheds early once measured queue delay exceeds
  /// admission.target_delay (see net/admission.hpp). `limit_ceiling` is
  /// overridden with queue_capacity and `metrics` defaults to the server's
  /// registry, so callers normally set only `mode` and the delay target.
  AdmissionOptions admission;
  /// Optional metrics sink. When set the server registers, under the
  /// conventions of docs/observability.md:
  ///   http_requests_total{1xx..5xx}     responses by status class
  ///   http_request_seconds{1xx..5xx}    handler+write latency by class
  ///   http_accepted_total               accepted connections
  ///   http_shed_total                   load-shed connections (all layers)
  ///   server_shed_total{accept|queue|admission}  sheds by layer
  ///   admission_limit (gauge)           current admissible queue depth
  ///   admission_sheds_total             adaptive-limit refusals
  ///   http_active_connections (gauge)   admitted connections
  ///   server_queue_depth (gauge)        ready connections awaiting a worker
  ///   server_queue_wait_seconds         time spent in the ready queue (only
  ///                                     queued handoffs: requests a parked
  ///                                     worker serves never queue)
  ///   server_workers_busy (gauge)       workers currently serving
  /// Must outlive the server.
  obs::Registry* metrics = nullptr;
  /// Time source for latency injection (nullptr = real time). Must outlive
  /// the server.
  chaos::Clock* clock = nullptr;
  /// Optional fault seam, consulted per request at FaultSite::kServer keyed
  /// by the request target: kConnectionReset drops the connection without a
  /// response, kLatency delays via `clock`, kHttp* short-circuits the
  /// handler with a synthetic response. Must outlive the server.
  chaos::FaultInjector* faults = nullptr;
  /// Body + content type of the 503 load-shed response (both shed layers).
  /// Lets an embedding service keep one error envelope for every non-200 it
  /// emits — the shed response is written below the handler, so the service
  /// cannot shape it itself.
  std::string shed_body = "server busy";
  std::string shed_content_type = "text/plain";
};

class HttpServer {
 public:
  /// Binds to 127.0.0.1:`options.port` and starts serving.
  HttpServer(ServerOptions options, Handler handler);

  /// Stops (see stop()) and joins every thread.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Total requests served so far (across all connections).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Connections turned away with a 503 (accept, queue, or admission shed).
  [[nodiscard]] std::uint64_t connections_shed() const noexcept {
    return connections_shed_.load(std::memory_order_relaxed);
  }

  /// The admission controller guarding the ready queue.
  [[nodiscard]] AdmissionController& admission() noexcept { return *admission_; }

  /// Stops accepting, drains in-flight work (everything already in the ready
  /// queue is served with "Connection: close"), closes idle connections, and
  /// joins every thread. Idempotent.
  void stop();

 private:
  // ---- request path ---------------------------------------------------------

  enum class RequestOutcome : std::uint8_t {
    kKeepAlive,  ///< response written, connection stays open
    kClose,      ///< connection must close (client asked, error, or drain)
    kDropped,    ///< injected reset: close without a response
  };

  /// Responses served but not yet written. serve_ready() sends the answers
  /// to every already-buffered (pipelined) request in one write.
  struct PendingWrites {
    std::string bytes;
    /// (status class, handler start) per unwritten response, for
    /// http_request_seconds; filled only when metrics are attached.
    std::vector<std::pair<std::size_t, std::chrono::steady_clock::time_point>> timings;
  };

  /// Serves one parsed request (fault seam, handler, metrics) and appends
  /// its response to `pending`. kClose when the client asked for close or
  /// the server is draining.
  RequestOutcome serve_one(const HttpRequest& request, PendingWrites& pending);

  /// Writes and clears `pending`, then records its responses' latencies.
  void flush(TcpStream& stream, PendingWrites& pending);

  /// Which shed layer refused a connection; becomes the X-Shed-Reason
  /// header on the 503 so load reports can attribute sheds.
  enum class ShedReason : std::uint8_t { kAccept = 0, kQueue, kAdmission };

  /// Best-effort 503 + Retry-After (from the admission controller's
  /// estimate, floor 1 s) + X-Shed-Reason, then closes the stream.
  void shed_connection(TcpStream stream, ShedReason reason);

  // ---- connections and threads ---------------------------------------------

  /// A pooled connection. Never moved after construction: `reader` holds a
  /// reference to `stream`, so connections travel as unique_ptrs between the
  /// dispatcher, the ready queue, and workers.
  struct Conn {
    TcpStream stream;
    HttpReader reader;
    /// Accept time, then the end of the last response; the read_timeout
    /// idle deadline counts from here wherever the connection waits.
    std::chrono::steady_clock::time_point idle_since{};
    std::chrono::steady_clock::time_point queued_at{};

    explicit Conn(TcpStream accepted)
        : stream(std::move(accepted)), reader(stream) {}
  };

  void dispatcher_loop();
  void worker_loop(std::size_t index);
  /// Serves every request currently available on the connection; true when
  /// it stays open (keep-alive), false when closed. Responses collect while
  /// further requests are already buffered and are flushed before any read
  /// that can block: a client that waits for response k before it sends
  /// request k + 1 must not wait out read_timeout.
  bool serve_ready(Conn& conn);

  enum class ParkOutcome : std::uint8_t {
    kReadable,  ///< the next request arrived: serve it on this worker
    kYield,     ///< queued work (or a kick): hand the connection back
    kClose,     ///< idle past read_timeout, or the server is stopping
  };

  /// Holds the just-served keep-alive `conn` on worker `index` until its
  /// next request, a kick, or its idle deadline — unless the ready queue is
  /// non-empty or the server is stopping, which decide at once.
  ParkOutcome park(std::size_t index, Conn& conn);
  /// Wakes parked worker `index`; the caller holds queue_mutex_ and has
  /// already removed `index` from parked_.
  void kick_locked(std::size_t index) noexcept;
  void enqueue_ready(std::unique_ptr<Conn> conn,
                     std::chrono::steady_clock::time_point now);
  /// Closes a pooled connection and releases its admission slot.
  void release(std::unique_ptr<Conn> conn) noexcept;
  void wake_dispatcher() noexcept;

  // ---- state --------------------------------------------------------------

  /// Lock-free handles into options_.metrics, resolved once at
  /// construction; all nullptr when metrics are disabled.
  struct Metrics {
    obs::Counter* requests_by_class[5] = {};   ///< index = status/100 - 1
    obs::Histogram* latency_by_class[5] = {};  ///< same indexing
    obs::Counter* accepted = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* shed_by_reason[3] = {};  ///< index = ShedReason
    obs::Gauge* active = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* queue_wait = nullptr;
    obs::Gauge* workers_busy = nullptr;
  };

  TcpListener listener_;
  Handler handler_;
  ServerOptions options_;
  Metrics metrics_;
  std::unique_ptr<AdmissionController> admission_;
  std::atomic<bool> running_{true};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> connections_shed_{0};
  std::atomic<std::size_t> admitted_{0};  ///< served + queued + idle conns
  std::vector<std::unique_ptr<Conn>> idle_;  ///< dispatcher-owned, no lock
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Conn>> ready_;  ///< guarded by queue_mutex_
  bool workers_stopping_ = false;            ///< guarded by queue_mutex_
  std::size_t waiting_workers_ = 0;  ///< in queue_cv_ wait; guarded by queue_mutex_
  std::vector<std::size_t> parked_;  ///< parked workers, oldest first; guarded by queue_mutex_
  std::vector<FileDescriptor> kick_fds_;  ///< per-worker eventfd a kick writes
  std::mutex returned_mutex_;
  std::vector<std::unique_ptr<Conn>> returned_;  ///< workers -> dispatcher
  FileDescriptor wake_read_, wake_write_;        ///< dispatcher wakeup pipe
  /// Fd a worker is currently serving (-1 when idle); stop() shuts the read
  /// side down to unblock a worker waiting in recv() on a partial request.
  std::unique_ptr<std::atomic<int>[]> worker_fds_;
  std::vector<std::thread> workers_;
  std::thread dispatcher_;
};

/// Aggregate construction options shared by both HTTP clients (the
/// Options-struct API: new knobs land here, not as positional parameters).
struct ClientOptions {
  /// Socket timeout for connects, reads, and writes.
  std::chrono::milliseconds timeout = std::chrono::milliseconds(5000);
  /// Time source for injected latency (nullptr = real time). Must outlive
  /// the client.
  chaos::Clock* clock = nullptr;
  /// Optional fault seam. Consulted at FaultSite::kConnect (keyed
  /// "host:port") before establishing a connection — kConnectRefused throws
  /// ECONNREFUSED — and at FaultSite::kExchange (keyed by the request
  /// target) once per request: kConnectionReset fails it with ECONNRESET
  /// (bypassing any transparent reconnect-retry, so callers see the
  /// failure), kLatency delays via `clock`, kHttp* answers it with a
  /// synthetic response without touching the network. Must outlive the
  /// client.
  chaos::FaultInjector* faults = nullptr;
};

/// Blocking single-request HTTP client ("Connection: close" per request).
class HttpClient {
 public:
  HttpClient(std::string host, std::uint16_t port, ClientOptions options = {})
      : host_(std::move(host)), port_(port), options_(options) {}

  /// Sends the request and waits for the response.
  /// Throws std::system_error / std::runtime_error on transport failures.
  [[nodiscard]] HttpResponse send(HttpRequest request);

  /// GET convenience.
  [[nodiscard]] HttpResponse get(std::string target, Headers headers = {});

 private:
  std::string host_;
  std::uint16_t port_;
  ClientOptions options_;
};

/// The outcome of one request of a PersistentHttpClient batch: its response,
/// or the transport error that left it unanswered.
struct ExchangeResult {
  std::optional<HttpResponse> response;
  std::exception_ptr error;  ///< set exactly when `response` is empty
};

/// Keep-alive HTTP client: reuses one TCP connection across requests
/// (HTTP/1.1 persistent connections), reconnecting transparently when the
/// server closes it, and pipelines batches of requests over it. Crawling a
/// directory page-by-page over one connection avoids per-request handshakes
/// — the crawler uses one per proxy identity. Not thread-safe; use one
/// instance per thread.
class PersistentHttpClient {
 public:
  PersistentHttpClient(std::string host, std::uint16_t port, ClientOptions options = {})
      : host_(std::move(host)), port_(port), options_(options) {}

  /// Pipelines `requests` (setting each one's Host header): one write of
  /// all of them, then the responses read back in order. The single
  /// exchange path; send() and get() are batches of one.
  ///   * Injected faults are decided per request, in order, before any
  ///     network work. A kHttp* fault answers its slot without sending it;
  ///     a kConnectionReset fails its slot with ECONNRESET and drops the
  ///     connection, so the rest go out on a fresh one. Neither is retried.
  ///   * If a reused connection fails before its first response (the server
  ///     may have timed it out since the last exchange), the batch is sent
  ///     once more on a fresh connection. Any other failure, and a close
  ///     after k responses, leaves slots k.. with the transport error.
  /// The server reads a batch only as it answers it, so a batch's requests
  /// must fit in the socket buffers; a few KB of GETs do.
  [[nodiscard]] std::vector<ExchangeResult> exchange(std::span<HttpRequest> requests);

  /// A batch of one; throws its transport error (std::system_error /
  /// std::runtime_error).
  [[nodiscard]] HttpResponse send(HttpRequest request);

  [[nodiscard]] HttpResponse get(std::string target, Headers headers = {});

  /// Number of TCP connections established so far (1 = fully reused).
  [[nodiscard]] std::uint64_t connections_opened() const noexcept {
    return connections_opened_;
  }

  /// Drops the current connection (next request reconnects).
  void reset() noexcept;

 private:
  /// One attempt: writes `wire` (the serialized requests of `slots`) and
  /// reads their responses into `results`, counting them in `answered`.
  /// Throws on the first transport failure.
  void write_and_read(std::string_view wire, std::span<const std::size_t> slots,
                      std::vector<ExchangeResult>& results, std::size_t& answered);
  void ensure_connected();

  std::string host_;
  std::uint16_t port_;
  ClientOptions options_;
  TcpStream stream_;
  std::unique_ptr<HttpReader> reader_;
  std::uint64_t connections_opened_ = 0;
};

}  // namespace appstore::net
