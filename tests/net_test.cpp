// Unit + integration tests for the networking substrate: HTTP parsing,
// client/server over real loopback sockets, rate limiting, proxy pool.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/clock.hpp"
#include "net/http.hpp"
#include "net/proxy.hpp"
#include "net/rate_limiter.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"

namespace appstore::net {
namespace {

// ---- HTTP parsing --------------------------------------------------------------

TEST(Http, ParseRequestHead) {
  HttpRequest request;
  ASSERT_TRUE(parse_request_head(
      "GET /api/apps?page=2 HTTP/1.1\r\nHost: x\r\nX-Client-Id: p1\r\n", request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/api/apps?page=2");
  EXPECT_EQ(request.headers.at("host"), "x");  // case-insensitive lookup
  EXPECT_EQ(request.headers.at("X-CLIENT-ID"), "p1");
}

TEST(Http, ParseRequestRejectsGarbage) {
  HttpRequest request;
  EXPECT_FALSE(parse_request_head("NOT-HTTP\r\n", request));
  EXPECT_FALSE(parse_request_head("GET /x HTTP/2.0junk\r\n", request));
  EXPECT_FALSE(parse_request_head("GET  HTTP/1.1\r\n", request));
  EXPECT_FALSE(parse_request_head("GET nopath HTTP/1.1\r\n", request));
}

TEST(Http, ParseResponseHead) {
  HttpResponse response;
  ASSERT_TRUE(parse_response_head(
      "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n", response));
  EXPECT_EQ(response.status, 429);
  EXPECT_EQ(response.reason, "Too Many Requests");
}

TEST(Http, ParseResponseRejectsBadStatus) {
  HttpResponse response;
  EXPECT_FALSE(parse_response_head("HTTP/1.1 9999 X\r\n", response));
  EXPECT_FALSE(parse_response_head("HTTP/1.1 abc X\r\n", response));
}

TEST(Http, SerializeParseRoundTrip) {
  HttpRequest request;
  request.method = "GET";
  request.target = "/api/app/7";
  request.headers["X-Client-Id"] = "proxy-cn-3";
  request.body = "payload";
  const std::string wire = request.serialize();
  EXPECT_NE(wire.find("Content-Length: 7"), std::string::npos);

  HttpRequest parsed;
  const std::size_t head_end = wire.find("\r\n\r\n");
  ASSERT_TRUE(parse_request_head(wire.substr(0, head_end + 2), parsed));
  EXPECT_EQ(parsed.target, "/api/app/7");
}

TEST(Http, QueryParsing) {
  HttpRequest request;
  request.target = "/api/apps?page=3&per_page=100&flag";
  const auto query = request.query();
  EXPECT_EQ(query.at("page"), "3");
  EXPECT_EQ(query.at("per_page"), "100");
  EXPECT_EQ(query.at("flag"), "");
  EXPECT_EQ(request.path(), "/api/apps");
}

TEST(Http, NoQueryString) {
  HttpRequest request;
  request.target = "/api/meta";
  EXPECT_TRUE(request.query().empty());
  EXPECT_EQ(request.path(), "/api/meta");
}

// ---- request framing ---------------------------------------------------------------

/// Reads one request from `wire` through an HttpReader over a socketpair
/// (the reader needs only recv(), so no listener is involved).
std::optional<HttpRequest> read_request_from(std::string_view wire) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "socketpair");
  }
  TcpStream writer{FileDescriptor(fds[0])};
  TcpStream reading_end{FileDescriptor(fds[1])};
  writer.write_all(wire);
  writer.shutdown_write();
  HttpReader reader(reading_end);
  return reader.read_request();
}

TEST(HttpFraming, RejectsTransferEncoding) {
  // Read as Content-Length framing, the chunked body would be parsed as the
  // next request on the connection.
  EXPECT_THROW((void)read_request_from("POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                                       "5\r\nhello\r\n0\r\n\r\n"),
               HttpFramingError);
  EXPECT_THROW((void)read_request_from("POST /a HTTP/1.1\r\nContent-Length: 5\r\n"
                                       "transfer-encoding: identity\r\n\r\nhello"),
               HttpFramingError);
}

TEST(HttpFraming, RejectsConflictingContentLength) {
  EXPECT_THROW((void)read_request_from("POST /a HTTP/1.1\r\nContent-Length: 5\r\n"
                                       "Content-Length: 30\r\n\r\nhello"),
               HttpFramingError);
  EXPECT_THROW((void)read_request_from("POST /a HTTP/1.1\r\nContent-Length: 30\r\n"
                                       "content-length: 5\r\n\r\nhello"),
               HttpFramingError);
}

TEST(HttpFraming, AcceptsRepeatedIdenticalContentLength) {
  const auto request = read_request_from(
      "POST /a HTTP/1.1\r\nContent-Length: 5\r\ncontent-length:  5\r\n\r\nhello");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, "hello");
  EXPECT_EQ(request->headers.at("Content-Length"), "5");
}

TEST(HttpFraming, ServerClosesInsteadOfServingSmuggledRequest) {
  std::mutex mutex;
  std::vector<std::string> served;
  HttpServer server(ServerOptions{}, [&](const HttpRequest& request) {
    const std::lock_guard lock(mutex);
    served.push_back(request.target);
    return HttpResponse::text(200, "ok");
  });
  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.set_timeout(std::chrono::milliseconds(5000));
  // The chunk data is a complete second request: a reader that ignored
  // Transfer-Encoding would serve /smuggled next.
  stream.write_all(
      "POST /front HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "1c\r\nGET /smuggled HTTP/1.1\r\n\r\n\r\n0\r\n\r\n");
  HttpReader reader(stream);
  bool closed = false;
  try {
    closed = !reader.read_response().has_value();
  } catch (const std::system_error&) {
    closed = true;  // a reset is a close too
  }
  EXPECT_TRUE(closed);
  server.stop();
  EXPECT_TRUE(served.empty());
}

// ---- reader buffer ------------------------------------------------------------------

/// A connected pair of streams over a socketpair (the reader needs only recv()).
std::pair<TcpStream, TcpStream> stream_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::system_error(errno, std::generic_category(), "socketpair");
  }
  return {TcpStream{FileDescriptor(fds[0])}, TcpStream{FileDescriptor(fds[1])}};
}

TEST(HttpReader, RetainedBytesStayBoundedAcrossManyBodilessRequests) {
  // A keep-alive connection reads GETs (no Content-Length) for as long as it
  // lives; the reader must drop what it consumed instead of holding every
  // request head it ever received.
  auto [writer, reading_end] = stream_pair();
  HttpReader reader(reading_end);
  const std::string get =
      "GET /api/v1/app/1234 HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Client-Id: proxy-cn-0\r\n\r\n";
  std::string batch;
  for (int i = 0; i < 16; ++i) batch += get;
  std::size_t most_retained = 0;
  int read = 0;
  for (int round = 0; round < 625; ++round) {  // 10 000 requests, 16 per write
    writer.write_all(batch);
    for (int i = 0; i < 16; ++i) {
      const auto request = reader.read_request();
      ASSERT_TRUE(request.has_value());
      ASSERT_EQ(request->target, "/api/v1/app/1234");
      ++read;
      most_retained = std::max(most_retained, reader.retained_bytes());
    }
  }
  EXPECT_EQ(read, 10000);
  EXPECT_LE(most_retained, 2 * batch.size());  // not 10 000 heads (~800 KB)
  EXPECT_EQ(reader.retained_bytes(), 0u);      // drained: nothing held
}

TEST(HttpReader, BufferedRequestNeverReadsTheSocket) {
  auto [writer, reading_end] = stream_pair();
  // A blocking read here would fail the test with EAGAIN instead of hanging.
  reading_end.set_timeout(std::chrono::milliseconds(2000));
  HttpReader reader(reading_end);
  writer.write_all(
      "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 5\r\n\r\nhe");
  const auto first = reader.read_request();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->target, "/a");
  // The POST's body is incomplete: no request, and the message stays whole.
  EXPECT_FALSE(reader.buffered_request().has_value());
  EXPECT_TRUE(reader.buffered());
  writer.write_all("lloGET /c HTTP/1.1\r\nHo");
  const auto second = reader.read_request();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->target, "/b");
  EXPECT_EQ(second->body, "hello");
  EXPECT_FALSE(reader.buffered_request().has_value());  // head incomplete
  writer.write_all("st: x\r\n\r\n");
  EXPECT_FALSE(reader.buffered_request().has_value());  // bytes still in the socket
  const auto third = reader.read_request();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->target, "/c");
  EXPECT_FALSE(reader.buffered());
}

// ---- sockets + server integration -------------------------------------------------

TEST(Server, EchoRoundTrip) {
  HttpServer server(ServerOptions{}, [](const HttpRequest& request) {
    return HttpResponse::text(200, "echo:" + request.target);
  });
  HttpClient client("127.0.0.1", server.port());
  const HttpResponse response = client.get("/hello");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:/hello");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(Server, HandlerExceptionBecomes500) {
  HttpServer server(ServerOptions{}, [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("boom");
  });
  HttpClient client("127.0.0.1", server.port());
  const HttpResponse response = client.get("/x");
  EXPECT_EQ(response.status, 500);
}

TEST(Server, ConcurrentClients) {
  std::atomic<int> handled{0};
  HttpServer server(ServerOptions{}, [&](const HttpRequest&) {
    ++handled;
    return HttpResponse::text(200, "ok");
  });
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      HttpClient client("127.0.0.1", server.port());
      for (int r = 0; r < kRequestsPerThread; ++r) {
        try {
          if (client.get("/x").status != 200) ++failures;
        } catch (...) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(handled.load(), kThreads * kRequestsPerThread);
}

TEST(Server, StopIsIdempotent) {
  HttpServer server(ServerOptions{},
                    [](const HttpRequest&) { return HttpResponse::text(200, ""); });
  server.stop();
  server.stop();  // second stop is a no-op
}

TEST(Server, LargeBodyRoundTrip) {
  const std::string large(512 * 1024, 'x');
  HttpServer server(ServerOptions{},
                    [&](const HttpRequest&) { return HttpResponse::text(200, large); });
  HttpClient client("127.0.0.1", server.port());
  const HttpResponse response = client.get("/big");
  EXPECT_EQ(response.body.size(), large.size());
}

TEST(Server, OptionsStructRecordsMetrics) {
  obs::Registry registry;
  ServerOptions options;
  options.metrics = &registry;
  HttpServer server(options, [](const HttpRequest& request) {
    if (request.target == "/fail") return HttpResponse::text(500, "boom");
    return HttpResponse::text(200, "ok");
  });
  HttpClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/a").status, 200);
  EXPECT_EQ(client.get("/b").status, 200);
  EXPECT_EQ(client.get("/fail").status, 500);

  const auto snapshot = registry.snapshot();
  const auto* ok = snapshot.find_counter("http_requests_total", "2xx");
  const auto* err = snapshot.find_counter("http_requests_total", "5xx");
  ASSERT_NE(ok, nullptr);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(ok->value, 2u);
  EXPECT_EQ(err->value, 1u);
  // The latency histogram is observed after the response write returns to
  // the client (it measures handler + write time), so poll briefly instead
  // of racing the worker thread.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::uint64_t latency_count = 0;
  double latency_p50 = 0.0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto polled = registry.snapshot();
    const auto* latency = polled.find_histogram("http_request_seconds", "2xx");
    if (latency != nullptr) {
      latency_count = latency->count;
      latency_p50 = latency->p50;
      if (latency_count == 2u) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(latency_count, 2u);
  EXPECT_GT(latency_p50, 0.0);
}

TEST(Server, ShedsWith503WhenSaturated) {
  obs::Registry registry;
  ServerOptions options;
  options.max_connections = 1;
  options.metrics = &registry;
  HttpServer server(options,
                    [](const HttpRequest&) { return HttpResponse::text(200, "ok"); });
  // A keep-alive client occupies the single connection slot...
  PersistentHttpClient holder("127.0.0.1", server.port());
  EXPECT_EQ(holder.get("/hold").status, 200);
  // ...so the next connection must be shed with an explicit 503, not a
  // silent close.
  HttpClient overflow("127.0.0.1", server.port());
  const HttpResponse response = overflow.get("/x");
  EXPECT_EQ(response.status, 503);
  EXPECT_GE(server.connections_shed(), 1u);
  const auto snapshot = registry.snapshot();  // keep alive: find_counter aims into it
  const auto* shed = snapshot.find_counter("http_shed_total");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->value, server.connections_shed());
}

TEST(Sockets, ListenerEphemeralPortAssigned) {
  TcpListener listener(0);
  EXPECT_GT(listener.port(), 0);
}

TEST(Sockets, AcceptTimesOutWithoutClient) {
  TcpListener listener(0);
  const auto stream = listener.accept(std::chrono::milliseconds(30));
  EXPECT_FALSE(stream.has_value());
}

TEST(Sockets, ConnectToClosedPortFails) {
  // Bind and immediately close to find a (very likely) dead port.
  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }
  EXPECT_THROW((void)TcpStream::connect("127.0.0.1", dead_port), std::system_error);
}


TEST(PersistentClient, ReusesOneConnection) {
  HttpServer server(ServerOptions{}, [](const HttpRequest& request) {
    return HttpResponse::text(200, "echo:" + request.target);
  });
  PersistentHttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) {
    const HttpResponse response = client.get("/r" + std::to_string(i));
    EXPECT_EQ(response.status, 200);
  }
  EXPECT_EQ(client.connections_opened(), 1u);
}

TEST(PersistentClient, ReconnectsAfterServerClose) {
  HttpServer server(ServerOptions{}, [](const HttpRequest&) {
    HttpResponse response = HttpResponse::text(200, "ok");
    response.headers["Connection"] = "close";
    return response;
  });
  PersistentHttpClient client("127.0.0.1", server.port());
  // The server closes after each exchange; every request needs a new
  // connection, but all of them succeed.
  EXPECT_EQ(client.get("/a").status, 200);
  EXPECT_EQ(client.get("/b").status, 200);
  EXPECT_EQ(client.get("/c").status, 200);
  EXPECT_EQ(client.connections_opened(), 3u);
}

TEST(PersistentClient, ResetForcesReconnect) {
  HttpServer server(ServerOptions{},
                    [](const HttpRequest&) { return HttpResponse::text(200, "ok"); });
  PersistentHttpClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/one").status, 200);
  client.reset();
  EXPECT_EQ(client.get("/two").status, 200);
  EXPECT_EQ(client.connections_opened(), 2u);
}

TEST(PersistentClient, FailsCleanlyOnDeadServer) {
  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }
  PersistentHttpClient client("127.0.0.1", dead_port);
  EXPECT_THROW((void)client.get("/x"), std::system_error);
}

// ---- rate limiter -------------------------------------------------------------------

// ---- client options --------------------------------------------------------------------

TEST(ClientOptions, OptionsStructConstruction) {
  HttpServer server(ServerOptions{}, [](const HttpRequest& request) {
    return HttpResponse::text(200, "echo:" + request.target);
  });
  ClientOptions options;
  options.timeout = std::chrono::milliseconds(2000);
  HttpClient client("127.0.0.1", server.port(), options);
  EXPECT_EQ(client.get("/a").body, "echo:/a");
  PersistentHttpClient persistent("127.0.0.1", server.port(), options);
  EXPECT_EQ(persistent.get("/b").body, "echo:/b");
}

TEST(RateLimiter, BurstThenBlocked) {
  auto now = std::chrono::steady_clock::now();
  TokenBucketLimiter limiter(1.0, 3.0, [&] { return now; });
  EXPECT_TRUE(limiter.allow("client"));
  EXPECT_TRUE(limiter.allow("client"));
  EXPECT_TRUE(limiter.allow("client"));
  EXPECT_FALSE(limiter.allow("client"));
}

TEST(RateLimiter, RefillsOverTime) {
  auto now = std::chrono::steady_clock::now();
  TokenBucketLimiter limiter(2.0, 2.0, [&] { return now; });
  EXPECT_TRUE(limiter.allow("c"));
  EXPECT_TRUE(limiter.allow("c"));
  EXPECT_FALSE(limiter.allow("c"));
  now += std::chrono::milliseconds(600);  // 1.2 tokens refill
  EXPECT_TRUE(limiter.allow("c"));
  EXPECT_FALSE(limiter.allow("c"));
}

TEST(RateLimiter, KeysAreIndependent) {
  auto now = std::chrono::steady_clock::now();
  TokenBucketLimiter limiter(1.0, 1.0, [&] { return now; });
  EXPECT_TRUE(limiter.allow("a"));
  EXPECT_FALSE(limiter.allow("a"));
  EXPECT_TRUE(limiter.allow("b"));  // fresh bucket
}

TEST(RateLimiter, RefillCapsAtBurst) {
  auto now = std::chrono::steady_clock::now();
  TokenBucketLimiter limiter(100.0, 2.0, [&] { return now; });
  now += std::chrono::hours(1);
  EXPECT_NEAR(limiter.available("c"), 2.0, 1e-9);
}

TEST(RateLimiter, EvictIdleDropsState) {
  auto now = std::chrono::steady_clock::now();
  TokenBucketLimiter limiter(1.0, 1.0, [&] { return now; });
  EXPECT_TRUE(limiter.allow("old"));
  now += std::chrono::seconds(100);
  limiter.evict_idle(std::chrono::seconds(50));
  // After eviction the key starts fresh with a full bucket.
  EXPECT_TRUE(limiter.allow("old"));
}

TEST(RateLimiter, KeyCapEvictsStalestBuckets) {
  auto now = std::chrono::steady_clock::now();
  TokenBucketLimiter limiter(1.0, 1.0, [&] { return now; }, /*max_keys=*/8);
  // Fill the map with keys whose last touch is strictly older than the rest.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(limiter.allow("key-" + std::to_string(i)));
    now += std::chrono::seconds(1);
  }
  EXPECT_EQ(limiter.tracked_keys(), 8u);
  EXPECT_EQ(limiter.evictions(), 0u);
  // The 9th distinct key triggers the sweep: the cap holds, the stalest
  // bucket(s) are dropped, and the counter records them.
  EXPECT_TRUE(limiter.allow("key-8"));
  EXPECT_LE(limiter.tracked_keys(), 8u);
  EXPECT_GE(limiter.evictions(), 1u);
  // key-0 (stalest, already drained) was evicted, so it returns with a
  // full burst instead of its drained bucket.
  EXPECT_TRUE(limiter.allow("key-0"));
}

TEST(RateLimiter, KeyCapBoundsUnboundedDistinctClients) {
  auto now = std::chrono::steady_clock::now();
  obs::Registry registry;
  TokenBucketLimiter limiter(1.0, 1.0, [&] { return now; }, /*max_keys=*/32);
  limiter.attach_metrics(registry);
  // An adversarial stream of never-repeating client ids (the unbounded-map
  // failure mode): the per-key state must stay capped throughout.
  for (int i = 0; i < 1000; ++i) {
    (void)limiter.allow("adversary-" + std::to_string(i));
    now += std::chrono::milliseconds(1);
  }
  EXPECT_LE(limiter.tracked_keys(), 32u);
  EXPECT_GE(limiter.evictions(), 1000u - 32u);
  const auto snapshot = registry.snapshot();
  const auto* evictions = snapshot.find_counter("rate_limiter_evictions_total");
  ASSERT_NE(evictions, nullptr);
  EXPECT_EQ(evictions->value, limiter.evictions());
}

TEST(RateLimiter, CapEvictionPreservesHotKeys) {
  auto now = std::chrono::steady_clock::now();
  // No refill: a bucket's tokens only ever change by draining — unless it
  // is evicted and recreated at full burst, which is what we detect.
  TokenBucketLimiter limiter(0.0, 2.0, [&] { return now; }, /*max_keys=*/16);
  EXPECT_TRUE(limiter.allow("hot"));
  EXPECT_TRUE(limiter.allow("hot"));
  EXPECT_FALSE(limiter.allow("hot"));  // drained
  // Cold keys churn through the capped map while the hot key stays the
  // most recently touched (even throttled calls refresh its stamp).
  for (int i = 0; i < 200; ++i) {
    now += std::chrono::milliseconds(10);
    (void)limiter.allow("cold-" + std::to_string(i));
    EXPECT_FALSE(limiter.allow("hot")) << "hot bucket was evicted at round " << i;
  }
  EXPECT_GE(limiter.evictions(), 1u);
}

TEST(RateLimiter, EvictIdleCountsIntoEvictions) {
  auto now = std::chrono::steady_clock::now();
  TokenBucketLimiter limiter(1.0, 1.0, [&] { return now; });
  EXPECT_TRUE(limiter.allow("old"));
  EXPECT_TRUE(limiter.allow("older"));
  now += std::chrono::seconds(100);
  limiter.evict_idle(std::chrono::seconds(50));
  EXPECT_EQ(limiter.evictions(), 2u);
  EXPECT_EQ(limiter.tracked_keys(), 0u);
}

TEST(RateLimiter, MetricsCountAllowedAndThrottled) {
  obs::Registry registry;
  auto now = std::chrono::steady_clock::now();
  TokenBucketLimiter limiter(1.0, 2.0, [&] { return now; });
  limiter.attach_metrics(registry);
  EXPECT_TRUE(limiter.allow("c"));
  EXPECT_TRUE(limiter.allow("c"));
  EXPECT_FALSE(limiter.allow("c"));
  EXPECT_EQ(limiter.allowed(), 2u);
  EXPECT_EQ(limiter.throttled(), 1u);
  const auto snapshot = registry.snapshot();
  const auto* allowed = snapshot.find_counter("rate_limiter_allowed_total");
  const auto* throttled = snapshot.find_counter("rate_limiter_throttled_total");
  ASSERT_NE(allowed, nullptr);
  ASSERT_NE(throttled, nullptr);
  EXPECT_EQ(allowed->value, 2u);
  EXPECT_EQ(throttled->value, 1u);
}

// ---- proxy pool ------------------------------------------------------------------------

TEST(ProxyPool, RegionFiltering) {
  ProxyPool pool(6, {Region::kChina, Region::kEurope});
  util::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const auto index = pool.pick(rng, Region::kChina);
    ASSERT_TRUE(index.has_value());
    EXPECT_EQ(pool.proxy(*index).region, Region::kChina);
    EXPECT_NE(pool.proxy(*index).id.find("-cn-"), std::string::npos);
  }
}

TEST(ProxyPool, QuarantineAfterConsecutiveFailures) {
  ProxyPool pool(2, {Region::kUsa});
  pool.report_failure(0);
  pool.report_failure(0);
  EXPECT_EQ(pool.healthy_count(), 2u);
  pool.report_failure(0);  // third consecutive -> quarantined
  EXPECT_EQ(pool.healthy_count(), 1u);
  util::Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    const auto index = pool.pick(rng);
    ASSERT_TRUE(index.has_value());
    EXPECT_EQ(*index, 1u);
  }
}

TEST(ProxyPool, SuccessResetsFailureCount) {
  ProxyPool pool(1, {Region::kUsa});
  pool.report_failure(0);
  pool.report_failure(0);
  pool.report_success(0);
  pool.report_failure(0);
  pool.report_failure(0);
  EXPECT_EQ(pool.healthy_count(), 1u);  // never hit 3 consecutive
}

TEST(ProxyPool, ReinstateRestoresService) {
  ProxyPool pool(1, {Region::kChina});
  pool.report_failure(0, 1);
  util::Rng rng(3);
  EXPECT_FALSE(pool.pick(rng).has_value());
  pool.reinstate(0);
  EXPECT_TRUE(pool.pick(rng).has_value());
}

TEST(ProxyPool, EmptyRegionsThrow) {
  EXPECT_THROW(ProxyPool(3, {}), std::invalid_argument);
}

// ---- token-bucket properties (seeded schedules on the chaos VirtualClock) ------

TEST(RateLimiterProperty, NeverExceedsBurstAndHonorsRefillRate) {
  // 1000 seeded random schedules of (advance clock | request) steps. Two
  // invariants must hold for every schedule:
  //   (a) admissions never exceed burst + rate * elapsed (+1 for the token
  //       in flight when the bound is fractional) — the bucket cannot be
  //       overdrawn no matter how requests and refills interleave;
  //   (b) a full idle period of burst/rate always restores a whole burst.
  for (std::uint64_t schedule = 0; schedule < 1000; ++schedule) {
    util::Rng rng = util::rng::derive(0xb0c4e7, schedule);
    const double rate = rng.uniform(0.5, 200.0);
    const double burst = rng.uniform(1.0, 50.0);
    chaos::VirtualClock clock;
    TokenBucketLimiter limiter(rate, burst, clock.time_fn());

    std::uint64_t admitted = 0;
    double elapsed_seconds = 0.0;
    const int steps = 30 + static_cast<int>(rng.below(50));
    for (int step = 0; step < steps; ++step) {
      if (rng.chance(0.4)) {
        const double advance = rng.uniform(0.0, 2.0 * burst / rate);
        clock.advance(std::chrono::nanoseconds(
            static_cast<std::int64_t>(advance * 1e9)));
        elapsed_seconds += advance;
      } else {
        const int requests = 1 + static_cast<int>(rng.below(12));
        for (int r = 0; r < requests; ++r) {
          if (limiter.allow("client")) ++admitted;
        }
      }
      ASSERT_LE(static_cast<double>(admitted), burst + rate * elapsed_seconds + 1.0)
          << "schedule " << schedule << ": overdraw at rate=" << rate
          << " burst=" << burst;
    }

    // (b) after a full refill window the bucket is at capacity again.
    clock.advance(std::chrono::nanoseconds(
        static_cast<std::int64_t>(burst / rate * 1e9) + 1));
    std::uint64_t refilled = 0;
    while (limiter.allow("client")) ++refilled;
    EXPECT_GE(refilled, static_cast<std::uint64_t>(burst))
        << "schedule " << schedule;
    EXPECT_LE(refilled, static_cast<std::uint64_t>(burst) + 1)
        << "schedule " << schedule;
  }
}

TEST(RateLimiterProperty, ConsecutiveAllowsWithoutAdvanceBoundedByBurst) {
  for (std::uint64_t schedule = 0; schedule < 100; ++schedule) {
    util::Rng rng = util::rng::derive(0x5eed5, schedule);
    const double burst = rng.uniform(1.0, 40.0);
    chaos::VirtualClock clock;
    TokenBucketLimiter limiter(10.0, burst, clock.time_fn());
    std::uint64_t admitted = 0;
    while (limiter.allow("k")) ++admitted;
    // With time frozen exactly floor(burst)..burst tokens are spendable.
    EXPECT_GE(admitted, static_cast<std::uint64_t>(burst));
    EXPECT_LE(admitted, static_cast<std::uint64_t>(std::ceil(burst)));
    EXPECT_FALSE(limiter.allow("k"));  // still frozen: stays empty
  }
}

}  // namespace
}  // namespace appstore::net
