// Minimal HTTP/1.1 message handling.
//
// Supports the subset the crawler pipeline needs: request line + headers +
// optional Content-Length body, "Connection: close" semantics, and query
// string parsing. Chunked transfer encoding is out of scope, so a message
// that uses it is rejected rather than misread (see HttpFramingError).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.hpp"

namespace appstore::net {

/// Case-insensitive header map (HTTP header names are case-insensitive).
struct HeaderLess {
  using is_transparent = void;
  [[nodiscard]] bool operator()(std::string_view a, std::string_view b) const noexcept;
};

using Headers = std::map<std::string, std::string, HeaderLess>;

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";  ///< path + optional query string
  Headers headers;
  std::string body;

  [[nodiscard]] std::string path() const;
  /// Decoded query parameters (no %-decoding beyond '+' — targets are ASCII).
  [[nodiscard]] std::map<std::string, std::string> query() const;

  [[nodiscard]] std::string serialize() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  Headers headers;
  std::string body;

  [[nodiscard]] std::string serialize() const;

  [[nodiscard]] static HttpResponse text(int status, std::string body);
  [[nodiscard]] static HttpResponse json(int status, std::string body);
};

/// Ambiguous body framing: a Transfer-Encoding header (unsupported, so its
/// body would be read as the next message) or Content-Length repeated with
/// conflicting values. Either lets a peer smuggle a second message past the
/// first, so the message is refused instead of guessed at.
class HttpFramingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Incremental reader for one HTTP message off a TcpStream. Enforces limits
/// on header and body sizes (a crawler must survive a misbehaving server and
/// a server a misbehaving client).
class HttpReader {
 public:
  explicit HttpReader(TcpStream& stream, std::size_t max_head = 64 * 1024,
                      std::size_t max_body = 8 * 1024 * 1024)
      : stream_(stream), max_head_(max_head), max_body_(max_body) {}

  /// Reads one request. nullopt on clean EOF before any byte.
  /// Throws HttpFramingError on ambiguous framing and std::runtime_error on
  /// other malformed input or limit violations.
  [[nodiscard]] std::optional<HttpRequest> read_request();

  /// Reads one response. nullopt on clean EOF before any byte.
  [[nodiscard]] std::optional<HttpResponse> read_response();

  /// True when bytes of a further (pipelined) message are already buffered.
  /// The worker-pool server must check this before parking a connection back
  /// on poll(): buffered bytes live here, not in the socket, so the kernel
  /// would never report them readable.
  [[nodiscard]] bool buffered() const noexcept { return consumed_ < buffer_.size(); }

 private:
  [[nodiscard]] std::optional<std::string> read_head();
  [[nodiscard]] std::string read_body(const Headers& headers);
  [[nodiscard]] bool fill();

  TcpStream& stream_;
  std::size_t max_head_;
  std::size_t max_body_;
  std::string buffer_;
  std::size_t consumed_ = 0;
};

/// Parses a status line + headers block (exposed for tests). False on a
/// malformed head; throws HttpFramingError on ambiguous framing headers.
[[nodiscard]] bool parse_request_head(std::string_view head, HttpRequest& out);
[[nodiscard]] bool parse_response_head(std::string_view head, HttpResponse& out);

}  // namespace appstore::net
