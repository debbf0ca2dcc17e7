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
  /// Appends the wire form to `out` (a pipelined batch is one buffer).
  void serialize_into(std::string& out) const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  Headers headers;
  std::string body;

  [[nodiscard]] std::string serialize() const;
  /// Appends the wire form to `out` (a pipelined batch is one buffer).
  void serialize_into(std::string& out) const;

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

/// Incremental reader for HTTP messages off a TcpStream, one after another
/// on a persistent (possibly pipelined) connection. Enforces limits on
/// header and body sizes (a crawler must survive a misbehaving server and a
/// server a misbehaving client). Consumed bytes are dropped once the buffer
/// drains or once they pass half of it, so a long-lived connection holds at
/// most about one batch of unread bytes, not everything it ever received.
class HttpReader {
 public:
  explicit HttpReader(TcpStream& stream, std::size_t max_head = 64 * 1024,
                      std::size_t max_body = 8 * 1024 * 1024)
      : stream_(stream), max_head_(max_head), max_body_(max_body) {}

  /// Reads one request, blocking on the socket as needed. nullopt on clean
  /// EOF before any byte. Throws HttpFramingError on ambiguous framing and
  /// std::runtime_error on other malformed input or limit violations.
  [[nodiscard]] std::optional<HttpRequest> read_request();

  /// The next request if it is already complete in the buffer; never reads
  /// the socket (nullopt otherwise). A server that holds unsent responses
  /// takes requests this way and flushes before falling back to
  /// read_request(), which can block. Throws like read_request().
  [[nodiscard]] std::optional<HttpRequest> buffered_request();

  /// Reads one response. nullopt on clean EOF before any byte.
  [[nodiscard]] std::optional<HttpResponse> read_response();

  /// True when bytes of a further (pipelined) message are already buffered.
  /// The worker-pool server must check this before parking a connection back
  /// on poll(): buffered bytes live here, not in the socket, so the kernel
  /// would never report them readable.
  [[nodiscard]] bool buffered() const noexcept { return consumed_ < buffer_.size(); }

  /// Bytes held in the buffer, consumed or not (regression tests bound it).
  [[nodiscard]] std::size_t retained_bytes() const noexcept { return buffer_.size(); }

 private:
  /// Reads the next message; with `may_block` false it only parses what is
  /// buffered and leaves an incomplete message unconsumed.
  template <typename Message>
  [[nodiscard]] std::optional<Message> read_message(bool may_block);
  /// The next head (up to and including its last CRLF), valid until the
  /// next fill(); nullopt on clean EOF, or when `may_block` is false and the
  /// head is not complete in the buffer.
  [[nodiscard]] std::optional<std::string_view> read_head(bool may_block);
  /// nullopt only when `may_block` is false and the body is not buffered.
  [[nodiscard]] std::optional<std::string> read_body(const Headers& headers, bool may_block);
  [[nodiscard]] bool fill();
  /// Drops the consumed prefix when the buffer drained or it passed half.
  void compact() noexcept;

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
