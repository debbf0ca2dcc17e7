#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <type_traits>

#include "util/strings.hpp"

namespace appstore::net {

bool HeaderLess::operator()(std::string_view a, std::string_view b) const noexcept {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      [](char x, char y) {
                                        return std::tolower(static_cast<unsigned char>(x)) <
                                               std::tolower(static_cast<unsigned char>(y));
                                      });
}

std::string HttpRequest::path() const {
  const std::size_t question = target.find('?');
  return question == std::string::npos ? target : target.substr(0, question);
}

std::map<std::string, std::string> HttpRequest::query() const {
  std::map<std::string, std::string> parameters;
  const std::size_t question = target.find('?');
  if (question == std::string::npos) return parameters;
  const std::string_view query_string = std::string_view(target).substr(question + 1);
  for (const auto pair : util::split(query_string, '&')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      parameters.emplace(std::string(pair), "");
    } else {
      parameters.emplace(std::string(pair.substr(0, eq)), std::string(pair.substr(eq + 1)));
    }
  }
  return parameters;
}

namespace {

void append_headers(const Headers& headers, std::string& out) {
  for (const auto& [name, value] : headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
}

}  // namespace

void HttpRequest::serialize_into(std::string& out) const {
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\n";
  append_headers(headers, out);
  if (!body.empty() && !headers.contains("Content-Length")) {
    out += "Content-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
}

std::string HttpRequest::serialize() const {
  std::string out;
  serialize_into(out);
  return out;
}

void HttpResponse::serialize_into(std::string& out) const {
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\n";
  append_headers(headers, out);
  if (!headers.contains("Content-Length")) {
    out += "Content-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
}

std::string HttpResponse::serialize() const {
  std::string out;
  serialize_into(out);
  return out;
}

HttpResponse HttpResponse::text(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.reason = status == 200   ? "OK"
                    : status == 404 ? "Not Found"
                    : status == 400 ? "Bad Request"
                    : status == 403 ? "Forbidden"
                    : status == 429 ? "Too Many Requests"
                                    : "Status";
  response.headers["Content-Type"] = "text/plain";
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::json(int status, std::string body) {
  HttpResponse response = text(status, std::move(body));
  response.headers["Content-Type"] = "application/json";
  return response;
}

namespace {

bool parse_headers(std::string_view block, Headers& headers) {
  while (!block.empty()) {
    const std::size_t eol = block.find("\r\n");
    const std::string_view line = eol == std::string_view::npos ? block : block.substr(0, eol);
    block.remove_prefix(eol == std::string_view::npos ? block.size() : eol + 2);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    const std::string_view name = util::trim(line.substr(0, colon));
    const std::string_view value = util::trim(line.substr(colon + 1));
    if (util::equals_ci(name, "Transfer-Encoding")) {
      throw HttpFramingError("HttpReader: Transfer-Encoding is not supported");
    }
    const auto [it, inserted] = headers.emplace(std::string(name), std::string(value));
    // Other repeated headers keep their first value; a second Content-Length
    // must agree with the first, or the body's end is ambiguous.
    if (!inserted && util::equals_ci(name, "Content-Length") && it->second != value) {
      throw HttpFramingError("HttpReader: conflicting Content-Length values");
    }
  }
  return true;
}

}  // namespace

bool parse_request_head(std::string_view head, HttpRequest& out) {
  const std::size_t eol = head.find("\r\n");
  if (eol == std::string_view::npos) return false;
  const std::string_view request_line = head.substr(0, eol);

  const auto parts = util::split(request_line, ' ');
  if (parts.size() != 3) return false;
  if (!parts[2].starts_with("HTTP/1.")) return false;
  out.method = std::string(parts[0]);
  out.target = std::string(parts[1]);
  if (out.method.empty() || out.target.empty() || out.target[0] != '/') return false;
  return parse_headers(head.substr(eol + 2), out.headers);
}

bool parse_response_head(std::string_view head, HttpResponse& out) {
  const std::size_t eol = head.find("\r\n");
  if (eol == std::string_view::npos) return false;
  const std::string_view status_line = head.substr(0, eol);

  if (!status_line.starts_with("HTTP/1.")) return false;
  const std::size_t first_space = status_line.find(' ');
  if (first_space == std::string_view::npos) return false;
  const std::size_t second_space = status_line.find(' ', first_space + 1);
  const std::string_view code =
      status_line.substr(first_space + 1, second_space == std::string_view::npos
                                              ? std::string_view::npos
                                              : second_space - first_space - 1);
  std::uint64_t parsed = 0;
  if (!util::parse_u64(code, parsed) || parsed < 100 || parsed > 599) return false;
  out.status = static_cast<int>(parsed);
  out.reason = second_space == std::string_view::npos
                   ? ""
                   : std::string(status_line.substr(second_space + 1));
  return parse_headers(head.substr(eol + 2), out.headers);
}

bool HttpReader::fill() {
  // 16 KiB per read: a pipelined batch of responses arrives in a few reads.
  std::byte chunk[16 * 1024];
  const std::size_t n = stream_.read_some(chunk);
  if (n == 0) return false;
  buffer_.append(reinterpret_cast<const char*>(chunk), n);
  return true;
}

void HttpReader::compact() noexcept {
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > buffer_.size() / 2) {
    // Once per half buffer, not once per message: a pipelined batch is not
    // memmoved for each request taken off its front.
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

std::optional<std::string_view> HttpReader::read_head(bool may_block) {
  for (;;) {
    const std::size_t end = buffer_.find("\r\n\r\n", consumed_);
    if (end != std::string::npos) {
      // Keep the last CRLF.
      const std::string_view head(buffer_.data() + consumed_, end - consumed_ + 2);
      consumed_ = end + 4;
      return head;
    }
    if (buffer_.size() - consumed_ > max_head_) {
      throw std::runtime_error("HttpReader: header block too large");
    }
    if (!may_block) return std::nullopt;
    if (!fill()) {
      if (buffer_.size() == consumed_) return std::nullopt;  // clean EOF
      throw std::runtime_error("HttpReader: EOF inside header block");
    }
  }
}

std::optional<std::string> HttpReader::read_body(const Headers& headers, bool may_block) {
  const auto it = headers.find("Content-Length");
  if (it == headers.end()) return std::string();
  std::uint64_t length = 0;
  if (!util::parse_u64(it->second, length)) {
    throw std::runtime_error("HttpReader: bad Content-Length");
  }
  if (length > max_body_) throw std::runtime_error("HttpReader: body too large");
  while (buffer_.size() - consumed_ < length) {
    if (!may_block) return std::nullopt;
    if (!fill()) throw std::runtime_error("HttpReader: EOF inside body");
  }
  std::string body = buffer_.substr(consumed_, length);
  consumed_ += length;
  return body;
}

template <typename Message>
std::optional<Message> HttpReader::read_message(bool may_block) {
  const std::size_t start = consumed_;
  const auto head = read_head(may_block);
  if (!head.has_value()) return std::nullopt;
  Message message;
  if constexpr (std::is_same_v<Message, HttpRequest>) {
    if (!parse_request_head(*head, message)) {
      throw std::runtime_error("HttpReader: malformed request head");
    }
  } else {
    if (!parse_response_head(*head, message)) {
      throw std::runtime_error("HttpReader: malformed response head");
    }
  }
  auto body = read_body(message.headers, may_block);
  if (!body.has_value()) {
    consumed_ = start;  // the body is not all here yet: leave the message whole
    return std::nullopt;
  }
  message.body = std::move(*body);
  compact();
  return message;
}

std::optional<HttpRequest> HttpReader::read_request() {
  return read_message<HttpRequest>(/*may_block=*/true);
}

std::optional<HttpRequest> HttpReader::buffered_request() {
  return read_message<HttpRequest>(/*may_block=*/false);
}

std::optional<HttpResponse> HttpReader::read_response() {
  return read_message<HttpResponse>(/*may_block=*/true);
}

}  // namespace appstore::net
