#include "crawler/json.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace appstore::crawlersim {

const Json* Json::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : as_object()) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* value = find(key);
  if (value == nullptr) throw std::out_of_range("Json::at: missing key " + std::string(key));
  return *value;
}

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Bytes a JSON string cannot carry verbatim: quote, backslash, C0 controls.
[[nodiscard]] bool needs_escape(char c) noexcept {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void write_escaped(std::string& out, std::string_view text) {
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (!needs_escape(c)) continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const char code[] = {'\\', 'u', '0', '0', kHexDigits[(c >> 4) & 0xF],
                             kHexDigits[c & 0xF]};
        out.append(code, sizeof code);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out.push_back('"');
}

/// The text printf gives: "%.0f" for integers below 2^53 in magnitude
/// (negative zero prints "-0"), "%.17g" otherwise; `std::to_chars` with an
/// explicit precision is specified to produce exactly printf's digits.
void write_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  char buffer[32];
  if (std::fabs(value) < 0x1p53) {
    const auto whole = static_cast<std::int64_t>(value);
    if (static_cast<double>(whole) == value) {
      if (whole == 0 && std::signbit(value)) {
        out += "-0";
      } else {
        out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, whole).ptr);
      }
      return;
    }
  }
  out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value,
                                   std::chars_format::general, 17)
                         .ptr);
}

}  // namespace

void Json::write(std::string& out) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    write_number(out, as_number());
  } else if (is_string()) {
    write_escaped(out, as_string());
  } else if (is_array()) {
    out.push_back('[');
    bool first = true;
    for (const auto& element : as_array()) {
      if (!first) out.push_back(',');
      first = false;
      element.write(out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : as_object()) {
      if (!first) out.push_back(',');
      first = false;
      write_escaped(out, key);
      out.push_back(':');
      value.write(out);
    }
    out.push_back('}');
  }
}

std::string Json::dump() const {
  std::string out;
  out.reserve(256);  // past the first few doublings of every response body
  write(out);
  return out;
}

namespace {

/// Recursive-descent parser that builds each value in its final slot: a
/// value is read into a local of its own type (double, string, array,
/// object) and handed to an `emit` callback, which constructs the Json in
/// place as an array element, an object member or the result. Character
/// classes are spelled out rather than taken from <cctype>, so the accepted
/// language is the C locale's whatever the process locale is.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  [[nodiscard]] std::optional<Json> parse() {
    std::optional<Json> result;
    if (!parse_value([&](auto&& value) { result.emplace(std::forward<decltype(value)>(value)); })) {
      return std::nullopt;
    }
    skip_whitespace();
    if (position_ != text_.size()) return std::nullopt;  // trailing garbage
    return result;
  }

 private:
  /// The C locale's isspace set: space, \t, \n, \v, \f, \r.
  [[nodiscard]] static bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  [[nodiscard]] static bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

  void skip_whitespace() {
    while (position_ < text_.size() && is_space(text_[position_])) ++position_;
  }

  [[nodiscard]] bool consume(char expected) {
    if (position_ < text_.size() && text_[position_] == expected) {
      ++position_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_literal(std::string_view literal) {
    if (text_.substr(position_, literal.size()) == literal) {
      position_ += literal.size();
      return true;
    }
    return false;
  }

  /// Parses one value and passes it to `emit` (as nullptr, bool, double,
  /// std::string, JsonArray or JsonObject); false on a syntax error.
  template <typename Emit>
  [[nodiscard]] bool parse_value(Emit&& emit) {
    if (depth_ > kMaxDepth) return false;
    skip_whitespace();
    if (position_ >= text_.size()) return false;
    switch (text_[position_]) {
      case 'n':
        if (!consume_literal("null")) return false;
        emit(nullptr);
        return true;
      case 't':
        if (!consume_literal("true")) return false;
        emit(true);
        return true;
      case 'f':
        if (!consume_literal("false")) return false;
        emit(false);
        return true;
      case '"': {
        std::string text;
        if (!parse_string(text)) return false;
        emit(std::move(text));
        return true;
      }
      case '[': {
        JsonArray array;
        if (!parse_array(array)) return false;
        emit(std::move(array));
        return true;
      }
      case '{': {
        JsonObject object;
        if (!parse_object(object)) return false;
        emit(std::move(object));
        return true;
      }
      default: {
        double value = 0.0;
        if (!parse_number(value)) return false;
        emit(value);
        return true;
      }
    }
  }

  [[nodiscard]] bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    for (;;) {
      // Everything up to the next quote or backslash is copied verbatim.
      std::size_t stop = position_;
      while (stop < text_.size() && text_[stop] != '"' && text_[stop] != '\\') ++stop;
      if (stop == text_.size()) return false;  // unterminated
      out.append(text_.data() + position_, stop - position_);
      position_ = stop + 1;
      if (text_[stop] == '"') return true;
      if (position_ >= text_.size()) return false;
      const char escape = text_[position_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (position_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[position_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // the service emits ASCII only).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
  }

  /// Takes the longest run of number characters and accepts it iff
  /// std::from_chars consumes all of it. Short digit-only runs (the service's
  /// ids and counts) are summed directly: below 2^53 that is the exact value
  /// from_chars would give.
  [[nodiscard]] bool parse_number(double& out) {
    const std::size_t start = position_;
    const bool negative = position_ < text_.size() && text_[position_] == '-';
    if (negative) ++position_;
    const std::size_t digits_start = position_;
    std::uint64_t whole = 0;
    while (position_ < text_.size() && is_digit(text_[position_])) {
      whole = whole * 10 + static_cast<std::uint64_t>(text_[position_] - '0');
      ++position_;
    }
    const std::size_t digits = position_ - digits_start;
    while (position_ < text_.size() &&
           (is_digit(text_[position_]) || text_[position_] == '.' || text_[position_] == 'e' ||
            text_[position_] == 'E' || text_[position_] == '+' || text_[position_] == '-')) {
      ++position_;
    }
    if (position_ == start) return false;
    if (digits > 0 && digits <= kExactDigits && position_ == digits_start + digits) {
      const auto value = static_cast<double>(whole);
      out = negative ? -value : value;
      return true;
    }
    const auto* last = text_.data() + position_;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, last, out);
    return ec == std::errc{} && ptr == last;
  }

  [[nodiscard]] bool parse_array(JsonArray& array) {
    ++position_;  // '['
    ++depth_;
    skip_whitespace();
    if (!consume(']')) {
      array.reserve(kArrayReserve);
      const auto append = [&](auto&& value) {
        array.emplace_back(std::forward<decltype(value)>(value));
      };
      for (;;) {
        if (!parse_value(append)) return false;
        skip_whitespace();
        if (consume(']')) break;
        if (!consume(',')) return false;
      }
    }
    --depth_;
    return true;
  }

  [[nodiscard]] bool parse_object(JsonObject& object) {
    ++position_;  // '{'
    ++depth_;
    skip_whitespace();
    if (!consume('}')) {
      for (;;) {
        skip_whitespace();
        std::string key;
        if (!parse_string(key)) return false;
        skip_whitespace();
        if (!consume(':')) return false;
        const auto add = [&](auto&& value) {
          object.emplace_back(std::piecewise_construct, std::forward_as_tuple(std::move(key)),
                              std::forward_as_tuple(std::forward<decltype(value)>(value)));
        };
        if (!parse_value(add)) return false;
        skip_whitespace();
        if (consume('}')) break;
        if (!consume(',')) return false;
      }
    }
    --depth_;
    return true;
  }

  static constexpr int kMaxDepth = 128;
  /// Up to 15 decimal digits is below 10^15 < 2^53: every such integer is a
  /// double exactly, so summing digits cannot round.
  static constexpr std::size_t kExactDigits = 15;
  /// First allocation of a non-empty array; the service's pair rows fit.
  static constexpr std::size_t kArrayReserve = 4;

  std::string_view text_;
  std::size_t position_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<Json> parse_json(std::string_view text) { return Parser(text).parse(); }

Json json_object(JsonObject members) { return Json(std::move(members)); }

}  // namespace appstore::crawlersim
