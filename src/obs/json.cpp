#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace blunt::obs {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("json: " + what);
}

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) fail("expected bool");
  return std::get<bool>(v_);
}

std::int64_t Json::as_int() const {
  if (is_int()) return std::get<std::int64_t>(v_);
  if (is_double()) {
    const double d = std::get<double>(v_);
    if (std::nearbyint(d) == d) return static_cast<std::int64_t>(d);
  }
  fail("expected integer");
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  if (is_double()) return std::get<double>(v_);
  fail("expected number");
}

const std::string& Json::as_string() const {
  if (!is_string()) fail("expected string");
  return std::get<std::string>(v_);
}

const JsonArray& Json::as_array() const {
  if (!is_array()) fail("expected array");
  return std::get<JsonArray>(v_);
}

JsonArray& Json::as_array() {
  if (!is_array()) fail("expected array");
  return std::get<JsonArray>(v_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) fail("expected object");
  return std::get<JsonObject>(v_);
}

JsonObject& Json::as_object() {
  if (!is_object()) fail("expected object");
  return std::get<JsonObject>(v_);
}

const Json& Json::at(const std::string& key) const {
  const Json* j = find(key);
  if (j == nullptr) fail("missing key \"" + key + "\"");
  return *j;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) fail("expected object for key \"" + key + "\"");
  const auto& obj = std::get<JsonObject>(v_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void dump_rec(const Json& j, std::string& out, int indent, int depth);

void newline_pad(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

std::string dump_double(double d) {
  // JSON has no Inf/NaN. Silently emitting null here once masked broken
  // metrics; a non-finite value is always an upstream bug, so fail loudly.
  if (!std::isfinite(d)) {
    fail("cannot serialize non-finite double (NaN or Inf)");
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, d);
    double back = 0.0;
    std::sscanf(shorter, "%lf", &back);
    if (back == d) {
      std::snprintf(buf, sizeof(buf), "%s", shorter);
      break;
    }
  }
  // A double keeps a fraction or an exponent, so it parses back as a double
  // (0.0 is written "0.0", not the integer "0").
  std::string out = buf;
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

void dump_rec(const Json& j, std::string& out, int indent, int depth) {
  if (j.is_null()) {
    out += "null";
  } else if (j.is_bool()) {
    out += j.as_bool() ? "true" : "false";
  } else if (j.is_int()) {
    out += std::to_string(j.as_int());
  } else if (j.is_double()) {
    out += dump_double(j.as_double());
  } else if (j.is_string()) {
    out += json_quote(j.as_string());
  } else if (j.is_array()) {
    const JsonArray& a = j.as_array();
    if (a.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) out.push_back(',');
      newline_pad(out, indent, depth + 1);
      dump_rec(a[i], out, indent, depth + 1);
    }
    newline_pad(out, indent, depth);
    out.push_back(']');
  } else {
    const JsonObject& o = j.as_object();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : o) {
      if (!first) out.push_back(',');
      first = false;
      newline_pad(out, indent, depth + 1);
      out += json_quote(k);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      dump_rec(v, out, indent, depth + 1);
    }
    newline_pad(out, indent, depth);
    out.push_back('}');
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json j = parse_value();
    skip_ws();
    if (pos_ != s_.size()) error("trailing input");
    return j;
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    fail(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) error("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) error(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        error("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        error("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        error("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      if (peek() != '"') error("expected object key");
      std::string key = parse_string();
      expect(':');
      obj[std::move(key)] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json(std::move(obj));
      if (c != ',') error("expected ',' or '}'");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return Json(std::move(arr));
      if (c != ',') error("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) error("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) error("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              error("bad hex digit in \\u escape");
            }
          }
          // Encode the code point as UTF-8 (the exporter only emits \u for
          // control characters; surrogate pairs are out of scope).
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
        default: error("bad escape");
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool integral = true;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = c == '-' || c == '+' ? integral : false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) error("expected a value");
    const std::string tok = s_.substr(start, pos_ - start);
    try {
      if (integral) return Json(static_cast<std::int64_t>(std::stoll(tok)));
      return Json(std::stod(tok));
    } catch (const std::exception&) {
      error("bad number \"" + tok + "\"");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_rec(*this, out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace blunt::obs
