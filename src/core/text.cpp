#include "src/core/text.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace lumi {

namespace {

[[noreturn]] void fail(std::initializer_list<std::string_view> parts) {
  std::string what;
  for (const std::string_view part : parts) what.append(part);
  throw std::runtime_error(what);
}

bool plain(unsigned char c) { return c != '%' && c > 0x20 && c < 0x7f; }

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool opens_with(std::string_view line, std::string_view key) {
  return line.starts_with(key) && (line.size() == key.size() || line[key.size()] == ' ');
}

}  // namespace

std::string encode_token(std::string_view s) {
  if (s.empty()) return "%";
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    if (plain(static_cast<unsigned char>(raw))) {
      out.push_back(raw);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02x", static_cast<unsigned char>(raw));
      out.append(buf);
    }
  }
  return out;
}

std::string decode_token(std::string_view token) {
  if (token == "%") return "";
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      if (!plain(static_cast<unsigned char>(token[i]))) {
        fail({"unescaped byte in token '", token, "'"});
      }
      out.push_back(token[i]);
      continue;
    }
    const int hi = i + 2 < token.size() ? hex_digit(token[i + 1]) : -1;
    const int lo = i + 2 < token.size() ? hex_digit(token[i + 2]) : -1;
    if (hi < 0 || lo < 0) fail({"bad %-escape '", token.substr(i, 3), "'"});
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

std::string hex16(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

bool parse_hex16(std::string_view text, std::uint64_t& out) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value, 16);
  if (text.size() != 16 || error != std::errc{} || stop != end) return false;
  out = value;
  return true;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(raw);
        }
    }
  }
  return out;
}

std::string_view LineReader::peek(std::size_t& next) const {
  const std::size_t newline = text_.find('\n', pos_);
  next = newline == std::string_view::npos ? text_.size() : newline + 1;
  std::string_view line = text_.substr(pos_, next - pos_);
  if (line.ends_with('\n')) line.remove_suffix(1);
  if (line.ends_with('\r')) line.remove_suffix(1);
  return line;
}

std::string_view LineReader::next_line(std::string_view wanted) {
  ++lineno_;
  if (at_end()) fail({"unexpected end of file, wanted '", wanted, "'"});
  std::size_t next = 0;
  const std::string_view line = peek(next);
  pos_ = next;
  return line;
}

bool LineReader::next_is(std::string_view key) const {
  std::size_t next = 0;
  return !at_end() && opens_with(peek(next), key);
}

void LineReader::bad_number(std::string_view field) const {
  fail({"bad number '", field, "' in '", key_, "'"});
}

std::vector<std::string_view> LineReader::fields(std::string_view key) {
  key_ = key;
  const std::string_view line = next_line(key);
  if (!opens_with(line, key)) fail({"expected '", key, " ...', got '", line, "'"});
  std::vector<std::string_view> out;
  for (std::size_t space = key.size(); space < line.size();) {
    const std::size_t stop = std::min(line.find(' ', space + 1), line.size());
    out.push_back(line.substr(space + 1, stop - space - 1));
    if (out.back().empty()) fail({"'", key, "' has an empty field (a doubled or trailing space)"});
    space = stop;
  }
  return out;
}

std::vector<std::string_view> LineReader::fields(std::string_view key, std::size_t n) {
  std::vector<std::string_view> out = fields(key);
  if (out.size() != n) {
    fail({"'", key, "' wants ", std::to_string(n), " fields, got ", std::to_string(out.size())});
  }
  return out;
}

bool write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.close();
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::error_code ec;
  if (!in || std::filesystem::is_directory(path, ec)) {
    if (std::filesystem::exists(path, ec)) fail({"'", path, "' exists but cannot be read"});
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace lumi
