// Text primitives behind every reader and writer of the project's text
// inputs: checkpoints, `.lumirec` recordings, the DSL, topology and shard
// specs, CLI flags and the JSON reports (formats in docs/FORMATS.md).  Each
// primitive has one rule and no per-format switch:
//  - numbers: std::from_chars over the whole field (no '+', no whitespace);
//  - tokens: '%' and every byte outside 0x21..0x7e become '%' plus two
//    lowercase hex digits, and the empty string is a bare "%";
//  - lines: a keyword, then fields separated by exactly one space; a
//    trailing '\r' is dropped.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace lumi {

/// The strict number parser behind every numeric field and flag: true, with
/// `out` written, when the whole of `text` is one base-10 number of T as
/// std::from_chars reads it (no whitespace, no '+', no sign for unsigned T,
/// nothing out of T's range), no smaller than `lo`, and finite when T is
/// floating.  False, with `out` untouched, otherwise.
template <class T>
bool parse_number(std::string_view text, T& out,
                  std::type_identity_t<T> lo = std::numeric_limits<T>::lowest()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  if (value < lo) return false;
  out = value;
  return true;
}

/// `s` as one space-free token of printable ASCII.
std::string encode_token(std::string_view s);
/// The inverse of encode_token, reading hex digits in either case.  Throws
/// std::runtime_error on a truncated or non-hex escape, or on a raw byte
/// that encode_token escapes.
std::string decode_token(std::string_view token);

/// `value` as exactly 16 lowercase hex digits.
std::string hex16(std::uint64_t value);
/// True, with `out` written, when `text` is exactly 16 hex digits.
bool parse_hex16(std::string_view text, std::uint64_t& out);

/// Escapes `s` for embedding inside a JSON string literal (RFC 8259):
/// quote, backslash and control characters.
std::string json_escape(std::string_view s);

/// Reads a text whose lines each open with a keyword.  Errors are
/// std::runtime_error without a line number; the format's parser prefixes
/// lineno() to them.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// The fields of the next line, which must be `key` alone or `key`
  /// followed by fields each after exactly one space.  Throws at the end of
  /// the text, on another keyword, and on an empty field (a doubled or
  /// trailing space).  Later errors quote `key`, so it must outlive the
  /// reader: callers pass literals.
  std::vector<std::string_view> fields(std::string_view key);
  /// fields(key), which must number exactly `n`.
  std::vector<std::string_view> fields(std::string_view key, std::size_t n);
  /// The one field of the next line.
  std::string_view field(std::string_view key) { return fields(key, 1)[0]; }
  /// Whether the next line opens with `key`; reads nothing.
  bool next_is(std::string_view key) const;
  /// The next line verbatim.
  std::string_view line() { return next_line("a line"); }
  /// parse_number of a field of the line read last; throws naming the
  /// field and its line's keyword.
  template <class T>
  T number(std::string_view field,
           std::type_identity_t<T> lo = std::numeric_limits<T>::lowest()) const {
    T value{};
    if (!parse_number(field, value, lo)) bad_number(field);
    return value;
  }
  bool at_end() const { return pos_ >= text_.size(); }
  /// 1-based number of the line read last.
  std::size_t lineno() const { return lineno_; }

 private:
  std::string_view peek(std::size_t& next) const;
  std::string_view next_line(std::string_view wanted);
  [[noreturn]] void bad_number(std::string_view field) const;

  std::string_view text_;
  std::string_view key_;  ///< keyword of the line read last
  std::size_t pos_ = 0;
  std::size_t lineno_ = 0;
};

/// Writes `content` to `path + ".tmp"`, then renames it over `path`, so a
/// reader (or a resume after a kill) never sees a torn file.  False on I/O
/// failure.
bool write_file_atomic(const std::string& path, std::string_view content);

/// The file's bytes; std::nullopt when `path` does not exist.  Throws
/// std::runtime_error when it exists but cannot be read, so a caller never
/// mistakes a present file for an absent one.
std::optional<std::string> read_file(const std::string& path);

}  // namespace lumi
