// Strict text-to-number parsing for command-line flags and on-disk rows.
#pragma once

#include <charconv>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace sfab {

/// `text` as a T, or nullopt unless std::from_chars consumes the whole
/// string and the value fits T. No whitespace, no '+', no base prefix,
/// and for unsigned T no '-': "-1" never wraps and "4294967298" never
/// truncates into an unsigned.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) noexcept {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// `text` as the unsigned T of the command-line flag `flag`. A sign,
/// whitespace, a base prefix, trailing characters or a value T cannot hold
/// throws std::invalid_argument naming the flag — never a wrapped or
/// truncated count.
template <class T>
[[nodiscard]] T parse_unsigned_flag(const std::string& flag,
                                    const std::string& text) {
  const std::optional<T> value = parse_number<T>(text);
  if (!value) {
    throw std::invalid_argument(flag + " expects an unsigned integer, got '" +
                                text + "'");
  }
  return *value;
}

}  // namespace sfab
