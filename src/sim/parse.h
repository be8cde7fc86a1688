// Checked parsing for every number a user types: CLI flags, batch-spec
// keys and fault-spec fields all go through parse_decimal (integers)
// or parse_real (probabilities, percentages), so "18446744073709551617"
// or a core count that only fits after truncation is rejected instead
// of wrapping into a different value, and "1e-9x" is rejected instead
// of read as its prefix.
#pragma once

#include <charconv>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace rrb {

/// All of `text` as a base-10 unsigned integer that fits T: digits only
/// (no sign, space, prefix or suffix) and no value above
/// std::numeric_limits<T>::max(). nullopt otherwise.
template <typename T>
[[nodiscard]] std::optional<T> parse_decimal(std::string_view text) noexcept {
    static_assert(std::is_unsigned_v<T>, "parse_decimal reads unsigned values");
    T value{};
    const char* const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (text.empty() || error != std::errc{} || stop != end) {
        return std::nullopt;
    }
    return value;
}

/// All of `text` as a double, read by std::strtod ("1e-9", "0.001",
/// "2.5"): whatever strtod reads, provided it reads every character.
/// An empty text or any unread suffix yields nullopt; range checks are
/// the caller's.
[[nodiscard]] inline std::optional<double> parse_real(std::string_view text) {
    const std::string owned(text);
    char* end = nullptr;
    const double value = std::strtod(owned.c_str(), &end);
    if (owned.empty() || end != owned.c_str() + owned.size()) {
        return std::nullopt;
    }
    return value;
}

/// What parse_decimal<T> accepts, for error messages:
/// "a number from 0 to <max>".
template <typename T>
[[nodiscard]] std::string decimal_range() {
    return "a number from 0 to " +
           std::to_string(std::numeric_limits<T>::max());
}

}  // namespace rrb
