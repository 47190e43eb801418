/// \file count.cpp
/// \brief Digits-only, range-checked count parsing and finite,
/// non-negative seconds parsing.

#include "cli/count.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace leq {

std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t max) {
    if (text.empty()) { return std::nullopt; }
    // from_chars takes no sign and no white space for an unsigned type, and
    // reports overflow instead of wrapping
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value > max) {
        return std::nullopt;
    }
    return value;
}

std::optional<double> parse_seconds(std::string_view text) {
    // from_chars takes no white space and no '+', but does take '-', "inf"
    // and "nan"; the sign check and isfinite reject those
    if (text.empty() || text.front() == '-') { return std::nullopt; }
    double value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
        return std::nullopt;
    }
    return value;
}

} // namespace leq
