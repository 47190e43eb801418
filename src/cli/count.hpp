/// \file count.hpp
/// \brief The one parser for non-negative integer arguments (flag values,
/// `gen:` seeds and scales, bench repeat counts).
///
/// `std::stoul` is the wrong tool for a count: it skips leading white
/// space, accepts a sign and wraps "-1" to 2^64-1, and a cast to a
/// narrower type then truncates silently.  `parse_count` accepts decimal
/// digits only and rejects values above the caller's range.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace leq {

/// `text` as a decimal count in [0, max]; nullopt when it is empty, holds
/// anything but the digits 0-9, or exceeds `max`.
[[nodiscard]] std::optional<std::uint64_t>
parse_count(std::string_view text, std::uint64_t max = UINT64_MAX);

} // namespace leq
