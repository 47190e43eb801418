/// \file count.hpp
/// \brief The parsers for non-negative numeric arguments: integer counts
/// (flag values, `gen:` seeds and scales, bench repeat counts) and seconds
/// (every `--time-limit` and `leq_bench_run --table1`).
///
/// `std::stoul` is the wrong tool for a count: it skips leading white
/// space, accepts a sign and wraps "-1" to 2^64-1, and a cast to a
/// narrower type then truncates silently.  `std::stod` is as loose for
/// seconds, and also takes "inf" and "nan".  `parse_count` accepts decimal
/// digits only and rejects values above the caller's range; `parse_seconds`
/// accepts an unsigned decimal that is finite.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace leq {

/// `text` as a decimal count in [0, max]; nullopt when it is empty, holds
/// anything but the digits 0-9, or exceeds `max`.
[[nodiscard]] std::optional<std::uint64_t>
parse_count(std::string_view text, std::uint64_t max = UINT64_MAX);

/// `text` as a number of seconds (decimal, optional fraction and exponent,
/// e.g. "2", "0.5", "1e3"); nullopt when it is empty, carries a sign or
/// white space, has trailing characters, or is not finite ("inf", "nan").
[[nodiscard]] std::optional<double> parse_seconds(std::string_view text);

} // namespace leq
