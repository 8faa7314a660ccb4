#pragma once

/// \file text.h
/// Small shared string utilities: trimming and the edit-distance machinery
/// behind every "did you mean" suggestion (unknown flags, scenario keys,
/// probe names).  Kept out of flags.h so the core library does not depend
/// on the command-line flag parser.  Numbers are read by json_parse.h.

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace sgl {

/// `text` without leading/trailing ASCII whitespace (space, tab, CR).
[[nodiscard]] std::string_view trim_ascii(std::string_view text) noexcept;

/// Levenshtein edit distance (insert / delete / substitute).
[[nodiscard]] std::size_t edit_distance(std::string_view a, std::string_view b);

/// The candidate closest to `name` by edit distance, or "" when nothing is
/// close enough to be a plausible typo (within max(2, |name|/3) edits).
[[nodiscard]] std::string closest_name(std::string_view name,
                                       std::span<const std::string_view> candidates);

}  // namespace sgl
