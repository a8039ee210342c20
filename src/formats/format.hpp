// Matrix storage format identifiers.
//
// The five *basic* formats are the ones the paper studies (Section III):
// DEN (dense), CSR (compressed sparse row), COO (coordinate),
// ELL (ELLPACK/ITPACK) and DIA (diagonal). The paper notes that "most of
// the other storage formats can be derived from these basic formats".
// HYB (an ELL slab plus COO overflow) is implemented as an *extended*
// format: the empirical autotuner can consider it, while the paper-
// reproduction benches stick to the basic five.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace ls {

/// Storage format identifier. Values are stable and usable as array indices.
enum class Format : int {
  // The paper's five basic formats.
  kDEN = 0,
  kCSR = 1,
  kCOO = 2,
  kELL = 3,
  kDIA = 4,
  // Derived formats (Section III-A's "other storage formats").
  // 5 was CSC, 6 was BCSR and 8 was JDS (all removed). Freed values are not
  // reused, so every other format keeps the value it always had.
  kHYB = 7,
};

/// Number of basic (paper) formats.
inline constexpr int kNumBasicFormats = 5;

/// Upper bound on the right-hand-side count of one multiply_dense_batch
/// call (keeps per-thread accumulator blocks on the stack). Callers wanting
/// more rows per batch split into chunks of at most this size.
inline constexpr int kMaxSmsvBatch = 64;

/// One past the largest Format value: the size of arrays indexed by Format.
/// Larger than the number of formats by the freed values 5 and 6 (see
/// Format).
inline constexpr int kNumFormats = 8;

/// The paper's basic formats in Table II column order (DEN CSR COO ELL DIA).
inline constexpr std::array<Format, kNumBasicFormats> kAllFormats = {
    Format::kDEN, Format::kCSR, Format::kCOO, Format::kELL, Format::kDIA};

/// Every supported format, basic + derived.
inline constexpr std::array<Format, 6> kExtendedFormats = {
    Format::kDEN, Format::kCSR, Format::kCOO,
    Format::kELL, Format::kDIA, Format::kHYB};

/// Short upper-case name as printed in the paper's tables.
constexpr std::string_view format_name(Format f) {
  switch (f) {
    case Format::kDEN: return "DEN";
    case Format::kCSR: return "CSR";
    case Format::kCOO: return "COO";
    case Format::kELL: return "ELL";
    case Format::kDIA: return "DIA";
    case Format::kHYB: return "HYB";
  }
  return "???";
}

/// Parses a format name (case-sensitive, as printed by format_name).
inline Format parse_format(std::string_view name) {
  for (Format f : kExtendedFormats) {
    if (format_name(f) == name) return f;
  }
  throw Error("unknown format name: '" + std::string(name) +
              "' (expected DEN, CSR, COO, ELL, DIA or HYB)");
}

}  // namespace ls
