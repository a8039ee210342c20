// Matrix storage format identifiers.
//
// The five *basic* formats are the ones the paper studies (Section III):
// DEN (dense), CSR (compressed sparse row), COO (coordinate),
// ELL (ELLPACK/ITPACK) and DIA (diagonal). The paper notes that "most of
// the other storage formats can be derived from these basic formats".
// Only these five are implemented: a format stays while it is the measured
// argmin somewhere (docs/adding_a_format.md).
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
};

/// Number of formats: the size of arrays indexed by Format.
inline constexpr int kNumBasicFormats = 5;

/// Upper bound on the right-hand-side count of one multiply_dense_batch
/// call (keeps per-thread accumulator blocks on the stack). Callers wanting
/// more rows per batch split into chunks of at most this size.
inline constexpr int kMaxSmsvBatch = 64;

/// Every format, in Table II column order (DEN CSR COO ELL DIA).
inline constexpr std::array<Format, kNumBasicFormats> kAllFormats = {
    Format::kDEN, Format::kCSR, Format::kCOO, Format::kELL, Format::kDIA};

// kAllFormats lists 0 .. kNumBasicFormats-1 in order, so a Format-indexed
// array has no slot that no format fills.
static_assert([] {
  for (std::size_t i = 0; i < kAllFormats.size(); ++i) {
    if (static_cast<std::size_t>(kAllFormats[i]) != i) return false;
  }
  return true;
}());

/// Short upper-case name as printed in the paper's tables.
constexpr std::string_view format_name(Format f) {
  switch (f) {
    case Format::kDEN: return "DEN";
    case Format::kCSR: return "CSR";
    case Format::kCOO: return "COO";
    case Format::kELL: return "ELL";
    case Format::kDIA: return "DIA";
  }
  return "???";
}

/// Parses a format name (case-sensitive, as printed by format_name).
inline Format parse_format(std::string_view name) {
  for (Format f : kAllFormats) {
    if (format_name(f) == name) return f;
  }
  throw Error("unknown format name: '" + std::string(name) +
              "' (expected DEN, CSR, COO, ELL or DIA)");
}

}  // namespace ls
