// Crash-safe file writes and integrity-checked reads.
//
// atomic_write_file() implements the classic tmp + fsync + rename protocol:
// the payload (plus a CRC32 footer line) goes to <path>.tmp.<pid>, is
// flushed to disk, and only then renamed over <path>. POSIX rename is
// atomic, so readers — and a process that crashes mid-save — observe either
// the complete old file or the complete new file, never a truncated mix.
//
// read_file_verified() is the matching reader: it recomputes the CRC32 over
// the payload and throws ls::Error when the footer does not match, turning
// silent corruption (bit rot, partial copies) into a loud, recoverable
// error. Files written before the footer existed load unchanged, unless
// the caller requires one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace ls {

/// CRC32 (IEEE 802.3 reflected polynomial, zlib-compatible) of a byte
/// range. `seed` chains multi-buffer checksums: pass the previous result.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);
std::uint32_t crc32(const std::string& bytes);

/// Footer line appended by atomic_write_file when `with_crc_footer` is set:
/// "#crc32 <8 lowercase hex digits>\n" covering every preceding byte.
inline constexpr const char* kCrcFooterTag = "#crc32 ";

/// Atomically replaces `path` with `content` (+ optional CRC footer).
/// On any failure the previous file is untouched and the temp file is
/// removed; throws ls::Error describing the failed step.
void atomic_write_file(const std::string& path, const std::string& content,
                       bool with_crc_footer = true);

/// Streaming flavour: `producer` writes the payload into the given stream
/// (17-digit precision preset for full double round-trips).
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& producer,
                       bool with_crc_footer = true);

/// Reads the whole file. A trailing CRC footer is verified and stripped
/// (ls::Error on mismatch or a malformed footer); a file without a footer
/// is returned verbatim, unless `require_footer` is set, when it throws.
std::string read_file_verified(const std::string& path,
                               bool require_footer = false);

/// True when `path` names an existing regular file.
bool file_exists(const std::string& path);

}  // namespace ls
