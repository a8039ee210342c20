#include "common/fs_atomic.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/failpoint.hpp"

namespace ls {

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table
// (reflected polynomial 0xEDB88320); kCrcTables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups fold eight input bytes
// at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// The 8-byte step loads two little-endian words.
static_assert(std::endian::native == std::endian::little,
              "crc32's slicing-by-8 step assumes a little-endian host");

/// Removes the temp file on every exit path of atomic_write_file.
struct TempGuard {
  std::string path;
  bool armed = true;
  ~TempGuard() {
    if (armed) std::remove(path.c_str());
  }
};

std::string footer_line(std::uint32_t crc) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%s%08x\n", kCrcFooterTag, crc);
  return buf;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::string& bytes) {
  return crc32(bytes.data(), bytes.size());
}

void atomic_write_file(const std::string& path, const std::string& content,
                       bool with_crc_footer) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  TempGuard guard{tmp};

  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  LS_CHECK(f != nullptr, "cannot create temp file: " << tmp);
  bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
            content.size();
  // ENOSPC stand-in: a full disk surfaces as fwrite/fflush reporting fewer
  // bytes than asked, which must flow through the same `ok` bookkeeping as
  // the real thing — cleanup of the temp file, destination untouched.
  ok = ok && !LS_FAILPOINT_FAILS("fs.atomic.short_write");
  // Crash simulation point: payload written, rename not yet performed — a
  // failure here must leave the destination file untouched.
  LS_FAILPOINT("fs.atomic.write");
  if (ok && with_crc_footer) {
    const std::string footer = footer_line(crc32(content));
    ok = std::fwrite(footer.data(), 1, footer.size(), f) == footer.size();
  }
  ok = (std::fflush(f) == 0) && ok;
  ok = (::fsync(::fileno(f)) == 0) && ok;
  ok = (std::fclose(f) == 0) && ok;
  LS_CHECK(ok, "failed writing temp file: " << tmp);

  LS_FAILPOINT("fs.atomic.rename");
  LS_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
           "failed renaming " << tmp << " over " << path);
  guard.armed = false;  // the temp file no longer exists under its old name
}

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& producer,
                       bool with_crc_footer) {
  std::ostringstream os;
  os.precision(17);
  producer(os);
  atomic_write_file(path, os.str(), with_crc_footer);
}

std::string read_file_verified(const std::string& path, bool require_footer) {
  std::ifstream in(path, std::ios::binary);
  LS_CHECK(in.good(), "cannot open file: " << path);
  std::ostringstream os;
  os << in.rdbuf();
  LS_CHECK(!in.bad(), "failed reading file: " << path);
  std::string bytes = os.str();

  // The footer, when present, is the final "#crc32 xxxxxxxx\n" line.
  constexpr std::size_t kFooterLen = 16;  // 7 tag + 8 hex + '\n'
  const bool has_footer =
      bytes.size() >= kFooterLen &&
      bytes.compare(bytes.size() - kFooterLen, 7, kCrcFooterTag) == 0;
  LS_CHECK(has_footer || !require_footer, "no CRC footer in " << path);
  if (has_footer) {
    const std::size_t at = bytes.size() - kFooterLen;
    const std::string hex = bytes.substr(at + 7, 8);
    LS_CHECK(hex.find_first_not_of("0123456789abcdef") == std::string::npos &&
                 bytes.back() == '\n',
             "malformed CRC footer in " << path);
    const std::uint32_t stored =
        static_cast<std::uint32_t>(std::stoul(hex, nullptr, 16));
    bytes.resize(at);
    const std::uint32_t actual = crc32(bytes);
    LS_CHECK(stored == actual,
             "CRC mismatch in " << path << ": footer says " << stored
                                << ", content hashes to " << actual
                                << " — file is corrupt");
  }
  return bytes;
}

bool file_exists(const std::string& path) {
  struct ::stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace ls
