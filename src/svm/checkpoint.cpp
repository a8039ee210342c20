#include "svm/checkpoint.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/fs_atomic.hpp"

namespace ls {

namespace {

// One binary record: the magic line, u64 iteration, u64 n, then n f64
// alphas and n f64 f values, all in host order (little-endian, the only
// byte order this writer supports); atomic_write_file appends the CRC32
// footer. Binary because a save recurs every checkpoint_interval
// iterations of a solve: it must cost a copy, not 2n number formattings.
static_assert(std::endian::native == std::endian::little,
              "SMO checkpoints are stored in little-endian order");
constexpr char kCheckpointMagic[] = "ls_smo_checkpoint v2\n";
constexpr std::size_t kMagicLen = sizeof(kCheckpointMagic) - 1;
constexpr std::size_t kHeaderLen = kMagicLen + 2 * sizeof(std::uint64_t);

void put(char*& at, const void* src, std::size_t bytes) {
  if (bytes > 0) std::memcpy(at, src, bytes);  // src is null when n = 0
  at += bytes;
}

void get(const char*& at, void* dst, std::size_t bytes) {
  if (bytes > 0) std::memcpy(dst, at, bytes);
  at += bytes;
}

}  // namespace

void save_smo_checkpoint(const std::string& path, const SmoCheckpoint& ck) {
  LS_FAILPOINT("svm.checkpoint.save");
  LS_CHECK(ck.alpha.size() == ck.f.size(),
           "inconsistent checkpoint: alpha/f size mismatch");
  const std::uint64_t iteration = static_cast<std::uint64_t>(ck.iteration);
  const std::uint64_t n = ck.alpha.size();
  const std::size_t vec_bytes = n * sizeof(real_t);
  std::string record(kHeaderLen + 2 * vec_bytes, '\0');
  char* at = record.data();
  put(at, kCheckpointMagic, kMagicLen);
  put(at, &iteration, sizeof(iteration));
  put(at, &n, sizeof(n));
  put(at, ck.alpha.data(), vec_bytes);
  put(at, ck.f.data(), vec_bytes);
  atomic_write_file(path, record);
}

SmoCheckpoint load_smo_checkpoint(const std::string& path) {
  // Every snapshot is written with a footer, so a file without one is a
  // truncated (or foreign) file, never a snapshot.
  const std::string bytes = read_file_verified(path, /*require_footer=*/true);
  LS_CHECK(bytes.size() >= kHeaderLen &&
               bytes.compare(0, kMagicLen, kCheckpointMagic) == 0,
           "bad checkpoint magic in " << path);
  const char* at = bytes.data() + kMagicLen;
  std::uint64_t iteration = 0;
  std::uint64_t n = 0;
  get(at, &iteration, sizeof(iteration));
  get(at, &n, sizeof(n));
  // Exact length, with n bounded before it is multiplied: a record whose
  // n disagrees with its own size cannot load, whatever its footer says.
  const std::size_t payload = bytes.size() - kHeaderLen;
  LS_CHECK(n <= payload / (2 * sizeof(real_t)) &&
               payload == n * 2 * sizeof(real_t),
           "checkpoint " << path << " is " << bytes.size()
                         << " bytes, which does not fit n = " << n);
  LS_CHECK(iteration <= static_cast<std::uint64_t>(
                            std::numeric_limits<index_t>::max()),
           "bad checkpoint iteration in " << path);
  SmoCheckpoint ck;
  ck.iteration = static_cast<index_t>(iteration);
  ck.alpha.resize(n);
  ck.f.resize(n);
  get(at, ck.alpha.data(), n * sizeof(real_t));
  get(at, ck.f.data(), n * sizeof(real_t));
  return ck;
}

std::optional<SmoCheckpoint> try_load_smo_checkpoint(const std::string& path,
                                                     index_t expected_n) {
  if (!file_exists(path)) return std::nullopt;
  try {
    SmoCheckpoint ck = load_smo_checkpoint(path);
    if (expected_n > 0 &&
        ck.alpha.size() != static_cast<std::size_t>(expected_n)) {
      return std::nullopt;
    }
    return ck;
  } catch (const Error&) {
    // Corrupt snapshot (crashed writer predating atomic saves, bit rot, a
    // v1 text snapshot): resuming from garbage is worse than restarting.
    return std::nullopt;
  }
}

void remove_checkpoint(const std::string& path) {
  std::remove(path.c_str());
}

}  // namespace ls
