// Fault-tolerance suite: failpoint registry semantics, crash-safe file IO,
// checkpoint/resume equivalence for the SMO trainer, scheduler
// degradation paths, kernel-cache memory-pressure behaviour, and robust
// libsvm parsing. Every injected failure uses the named-failpoint registry
// (common/failpoint.hpp) so the recovery code under test is the real
// production path, not a mock.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/fs_atomic.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "data/libsvm_io.hpp"
#include "sched/scheduler.hpp"
#include "svm/cache.hpp"
#include "svm/checkpoint.hpp"
#include "svm/kernel_engine.hpp"
#include "svm/serialize.hpp"
#include "svm/trainer.hpp"

namespace ls {
namespace {

using failpoint::Action;
using failpoint::Scoped;
using failpoint::Spec;

std::string tmp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "ls_fault_" + name;
  std::remove(path.c_str());
  return path;
}

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_raw(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

// ------------------------------------------------------------ failpoints

TEST(Failpoint, InactiveSiteIsANoOp) {
  failpoint::clear();
  EXPECT_NO_THROW(LS_FAILPOINT("fault.test.unused"));
  EXPECT_EQ(failpoint::trigger_count("fault.test.unused"), 0u);
}

TEST(Failpoint, ScopedErrorArmsAndDisarms) {
  const std::size_t before = failpoint::trigger_count("fault.test.err");
  {
    Scoped fp("fault.test.err");
    EXPECT_THROW(LS_FAILPOINT("fault.test.err"), Error);
    // Other sites stay unaffected.
    EXPECT_NO_THROW(LS_FAILPOINT("fault.test.other"));
  }
  EXPECT_NO_THROW(LS_FAILPOINT("fault.test.err"));
  EXPECT_EQ(failpoint::trigger_count("fault.test.err"), before + 1);
}

TEST(Failpoint, SkipAndLimitWindow) {
  Spec spec;
  spec.skip = 2;   // pass twice...
  spec.limit = 1;  // ...then trigger exactly once.
  Scoped fp("fault.test.window", spec);
  EXPECT_NO_THROW(LS_FAILPOINT("fault.test.window"));
  EXPECT_NO_THROW(LS_FAILPOINT("fault.test.window"));
  EXPECT_THROW(LS_FAILPOINT("fault.test.window"), Error);
  EXPECT_NO_THROW(LS_FAILPOINT("fault.test.window"));  // limit exhausted
}

TEST(Failpoint, OomActionThrowsBadAlloc) {
  Spec spec;
  spec.action = Action::kOom;
  Scoped fp("fault.test.oom", spec);
  EXPECT_THROW(LS_FAILPOINT("fault.test.oom"), std::bad_alloc);
}

TEST(Failpoint, ConfigureParsesEnvSyntax) {
  failpoint::configure("fault.cfg.a=error@1*1;fault.cfg.b=delay:1");
  EXPECT_NO_THROW(LS_FAILPOINT("fault.cfg.a"));  // skipped once
  EXPECT_THROW(LS_FAILPOINT("fault.cfg.a"), Error);
  EXPECT_NO_THROW(LS_FAILPOINT("fault.cfg.a"));  // limit reached
  EXPECT_NO_THROW(LS_FAILPOINT("fault.cfg.b"));  // delay completes
  failpoint::deactivate("fault.cfg.a");
  failpoint::deactivate("fault.cfg.b");

  EXPECT_THROW(failpoint::configure("missing-equals"), Error);
  EXPECT_THROW(failpoint::configure("site=explode"), Error);
}

// --------------------------------------------------------- atomic file IO

TEST(FsAtomic, Crc32MatchesKnownVector) {
  // The canonical IEEE CRC32 check value.
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("")), 0u);
  // Seed chaining equals one-shot computation.
  const std::string s = "123456789";
  const std::uint32_t chained = crc32(s.data() + 4, 5, crc32(s.data(), 4));
  EXPECT_EQ(chained, crc32(s));
}

/// Byte-at-a-time CRC32, the definition the sliced crc32 must agree with.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(FsAtomic, SlicedCrc32MatchesBytewiseReference) {
  Rng rng(0xC3C3);
  std::vector<unsigned char> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  // Every length 0-1024 at every start offset 0-7, so the 8-byte step
  // meets every alignment and every tail length.
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(crc32(buf.data() + off, len),
                crc32_bytewise(buf.data() + off, len))
          << "offset " << off << ", length " << len;
    }
  }
  // Chained calls split anywhere equal the one-shot checksum.
  const std::uint32_t whole = crc32_bytewise(buf.data(), buf.size());
  for (std::size_t cut = 0; cut <= buf.size(); cut += 13) {
    const std::uint32_t head = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, head), whole)
        << "cut at " << cut;
  }
}

TEST(FsAtomic, RoundTripWithFooter) {
  const std::string path = tmp_path("roundtrip.txt");
  const std::string payload = "line one\nline two\n";
  atomic_write_file(path, payload);
  const std::string raw = read_raw(path);
  EXPECT_NE(raw.find(kCrcFooterTag), std::string::npos);
  EXPECT_GT(raw.size(), payload.size());
  EXPECT_EQ(read_file_verified(path), payload);
  std::remove(path.c_str());
}

TEST(FsAtomic, DetectsBitRot) {
  const std::string path = tmp_path("bitrot.txt");
  atomic_write_file(path, "sensitive payload\n");
  std::string raw = read_raw(path);
  raw[3] ^= 0x20;  // flip one payload bit
  write_raw(path, raw);
  EXPECT_THROW(read_file_verified(path), Error);
  std::remove(path.c_str());
}

TEST(FsAtomic, FooterlessLegacyFileReadsVerbatim) {
  const std::string path = tmp_path("legacy.txt");
  write_raw(path, "old format, no footer\n");
  EXPECT_EQ(read_file_verified(path), "old format, no footer\n");
  // A caller that requires the footer refuses the same file.
  EXPECT_THROW(read_file_verified(path, /*require_footer=*/true), Error);
  std::remove(path.c_str());
}

TEST(FsAtomic, FooterWithoutItsFinalNewlineIsRejected) {
  const std::string path = tmp_path("footer_newline.txt");
  atomic_write_file(path, "payload\n");
  std::string raw = read_raw(path);
  ASSERT_EQ(raw.back(), '\n');
  raw.back() = ' ';
  write_raw(path, raw);
  EXPECT_THROW(read_file_verified(path), Error);
  std::remove(path.c_str());
}

TEST(FsAtomic, FailedWriteLeavesPreviousFileIntact) {
  const std::string path = tmp_path("intact.txt");
  atomic_write_file(path, "version one\n");
  for (const char* site : {"fs.atomic.write", "fs.atomic.rename"}) {
    Scoped fp(site);
    EXPECT_THROW(atomic_write_file(path, "version two\n"), Error);
    // The old file is untouched and still passes verification.
    EXPECT_EQ(read_file_verified(path), "version one\n");
  }
  // With the failpoints gone the replacement goes through.
  atomic_write_file(path, "version two\n");
  EXPECT_EQ(read_file_verified(path), "version two\n");
  std::remove(path.c_str());
}

TEST(FsAtomic, ShortWriteUnderEnospcLeavesLastGoodFileAndNoTempLitter) {
  const std::string path = tmp_path("enospc.txt");
  atomic_write_file(path, "version one\n");
  {
    // A full disk surfaces as fwrite reporting fewer bytes than asked —
    // an errno-style failure, not an exception at the syscall site. The
    // boolean failpoint drives the production `ok` bookkeeping.
    Scoped fp("fs.atomic.short_write");
    EXPECT_THROW(atomic_write_file(path, "version two\n"), Error);
    EXPECT_GE(failpoint::trigger_count("fs.atomic.short_write"), 1u);
  }
  // Last-good file: intact, verified, byte-identical.
  EXPECT_EQ(read_file_verified(path), "version one\n");
  // No temp litter: the partial ".tmp.<pid>" file was cleaned up, so a
  // retry loop cannot slowly fill the disk it is already starved of.
  EXPECT_FALSE(file_exists(path + ".tmp." + std::to_string(::getpid())));
  // Once space is back the same call succeeds.
  atomic_write_file(path, "version two\n");
  EXPECT_EQ(read_file_verified(path), "version two\n");
  std::remove(path.c_str());
}

TEST(FsAtomic, ShortWriteSiteWithDelayActionIsNotAFailure) {
  const std::string path = tmp_path("enospc_delay.txt");
  // kDelay on a boolean site models slow IO, not failed IO: the write
  // must go through.
  Spec spec;
  spec.action = Action::kDelay;
  spec.delay_ms = 1;
  Scoped fp("fs.atomic.short_write", spec);
  atomic_write_file(path, "slow but fine\n");
  EXPECT_EQ(read_file_verified(path), "slow but fine\n");
  std::remove(path.c_str());
}

// ------------------------------------------------------- model files

/// Builds a dataset directly from dense rows.
Dataset tiny_dataset(const std::vector<std::vector<real_t>>& rows,
                     std::vector<real_t> y) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows[i].size(); ++j) {
      if (rows[i][j] != 0.0) {
        t.push_back({static_cast<index_t>(i), static_cast<index_t>(j),
                     rows[i][j]});
      }
    }
  }
  Dataset ds;
  ds.name = "tiny";
  ds.X = CooMatrix(static_cast<index_t>(rows.size()),
                   static_cast<index_t>(rows[0].size()), std::move(t));
  ds.y = std::move(y);
  return ds;
}

SvmModel trained_tiny_model() {
  const Dataset ds = tiny_dataset(
      {{0.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {1.0, 0.0}},
      {1.0, 1.0, -1.0, -1.0});
  SvmParams params;
  params.kernel.type = KernelType::kGaussian;
  params.kernel.gamma = 2.0;
  params.c = 100.0;
  return train_fixed_format(ds, params, Format::kCSR).model;
}

TEST(ModelFiles, InterruptedSaveLeavesPreviousModelLoadable) {
  const SvmModel model = trained_tiny_model();
  const std::string path = tmp_path("model_atomic.txt");
  save_model_file(path, model);
  const std::string original = read_raw(path);

  SvmModel changed = model;
  changed.rho += 1.0;
  {
    Scoped fp("fs.atomic.write");
    EXPECT_THROW(save_model_file(path, changed), Error);
  }
  // Never truncated, never half-new: byte-identical to the first save, and
  // it still loads to the original model.
  EXPECT_EQ(read_raw(path), original);
  const SvmModel reloaded = load_model_file(path);
  EXPECT_DOUBLE_EQ(reloaded.rho, model.rho);
  ASSERT_EQ(reloaded.coef.size(), model.coef.size());
  std::remove(path.c_str());
}

TEST(ModelFiles, EnospcDuringSaveLeavesPreviousModelLoadable) {
  const SvmModel model = trained_tiny_model();
  const std::string path = tmp_path("model_enospc.txt");
  save_model_file(path, model);
  const std::string original = read_raw(path);

  SvmModel changed = model;
  changed.rho += 1.0;
  {
    // Disk full mid-save: the short write flows through fs_atomic's own
    // error handling instead of an injected throw.
    Scoped fp("fs.atomic.short_write");
    EXPECT_THROW(save_model_file(path, changed), Error);
  }
  EXPECT_EQ(read_raw(path), original);
  EXPECT_FALSE(file_exists(path + ".tmp." + std::to_string(::getpid())));
  const SvmModel reloaded = load_model_file(path);
  EXPECT_DOUBLE_EQ(reloaded.rho, model.rho);
  std::remove(path.c_str());
}

TEST(SvmCheckpoint, EnospcDuringSnapshotKeepsLastGoodCheckpoint) {
  const std::string path = tmp_path("smo_ck_enospc.txt");
  SmoCheckpoint ck;
  ck.iteration = 7;
  ck.alpha = {0.5, 0.5};
  ck.f = {1.0, -1.0};
  save_smo_checkpoint(path, ck);

  SmoCheckpoint newer = ck;
  newer.iteration = 8;
  {
    Scoped fp("fs.atomic.short_write");
    EXPECT_THROW(save_smo_checkpoint(path, newer), Error);
  }
  // A resume after the failed save still lands on the last good snapshot.
  const auto back = try_load_smo_checkpoint(path, 2);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->iteration, 7);
  remove_checkpoint(path);
}

TEST(ModelFiles, CorruptFilesThrowLsError) {
  const SvmModel model = trained_tiny_model();
  const std::string path = tmp_path("model_good.txt");
  save_model_file(path, model);
  const std::string good = read_file_verified(path);

  const std::string bad = tmp_path("model_bad.txt");

  // Truncated mid-file (footer stripped too, so parsing hits EOF).
  write_raw(bad, good.substr(0, good.size() / 2));
  EXPECT_THROW(load_model_file(bad), Error);

  // Wrong magic line.
  write_raw(bad, "ls_wrong_magic v9\n" + good);
  EXPECT_THROW(load_model_file(bad), Error);

  // CRC footer that does not match the payload.
  write_raw(bad, good + kCrcFooterTag + "deadbeef\n");
  EXPECT_THROW(load_model_file(bad), Error);

  // Garbage numeric token inside a support-vector line.
  std::string mangled = good;
  const auto colon = mangled.rfind(':');
  ASSERT_NE(colon, std::string::npos);
  mangled[colon + 1] = 'x';
  write_raw(bad, mangled);
  EXPECT_THROW(load_model_file(bad), Error);

  // Empty file.
  write_raw(bad, "");
  EXPECT_THROW(load_model_file(bad), Error);

  EXPECT_THROW(load_model_file(tmp_path("model_missing.txt")), Error);

  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(ModelFiles, SaveAndLoadFailpointsCoverToolPaths) {
  const SvmModel model = trained_tiny_model();
  const std::string path = tmp_path("model_fp.txt");
  {
    Scoped fp("svm.serialize.save");
    EXPECT_THROW(save_model_file(path, model), Error);
    EXPECT_FALSE(file_exists(path));
  }
  save_model_file(path, model);
  {
    Scoped fp("svm.serialize.load");
    EXPECT_THROW(load_model_file(path), Error);
  }
  std::remove(path.c_str());
}

// -------------------------------------------------- SMO checkpoint/resume

/// Noisy two-class problem that needs a few hundred SMO iterations.
Dataset noisy_dataset(index_t n, index_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<real_t>> rows;
  std::vector<real_t> y;
  for (index_t i = 0; i < n; ++i) {
    std::vector<real_t> row(static_cast<std::size_t>(dim));
    real_t margin = 0.0;
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = rng.uniform(-1.0, 1.0);
      margin += (j % 2 == 0 ? 1.0 : -0.5) * row[j];
    }
    real_t label = margin >= 0 ? 1.0 : -1.0;
    if (rng.uniform() < 0.1) label = -label;  // label noise → more SVs
    rows.push_back(std::move(row));
    y.push_back(label);
  }
  return tiny_dataset(rows, std::move(y));
}

TEST(SvmCheckpoint, SnapshotFileRoundTrips) {
  const std::string path = tmp_path("smo_ck.txt");
  SmoCheckpoint ck;
  ck.iteration = 42;
  ck.alpha = {0.0, 0.25, 1.0};
  ck.f = {-1.0, 0.5, 2.0};
  save_smo_checkpoint(path, ck);

  const SmoCheckpoint back = load_smo_checkpoint(path);
  EXPECT_EQ(back.iteration, 42);
  ASSERT_EQ(back.alpha.size(), 3u);
  EXPECT_DOUBLE_EQ(back.alpha[1], 0.25);
  EXPECT_DOUBLE_EQ(back.f[2], 2.0);

  // Size guard: a snapshot for a different problem is treated as absent.
  EXPECT_TRUE(try_load_smo_checkpoint(path, 3).has_value());
  EXPECT_FALSE(try_load_smo_checkpoint(path, 7).has_value());

  // Corrupt and missing snapshots are treated as absent too.
  write_raw(path, "not a checkpoint at all\n");
  EXPECT_FALSE(try_load_smo_checkpoint(path).has_value());
  EXPECT_THROW(load_smo_checkpoint(path), Error);
  remove_checkpoint(path);
  EXPECT_FALSE(try_load_smo_checkpoint(path).has_value());
}

bool same_snapshot(const SmoCheckpoint& a, const SmoCheckpoint& b) {
  const auto same_bits = [](const std::vector<real_t>& x,
                            const std::vector<real_t>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(real_t)) == 0);
  };
  return a.iteration == b.iteration && same_bits(a.alpha, b.alpha) &&
         same_bits(a.f, b.f);
}

TEST(SvmCheckpoint, RoundTripIsBitExact) {
  Rng rng(0xB17E);
  SmoCheckpoint ck;
  ck.iteration = 123456789;
  ck.alpha = {-0.0, std::numeric_limits<real_t>::denorm_min(), 1e-310,
              1e-300, std::numeric_limits<real_t>::max()};
  ck.f = {0.0, -std::numeric_limits<real_t>::denorm_min(), -1e-310,
          -1e-300, std::numeric_limits<real_t>::lowest()};
  for (int i = 0; i < 64; ++i) {
    real_t a = 0.0;
    real_t f = 0.0;
    const std::uint64_t ab = rng();
    const std::uint64_t fb = rng();
    std::memcpy(&a, &ab, sizeof(a));  // any bit pattern, NaNs included
    std::memcpy(&f, &fb, sizeof(f));
    ck.alpha.push_back(a);
    ck.f.push_back(f);
  }
  const std::string path = tmp_path("smo_ck_bits.bin");
  save_smo_checkpoint(path, ck);
  EXPECT_TRUE(same_snapshot(load_smo_checkpoint(path), ck));
  remove_checkpoint(path);
}

TEST(SvmCheckpoint, TextV1FileCountsAsAbsent) {
  // A snapshot in the retired text encoding, CRC footer intact.
  const std::string path = tmp_path("smo_ck_v1.txt");
  atomic_write_file(path,
                    "ls_smo_checkpoint v1\niteration 42\nn 3\n"
                    "alpha 0 0.25 1\nf -1 0.5 2\n");
  EXPECT_FALSE(try_load_smo_checkpoint(path, 3).has_value());
  EXPECT_THROW(load_smo_checkpoint(path), Error);
  remove_checkpoint(path);
}

TEST(SvmCheckpoint, DamagedFileNeverLoadsAsADifferentSnapshot) {
  // Every proper prefix and every flip of one byte of a saved snapshot
  // counts as absent: a prefix that ends where the footer starts has no
  // footer, which no saved snapshot lacks, and the footer's final newline
  // is checked although the CRC does not cover it.
  SmoCheckpoint ck;
  ck.iteration = 42;
  ck.alpha = {0.0, 0.25, 1.0};
  ck.f = {-1.0, 0.5, 2.0};
  const std::string path = tmp_path("smo_ck_good.bin");
  save_smo_checkpoint(path, ck);
  const std::string good = read_raw(path);
  const std::string bad = tmp_path("smo_ck_damaged.bin");
  const auto check = [&](const std::string& bytes, const std::string& what) {
    write_raw(bad, bytes);
    EXPECT_FALSE(try_load_smo_checkpoint(bad).has_value()) << what;
  };
  for (std::size_t len = 0; len < good.size(); ++len) {
    check(good.substr(0, len), "prefix of " + std::to_string(len));
  }
  // Each byte inverted, and each of its bits flipped alone.
  const int masks[] = {0xFF, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80};
  for (std::size_t at = 0; at < good.size(); ++at) {
    for (const int mask : masks) {
      std::string flipped = good;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      check(flipped, "byte " + std::to_string(at) + " ^ " +
                         std::to_string(mask));
    }
  }
  remove_checkpoint(path);
  remove_checkpoint(bad);
}

TEST(SvmCheckpoint, DamagedFooterTagCountsAsAbsent) {
  // With its "#crc32 " tag damaged the footer reads back as payload, so
  // the record is 16 bytes longer than its n allows.
  SmoCheckpoint ck;
  ck.iteration = 42;
  ck.alpha = {0.0, 0.25, 1.0};
  ck.f = {-1.0, 0.5, 2.0};
  const std::string path = tmp_path("smo_ck_tag.bin");
  save_smo_checkpoint(path, ck);
  std::string raw = read_raw(path);
  const std::size_t tag = raw.size() - 16;
  ASSERT_EQ(raw.compare(tag, 7, kCrcFooterTag), 0);
  raw[tag] = '$';
  write_raw(path, raw);
  EXPECT_FALSE(try_load_smo_checkpoint(path, 3).has_value());
  remove_checkpoint(path);
}

TEST(SvmCheckpoint, FileIsHeaderPlusSixteenBytesPerSample) {
  // Magic line, u64 iteration, u64 n, n f64 alpha + n f64 f, CRC footer.
  const std::size_t magic = std::string("ls_smo_checkpoint v2\n").size();
  const std::size_t footer = std::string(kCrcFooterTag).size() + 9;
  const std::string path = tmp_path("smo_ck_size.bin");
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{4096}}) {
    SmoCheckpoint ck;
    ck.iteration = 256;
    ck.alpha.assign(n, 0.5);
    ck.f.assign(n, -1.0);
    save_smo_checkpoint(path, ck);
    EXPECT_EQ(read_raw(path).size(), magic + 16 + 16 * n + footer)
        << "n = " << n;
  }
  remove_checkpoint(path);
}

TEST(SvmCheckpoint, ResumedRunMatchesUninterrupted) {
  const Dataset ds = noisy_dataset(80, 6, 0xFA01);
  SvmParams params;
  params.kernel.type = KernelType::kGaussian;
  params.kernel.gamma = 0.5;
  params.c = 5.0;

  // Reference: one uninterrupted run.
  const TrainResult ref = train_fixed_format(ds, params, Format::kCSR);
  ASSERT_TRUE(ref.stats.converged);
  ASSERT_GT(ref.stats.iterations, 20);

  // Interrupted run: stop halfway, leaving a snapshot behind.
  const std::string path = tmp_path("smo_resume.txt");
  SvmParams capped = params;
  capped.checkpoint_path = path;
  capped.checkpoint_interval = 5;
  capped.max_iterations = ref.stats.iterations / 2;
  const TrainResult interrupted =
      train_fixed_format(ds, capped, Format::kCSR);
  EXPECT_FALSE(interrupted.stats.converged);
  ASSERT_TRUE(file_exists(path));

  // Resume: picks the snapshot up and finishes.
  SvmParams resume = params;
  resume.checkpoint_path = path;
  resume.checkpoint_interval = 5;
  const TrainResult resumed = train_fixed_format(ds, resume, Format::kCSR);
  EXPECT_TRUE(resumed.stats.converged);

  // The solver is deterministic, so the resumed trajectory rejoins the
  // reference exactly: same iteration count, same model to 1e-6.
  EXPECT_EQ(resumed.stats.iterations, ref.stats.iterations);
  EXPECT_NEAR(resumed.model.rho, ref.model.rho, 1e-6);
  ASSERT_EQ(resumed.model.coef.size(), ref.model.coef.size());
  for (std::size_t i = 0; i < ref.model.coef.size(); ++i) {
    EXPECT_NEAR(resumed.model.coef[i], ref.model.coef[i], 1e-6);
  }
  // Converged runs clean their snapshot up.
  EXPECT_FALSE(file_exists(path));
}

// ------------------------------------------------- scheduler degradation

CooMatrix random_sparse(index_t rows, index_t cols, double density,
                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) {
      if (rng.uniform() < density) {
        t.push_back({i, j, rng.uniform(-1.0, 1.0)});
      }
    }
  }
  return CooMatrix(rows, cols, std::move(t));
}

TEST(SchedDegrade, AutotunerThrowsWhenEveryCandidateFails) {
  const CooMatrix x = random_sparse(60, 40, 0.2, 0xD1);
  Scoped fp("sched.candidate.materialize");
  EmpiricalAutotuner tuner;
  EXPECT_THROW(tuner.choose(x), Error);
}

TEST(SchedDegrade, SchedulerFallsBackToHeuristicWhenAllCandidatesFail) {
  const CooMatrix x = random_sparse(60, 40, 0.2, 0xD2);
  const LayoutScheduler sched;  // empirical policy
  ScheduleDecision d;
  {
    Scoped fp("sched.candidate.materialize");
    d = sched.decide(x);
  }
  EXPECT_TRUE(d.degraded);
  EXPECT_FALSE(d.dropped.empty());
  EXPECT_NE(d.rationale.find("heuristic"), std::string::npos);
  // The decision is still actionable: the chosen format materialises.
  const AnyMatrix mat = sched.materialize(x, d);
  EXPECT_EQ(mat.rows(), 60);
}

TEST(SchedDegrade, MaterializeFallsBackToCsr) {
  const CooMatrix x = random_sparse(30, 20, 0.3, 0xD4);
  const LayoutScheduler sched;
  ScheduleDecision d;
  d.format = Format::kDEN;
  d.rationale = "test decision";
  Spec spec;
  spec.limit = 1;  // only the first (non-CSR) materialise faults
  Scoped fp("sched.materialize", spec);
  const AnyMatrix mat = sched.materialize_or_degrade(x, d);
  EXPECT_EQ(mat.format(), Format::kCSR);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.format, Format::kCSR);
  EXPECT_NE(d.rationale.find("CSR"), std::string::npos);
}

TEST(SchedDegrade, TrainAdaptiveSurvivesTotalCandidateFailure) {
  const Dataset ds = noisy_dataset(40, 5, 0xD5);
  SvmParams params;
  params.kernel.type = KernelType::kGaussian;
  params.kernel.gamma = 0.5;
  params.c = 5.0;
  metrics::reset();
  metrics::set_enabled(true);
  Scoped fp("sched.candidate.materialize");
  const TrainResult r = train_adaptive(ds, params);
  const metrics::Report report = metrics::snapshot();
  metrics::set_enabled(false);
  metrics::reset();
  EXPECT_TRUE(r.stats.converged);
  EXPECT_TRUE(r.decision.degraded);
  EXPECT_GT(r.model.accuracy(ds), 0.7);
  // The degraded final decision reaches the metrics registry once.
  EXPECT_EQ(report.counters.at("sched.decisions_total"), 1);
  EXPECT_EQ(report.counters.at("sched.decisions_degraded_total"), 1);
}

// -------------------------------------------------- cache memory pressure

TEST(CacheDegrade, OomFreezesResidentSetAndKeepsAnswersCorrect) {
  const Dataset ds = noisy_dataset(12, 4, 0xCA);
  const AnyMatrix x = AnyMatrix::from_coo(ds.X, Format::kCSR);
  KernelParams kernel;
  kernel.type = KernelType::kGaussian;
  kernel.gamma = 0.5;
  FormatKernelEngine engine(x, kernel);
  FormatKernelEngine reference(x, kernel);
  KernelCache cache(engine, 64 << 20);  // budget would allow all rows

  Spec spec;
  spec.action = Action::kOom;
  spec.skip = 2;  // two rows allocate, the third hits memory pressure
  Scoped fp("svm.cache.alloc", spec);

  std::vector<real_t> expected(static_cast<std::size_t>(ds.rows()));
  for (index_t i = 0; i < ds.rows(); ++i) {
    const auto row = cache.get_row(i);
    reference.compute_row(i, expected);
    ASSERT_EQ(row.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_DOUBLE_EQ(row[k], expected[k]);
    }
  }
  // The cache froze at the pre-failure resident set instead of dying.
  EXPECT_EQ(cache.resident_rows(), 2u);
  EXPECT_EQ(failpoint::trigger_count("svm.cache.alloc"), 1u);
}

TEST(CacheDegrade, TrainingConvergesUnderMemoryPressure) {
  const Dataset ds = noisy_dataset(40, 5, 0xCB);
  SvmParams params;
  params.kernel.type = KernelType::kGaussian;
  params.kernel.gamma = 0.5;
  params.c = 5.0;
  const TrainResult ref = train_fixed_format(ds, params, Format::kCSR);

  Spec spec;
  spec.action = Action::kOom;
  spec.skip = 2;
  Scoped fp("svm.cache.alloc", spec);
  const TrainResult squeezed = train_fixed_format(ds, params, Format::kCSR);
  EXPECT_TRUE(squeezed.stats.converged);
  // A smaller cache changes only the cost, never the trajectory.
  EXPECT_EQ(squeezed.stats.iterations, ref.stats.iterations);
  EXPECT_NEAR(squeezed.model.rho, ref.model.rho, 1e-12);
}

// ----------------------------------------------------- robust libsvm IO

TEST(LibsvmRobust, StrictModeRejectsOverflowAndNonFinite) {
  {
    std::istringstream in("1 1:1e400\n");
    EXPECT_THROW(read_libsvm(in, "t"), Error);
  }
  {
    std::istringstream in("1e400 1:1\n");
    EXPECT_THROW(read_libsvm(in, "t"), Error);
  }
  {
    std::istringstream in("1 1:nan\n");
    EXPECT_THROW(read_libsvm(in, "t"), Error);
  }
  {
    // Subnormal underflow also sets ERANGE but must still be accepted.
    std::istringstream in("1 1:5e-324\n");
    EXPECT_NO_THROW(read_libsvm(in, "t"));
  }
}

TEST(LibsvmRobust, PermissiveModeSkipsBadLinesAtomically) {
  std::istringstream in(
      "1 1:0.5 3:1.5\n"
      "abc 1:1\n"            // bad label
      "-1 2:0.25\n"
      "1 1:1 2:x\n"          // bad value
      "1 2:1 1:2\n"          // non-increasing indices: row must roll back
      "1 1:1e400\n"          // overflow
      "-1 4:2.0\n");
  LibsvmReadOptions opts;
  opts.permissive = true;
  opts.max_errors = 2;
  LibsvmReadReport report;
  const Dataset ds = read_libsvm(in, "mixed", opts, &report);

  EXPECT_EQ(ds.rows(), 3);
  EXPECT_EQ(ds.cols(), 4);
  EXPECT_DOUBLE_EQ(ds.y[0], 1.0);
  EXPECT_DOUBLE_EQ(ds.y[1], -1.0);
  EXPECT_DOUBLE_EQ(ds.y[2], -1.0);
  // Committed nonzeros come only from the three good rows — the rolled-back
  // rows leaked nothing.
  EXPECT_EQ(ds.X.values().size(), 4u);

  EXPECT_EQ(report.lines_skipped, 4u);
  EXPECT_EQ(report.errors.size(), 2u);
  EXPECT_TRUE(report.errors_truncated());
}

TEST(LibsvmRobust, StrictModeStillThrowsOnFirstBadLine) {
  std::istringstream in("1 1:0.5\nabc 1:1\n");
  EXPECT_THROW(read_libsvm(in, "strict"), Error);
}

TEST(LibsvmRobust, InjectedInfrastructureFaultIsNotSwallowed) {
  // An injected IO-layer fault is not a parse error: even permissive mode
  // must propagate it instead of skipping lines forever.
  std::istringstream in("1 1:0.5\n");
  LibsvmReadOptions opts;
  opts.permissive = true;
  Scoped fp("data.libsvm.read");
  EXPECT_THROW(read_libsvm(in, "fp", opts), Error);
}

}  // namespace
}  // namespace ls
