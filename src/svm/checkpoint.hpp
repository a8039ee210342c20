// Durable SMO checkpoints: atomic, CRC-protected snapshot files that let an
// interrupted training run restart from its last saved iteration instead of
// from scratch.
//
// The trainer facade (svm/trainer.hpp) drives this automatically when
// SvmParams::checkpoint_path is set: it resumes from an existing valid
// snapshot, saves a fresh one every checkpoint_interval iterations, and
// removes the file once training completes. A corrupt or mismatched
// snapshot is treated as absent (training restarts cleanly) — a stale file
// must never be able to poison a new run.
#pragma once

#include <optional>
#include <string>

#include "svm/smo.hpp"

namespace ls {

/// Writes `ck` to `path` atomically (tmp + fsync + rename, CRC footer).
void save_smo_checkpoint(const std::string& path, const SmoCheckpoint& ck);

/// Reads a snapshot; throws ls::Error on missing or corrupt files.
SmoCheckpoint load_smo_checkpoint(const std::string& path);

/// Lenient load for resume paths: returns nullopt when the file is
/// missing, truncated, has no CRC footer, is corrupt, or is sized for a
/// different problem (`expected_n` > 0 enforces the sample count).
std::optional<SmoCheckpoint> try_load_smo_checkpoint(const std::string& path,
                                                     index_t expected_n = 0);

/// Removes a checkpoint file if present (end-of-training cleanup).
void remove_checkpoint(const std::string& path);

}  // namespace ls
