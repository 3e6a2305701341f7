// Optimizer-state persistence for warm-start training continuation
// (snapshot v3).
//
// A resume-capable snapshot carries three extra sections on top of the
// embedding ("fmat"):
//
//   "tsyn1"  rows u64, dims u64, then rows*dims f32 (dense, unpadded) —
//            the output layer (HS inner nodes or NS per-vertex vectors)
//   "tfreq"  count u64, then count u64 frequencies — the profile the
//            objective was built from (load-bearing under HS: the
//            Huffman tree is rebuilt from it verbatim)
//   "tlrst"  one fixed 128-byte little-endian block of learning-rate
//            and config state (see trainer_state.cpp for the layout)
//
// All three ride the v2 section machinery (64-byte aligned, FNV-1a
// checksummed, verified on open); attaching them stamps the header
// version to kSnapshotVersionTrainerState so pre-v3 readers reject the
// file loudly instead of silently dropping the optimizer state.
#pragma once

#include <string>

#include "v2v/embed/trainer.hpp"
#include "v2v/store/format.hpp"

namespace v2v::store {

inline constexpr char kSectionTrainerSyn1[] = "tsyn1";
inline constexpr char kSectionTrainerFreq[] = "tfreq";
inline constexpr char kSectionTrainerLrState[] = "tlrst";

/// True when `snap` carries all three trainer-state sections.
[[nodiscard]] bool has_trainer_state(const MappedSnapshot& snap) noexcept;

/// Attaches the checkpoint as v3 sections (and bumps the builder's
/// minimum version to kSnapshotVersionTrainerState).
void add_trainer_state(SnapshotBuilder& builder,
                       const embed::TrainerCheckpoint& checkpoint);

/// Decodes the trainer state; throws SnapshotError(kBadHeader) when a
/// section is missing or malformed (section checksums were already
/// verified by MappedSnapshot::open).
[[nodiscard]] embed::TrainerCheckpoint load_trainer_state(
    const MappedSnapshot& snap);

/// Human-readable classification of a section name for `info`-style
/// listings: "float matrix", "quantized payload", "optimizer state", or
/// "unknown".
[[nodiscard]] const char* section_kind(const std::string& name) noexcept;

}  // namespace v2v::store
