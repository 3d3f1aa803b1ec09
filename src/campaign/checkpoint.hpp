// Versioned on-disk campaign checkpoints.
//
// A checkpoint persists, per scenario cell, the full CellAccumulator state
// (exact sums, min/max, log2 histograms) plus the set of seeds already
// consumed, under a fingerprint of the expansion that produced it.  The
// serialization is canonical — fields in fixed order, seeds sorted — so
// serialize(parse(serialize(x))) is byte-identical, and every statistic is
// an exact integer, so merging any disjoint sharding of a campaign's
// checkpoints reproduces the single-process summary bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/campaign/campaign.hpp"

namespace lumi::campaign {

/// State of one cell: its aggregate plus which (cell, seed) jobs are done.
struct CheckpointCell {
  Cell cell;
  CellAccumulator acc;
  std::vector<unsigned> seeds_done;  ///< sorted ascending, unique

  friend bool operator==(const CheckpointCell&, const CheckpointCell&) = default;
};

struct Checkpoint {
  std::uint64_t fingerprint = 0;  ///< expansion_fingerprint of the matrix
  std::vector<CheckpointCell> cells;

  std::size_t jobs_done() const;

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

/// FNV-1a hash of the expansion's cells and run options (not its job list,
/// so shards of one matrix — and adaptive seed extensions of it — share the
/// fingerprint and can be resumed/merged against each other).
std::uint64_t expansion_fingerprint(const Expansion& expansion);

/// Fresh checkpoint for the expansion: every cell present, zero runs.
Checkpoint make_checkpoint(const Expansion& expansion);

/// Canonical v2 text rendering.
std::string checkpoint_serialize(const Checkpoint& checkpoint);
/// Parses a v2 rendering; throws std::runtime_error naming the line on
/// malformed input.
Checkpoint checkpoint_parse(const std::string& text);

/// Serializes to `path + ".tmp"` then atomically renames over `path`, so a
/// reader (or a resume after a kill) never sees a torn file.  False on I/O
/// failure.
bool checkpoint_write(const std::string& path, const Checkpoint& checkpoint);
/// std::nullopt when `path` does not exist; throws on malformed content.
std::optional<Checkpoint> checkpoint_load(const std::string& path);

/// Folds `other` into `into`.  Both must carry the same fingerprint and cell
/// list; a seed appearing in the same cell of both (overlapping shards)
/// throws std::invalid_argument — shards must be disjoint.
void checkpoint_merge(Checkpoint& into, const Checkpoint& other);

/// The CampaignSummary a single-process run over the same completed jobs
/// would produce (threads/wall_seconds are left zero: they describe an
/// execution, not a result).
CampaignSummary checkpoint_summary(const Checkpoint& checkpoint);

}  // namespace lumi::campaign
