// Versioned, CRC-checksummed binary snapshots of per-rank solver state.
//
// A snapshot is keyed to a LOGICAL point in the distributed schedule — the
// driver phase it was taken in plus the number of chunks this rank had
// published within that phase — never to wall time. Restoring every rank
// to snapshots of the same phase therefore lands the whole job on a
// consistent cut: between collectives no messages are in flight, so "all
// ranks inside phase P, each with its own published chunks" replays the
// remaining schedule exactly (the canonical chunk fold in core/drivers.cpp
// folds fresh-from-zero chunk partials in ascending chunk order, whoever
// computed them, which is what makes the resumed E_pol and Born radii
// bit-identical, 0 ulp).
//
// Torn or corrupt files (truncated write, flipped bytes, version bump) are
// DETECTED — magic + version + whole-payload CRC32 — and simply skipped by
// the store, which falls back to the previous cursor, the previous phase, or
// a clean cold start. A snapshot is never silently trusted.
//
// On-disk layout (all little-endian, doubles raw IEEE-754):
//   8  bytes  magic "GBCKPT1\n"
//   u32 version   u32 rank   u32 ranks   u32 phase
//   u64 cursor    u64 job_key
//   u32 section_count, then per section: u64 count + count doubles
//   u32 CRC32 over everything after the magic
// Files are written to "<path>.tmp" then renamed, so a crash mid-write
// leaves at worst a stale .tmp, never a half-written .ck under a valid name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gbpol::ckpt {

// Polynomial 0xEDB88320 (zlib/IEEE), table-driven. `seed` chains calls.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

// FNV-1a over 64-bit words; the drivers hash the job shape (atom/leaf counts,
// rank count, division, traversal) into a key so a store populated by a
// DIFFERENT job can never be resumed from.
std::uint64_t fnv1a64(std::initializer_list<std::uint64_t> words);

// 2: the chunk ledger packs every partial into one section (a rank's ledger
// no longer grows the section count with its chunks).
constexpr std::uint32_t kSnapshotVersion = 2;

// The canonical driver's resumable phases, in schedule order. A snapshot
// at phase P contains everything needed to skip phases < P (including the
// results of the collectives separating them).
enum class Phase : std::uint32_t {
  kBornAccum = 0,  // payload: the ledger of published Born chunk partials
  kPush = 1,       // post-sync; payload: this rank's folded accumulator slice
  kEpol = 2,       // post-radii exchange; payload: Born radii + the ledger of
                   // published E_pol raw pairs
};

struct Snapshot {
  std::uint32_t version = kSnapshotVersion;
  std::uint32_t rank = 0;
  std::uint32_t ranks = 0;
  Phase phase = Phase::kBornAccum;
  std::uint64_t cursor = 0;   // chunks in this rank's ledger within `phase`
  std::uint64_t job_key = 0;
  std::vector<std::vector<double>> sections;
};

// Serialize + CRC + atomic-rename. Returns false (never throws) on I/O
// failure: checkpointing is an optimization, losing a snapshot must not take
// the run down with it.
bool write_snapshot(const std::string& path, const Snapshot& snap);

// nullopt on ANY defect: missing file, short read, bad magic, unknown
// version, CRC mismatch, or section sizes inconsistent with the byte count.
std::optional<Snapshot> read_snapshot(const std::string& path);

// --- canonical-fold migrated-chunk ledger --------------------------------
// The canonical chunk-fold driver (core/balance.hpp) checkpoints per-rank sets of
// completed chunks plus each chunk's partial buffer, so resume-after-steal
// is exact: a chunk is restored wherever it was computed (possibly on a
// thief) or recomputed from scratch — either way the partial is identical.
// Layout appended to Snapshot::sections: two sections, whatever the chunk
// count (read_snapshot bounds the section count) — the done chunk ids as
// doubles, then every done chunk's partial packed back to back in the same
// order.
void append_chunk_ledger(Snapshot& snap, const std::vector<std::uint32_t>& ids,
                         std::vector<double> packed_partials);

struct ChunkLedgerSections {
  bool ok = false;
  std::vector<std::uint32_t> ids;
  std::vector<double> packed;  // ids.size() partials of partial_len doubles
  std::size_t partial_len = 0;

  std::span<const double> partial(std::size_t i) const {
    return std::span<const double>(packed).subspan(i * partial_len, partial_len);
  }
};

// Reads a ledger of `partial_len`-double partials back starting at
// `first_section` (sections before it belong to the caller, e.g. the Born
// radii in a kEpol snapshot). Returns ok=false on any structural
// inconsistency — a section count other than first_section + 2, an id that
// is not a chunk id, or a packed length other than ids x partial_len — and
// the caller treats that like a corrupt snapshot.
ChunkLedgerSections read_chunk_ledger(const Snapshot& snap, std::size_t first_section,
                                      std::size_t partial_len);

// When to checkpoint. Attached to RunOptions; an empty dir disables the
// whole subsystem (zero overhead on the default path). The chunks counted
// by every_k_chunks are the canonical fold's (RunOptions::
// balance_chunk_leaves).
struct CheckpointPolicy {
  std::string dir;                        // snapshot directory; empty = off
  bool resume = false;                    // load latest consistent set first
  std::uint32_t every_k_chunks = 4;       // snapshot every K chunks; 0 = off
  std::uint32_t every_n_collectives = 1;  // phase-entry snapshot cadence; 0 = off
  // Caller-supplied word folded into every driver's job_key. The trajectory
  // driver (core/incremental.hpp) sets this to the step index so snapshots
  // from different steps of one campaign can never satisfy each other's
  // resume, even though molecule shape and run configuration are identical.
  std::uint64_t job_salt = 0;
  bool enabled() const { return !dir.empty(); }
};

// Directory of per-rank snapshot files named "ph<P>_r<R>_c<C>.ck". Ranks
// write independently (distinct files); the reader reconstructs the latest
// CONSISTENT set: the highest phase at which every rank has a valid
// snapshot, each rank at its highest valid cursor within that phase.
class SnapshotStore {
 public:
  SnapshotStore(std::string dir, int ranks, std::uint64_t job_key);

  // Best-effort write (directory created on demand). Thread-safe across
  // ranks: file names embed the rank, so writers never collide. Returns the
  // path the snapshot was committed under, or "" on failure — the integrity
  // layer uses the path to target scheduled snapshot-byte corruption.
  std::string save(const Snapshot& snap) const;

  // Latest consistent set, indexed by rank, or nullopt for a cold start.
  // Corrupt candidates are skipped (falling back to an older cursor, then an
  // older phase); snapshots from a different job_key or rank count are
  // treated as corrupt. Each EXISTING candidate file whose payload fails
  // validation is surfaced as a corruption detection to obs (recovery is the
  // fallback itself: newest clean snapshot, else cold start).
  std::optional<std::vector<Snapshot>> load_latest() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string path_for(Phase phase, std::uint32_t rank, std::uint64_t cursor) const;

  std::string dir_;
  int ranks_ = 0;
  std::uint64_t job_key_ = 0;
};

}  // namespace gbpol::ckpt
