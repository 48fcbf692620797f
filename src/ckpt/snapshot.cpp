#include "ckpt/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>

#include "obs/trace.hpp"

namespace gbpol::ckpt {
namespace {

constexpr char kMagic[8] = {'G', 'B', 'C', 'K', 'P', 'T', '1', '\n'};

// Generous sanity bound applied before any allocation driven by on-disk
// sizes: a torn header must not be able to request terabytes.
constexpr std::uint64_t kMaxSectionDoubles = 1ull << 32;
constexpr std::uint32_t kMaxSections = 64;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

template <typename T>
void put(std::vector<std::byte>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

// Bounds-checked reader over the loaded file image.
struct Reader {
  const std::byte* p;
  std::size_t left;
  template <typename T>
  bool get(T& value) {
    if (left < sizeof(T)) return false;
    std::memcpy(&value, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return true;
  }
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

bool write_snapshot(const std::string& path, const Snapshot& snap) {
  std::vector<std::byte> body;  // everything after the magic, before the CRC
  put(body, snap.version);
  put(body, snap.rank);
  put(body, snap.ranks);
  put(body, static_cast<std::uint32_t>(snap.phase));
  put(body, snap.cursor);
  put(body, snap.job_key);
  put(body, static_cast<std::uint32_t>(snap.sections.size()));
  for (const std::vector<double>& sec : snap.sections) {
    put(body, static_cast<std::uint64_t>(sec.size()));
    const std::size_t at = body.size();
    body.resize(at + sec.size() * sizeof(double));
    // Empty sections are legal (e.g. a phase-entry ledger); data() is null
    // then and memcpy's nonnull contract forbids it even for size 0.
    if (!sec.empty())
      std::memcpy(body.data() + at, sec.data(), sec.size() * sizeof(double));
  }
  const std::uint32_t crc = crc32(body.data(), body.size());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(kMagic, sizeof(kMagic));
    os.write(reinterpret_cast<const char*>(body.data()),
             static_cast<std::streamsize>(body.size()));
    os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    if (!os) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

std::optional<Snapshot> read_snapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return std::nullopt;
  const std::streamsize size = is.tellg();
  if (size < static_cast<std::streamsize>(sizeof(kMagic) + sizeof(std::uint32_t)))
    return std::nullopt;
  std::vector<std::byte> image(static_cast<std::size_t>(size));
  is.seekg(0);
  if (!is.read(reinterpret_cast<char*>(image.data()), size)) return std::nullopt;

  if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) return std::nullopt;
  const std::size_t body_size = image.size() - sizeof(kMagic) - sizeof(std::uint32_t);
  const std::byte* body = image.data() + sizeof(kMagic);
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, body + body_size, sizeof(stored_crc));
  if (crc32(body, body_size) != stored_crc) return std::nullopt;

  Reader r{body, body_size};
  Snapshot snap;
  std::uint32_t phase = 0, n_sections = 0;
  if (!r.get(snap.version) || !r.get(snap.rank) || !r.get(snap.ranks) ||
      !r.get(phase) || !r.get(snap.cursor) || !r.get(snap.job_key) ||
      !r.get(n_sections))
    return std::nullopt;
  if (snap.version != kSnapshotVersion) return std::nullopt;
  if (phase > static_cast<std::uint32_t>(Phase::kEpol)) return std::nullopt;
  if (n_sections > kMaxSections) return std::nullopt;
  snap.phase = static_cast<Phase>(phase);
  snap.sections.resize(n_sections);
  for (std::vector<double>& sec : snap.sections) {
    std::uint64_t count = 0;
    if (!r.get(count) || count > kMaxSectionDoubles ||
        r.left < count * sizeof(double))
      return std::nullopt;
    sec.resize(count);
    if (count != 0) std::memcpy(sec.data(), r.p, count * sizeof(double));
    r.p += count * sizeof(double);
    r.left -= count * sizeof(double);
  }
  if (r.left != 0) return std::nullopt;  // trailing garbage
  return snap;
}

SnapshotStore::SnapshotStore(std::string dir, int ranks, std::uint64_t job_key)
    : dir_(std::move(dir)), ranks_(ranks), job_key_(job_key) {}

std::string SnapshotStore::path_for(Phase phase, std::uint32_t rank,
                                    std::uint64_t cursor) const {
  char name[64];
  std::snprintf(name, sizeof(name), "ph%u_r%u_c%llu.ck",
                static_cast<unsigned>(phase), static_cast<unsigned>(rank),
                static_cast<unsigned long long>(cursor));
  return dir_ + "/" + name;
}

std::string SnapshotStore::save(const Snapshot& snap) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return {};
  const std::string path = path_for(snap.phase, snap.rank, snap.cursor);
  if (!write_snapshot(path, snap)) return {};
  // The tmp+rename above has completed: this commit event logically precedes
  // the kill poll it guards (drivers snapshot, then poll) — the ordering
  // trace_invariants_test pins.
  obs::emit(obs::EventKind::kCheckpointCommit, snap.cursor, 0,
            static_cast<std::uint8_t>(snap.phase));
  return path;
}

std::optional<std::vector<Snapshot>> SnapshotStore::load_latest() const {
  // phase -> rank -> cursors present (descending), parsed from file names;
  // validity is only established by actually reading the candidate.
  std::map<std::uint32_t, std::map<std::uint32_t, std::vector<std::uint64_t>>,
           std::greater<>>
      index;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    unsigned phase = 0, rank = 0;
    unsigned long long cursor = 0;
    const std::string name = entry.path().filename().string();
    if (std::sscanf(name.c_str(), "ph%u_r%u_c%llu.ck", &phase, &rank, &cursor) != 3)
      continue;
    if (rank >= static_cast<unsigned>(ranks_)) continue;
    index[phase][rank].push_back(cursor);
  }
  if (ec) return std::nullopt;

  for (auto& [phase, per_rank] : index) {
    if (per_rank.size() != static_cast<std::size_t>(ranks_)) continue;
    std::vector<Snapshot> set(static_cast<std::size_t>(ranks_));
    bool complete = true;
    for (auto& [rank, cursors] : per_rank) {
      std::sort(cursors.begin(), cursors.end(), std::greater<>());
      bool found = false;
      for (const std::uint64_t cursor : cursors) {
        const std::string path =
            path_for(static_cast<Phase>(phase), rank, cursor);
        std::optional<Snapshot> snap = read_snapshot(path);
        if (!snap) {
          // Torn/corrupt payload in an existing file: count it as a detected
          // corruption (the CRC caught it) and fall back to the older cursor
          // — the recovery ladder's snapshot rung.
          obs::add_corruption_detected(static_cast<int>(rank));
          obs::emit(obs::EventKind::kCorruptionDetect, cursor, 0,
                    /*site=*/3);
          continue;
        }
        if (snap->ranks != static_cast<std::uint32_t>(ranks_) ||
            snap->job_key != job_key_ || snap->rank != rank ||
            snap->phase != static_cast<Phase>(phase))
          continue;
        set[rank] = std::move(*snap);
        found = true;
        break;
      }
      if (!found) {
        complete = false;  // this phase has no valid file for `rank`:
        break;             // fall back to the previous phase entirely
      }
    }
    if (complete) return set;
  }
  return std::nullopt;
}

void append_chunk_ledger(Snapshot& snap, const std::vector<std::uint32_t>& ids,
                         std::vector<double> packed_partials) {
  std::vector<double> index;
  index.reserve(ids.size());
  for (const std::uint32_t id : ids) index.push_back(static_cast<double>(id));
  snap.sections.push_back(std::move(index));
  snap.sections.push_back(std::move(packed_partials));
}

ChunkLedgerSections read_chunk_ledger(const Snapshot& snap, std::size_t first_section,
                                      std::size_t partial_len) {
  ChunkLedgerSections out;
  if (snap.sections.size() != first_section + 2) return out;
  const std::vector<double>& index = snap.sections[first_section];
  const std::vector<double>& packed = snap.sections[first_section + 1];
  if (packed.size() != index.size() * partial_len) return out;
  out.ids.reserve(index.size());
  for (const double d : index) {
    // Chunk ids round-trip exactly through doubles (< 2^53); anything
    // negative or fractional means the sections are not a ledger.
    if (d < 0.0 || d != static_cast<double>(static_cast<std::uint32_t>(d)))
      return out;
    out.ids.push_back(static_cast<std::uint32_t>(d));
  }
  out.packed = packed;
  out.partial_len = partial_len;
  out.ok = true;
  return out;
}

}  // namespace gbpol::ckpt
