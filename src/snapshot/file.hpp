/**
 * @file
 * On-disk snapshot container: versioned, CRC-32C-framed sections.
 *
 * Layout (all integers little-endian):
 *
 *     magic    8 bytes   "NOXSNAP1"
 *     version  u32       kSnapshotVersion
 *     count    u32       number of sections
 *     then per section:
 *       tag    u32       fourcc ('META', 'NETW', 'RUNR', ...)
 *       len    u64       payload byte count
 *       payload len bytes
 *       crc    u32       CRC-32C of the payload bytes
 *
 * Every section is independently integrity-checked; decode rejects
 * bad magic, unknown versions, truncation and CRC mismatches with a
 * structured SnapshotError — a corrupt file can never silently
 * resume wrong.
 *
 * Files are written crash-safely: the full image goes to
 * "<path>.tmp", is fsync'd, existing snapshots rotate to
 * "<path>.1" .. "<path>.K-1", then the temp file is atomically
 * renamed over <path>. A crash at any point leaves either the old
 * snapshot chain or the new one — never a half-written file at the
 * resume path.
 */

#ifndef NOX_SNAPSHOT_FILE_HPP
#define NOX_SNAPSHOT_FILE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/io.hpp"

namespace nox::snap {

inline constexpr char kMagic[8] = {'N', 'O', 'X', 'S',
                                   'N', 'A', 'P', '1'};
/** v2: stateful arbiters serialize a perturb counter after their
 *  priority state (see Arbiter::perturb). */
inline constexpr std::uint32_t kSnapshotVersion = 2;

inline constexpr std::uint32_t kSectionMeta = fourcc("META");
inline constexpr std::uint32_t kSectionNetwork = fourcc("NETW");
inline constexpr std::uint32_t kSectionRunner = fourcc("RUNR");

/** One framed section: a tagged, CRC-guarded payload. */
struct Section
{
    std::uint32_t tag = 0;
    std::vector<std::uint8_t> payload;
};

/** A decoded snapshot container. */
struct SnapshotFile
{
    std::uint32_t version = kSnapshotVersion;
    std::vector<Section> sections;

    /** First section with @p tag, or nullptr. */
    const Section *find(std::uint32_t tag) const;

    /** First section with @p tag; throws SnapshotError if absent. */
    const Section &require(std::uint32_t tag) const;
};

/** Serialize the container (magic + version + framed sections). */
std::vector<std::uint8_t> encodeSnapshotFile(const SnapshotFile &f);

/**
 * Parse and integrity-check a container image. Throws SnapshotError
 * on bad magic, unsupported version, truncation or CRC mismatch.
 */
SnapshotFile decodeSnapshotFile(const std::uint8_t *data,
                                std::size_t size);

/** Most snapshots a configured run may retain (checkpoint_keep=):
 *  every write renames the whole chain. */
inline constexpr int kMaxCheckpointKeep = 1000;

/**
 * Crash-safe write: temp file + fsync + rotation + atomic rename.
 * @p keep is the total number of snapshots retained (the live file
 * plus keep-1 rotated predecessors); keep <= 1 disables rotation.
 * Throws SnapshotError on any I/O failure.
 */
void writeSnapshotFileAtomic(const std::string &path,
                             const std::vector<std::uint8_t> &image,
                             int keep);

/** Read a whole file; throws SnapshotError on I/O failure. */
std::vector<std::uint8_t> readFileBytes(const std::string &path);

/**
 * Identity card stored in every snapshot's META section, decodable
 * without any simulator headers (trace_tool snapshot-info).
 */
struct SnapshotMeta
{
    std::string tool;        ///< producer ("noxsim", "nettest", ...)
    std::uint64_t cycle = 0; ///< network cycle at capture
    std::string fingerprint; ///< construction-config identity string
};

/** The META section layout. */
template <typename Ar>
void
io(Ar &ar, Field<Ar, SnapshotMeta> m)
{
    fields(ar, m.tool, m.cycle, m.fingerprint);
}

} // namespace nox::snap

#endif // NOX_SNAPSHOT_FILE_HPP
