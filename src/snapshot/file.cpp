#include "snapshot/file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

namespace nox::snap {

const Section *
SnapshotFile::find(std::uint32_t tag) const
{
    for (const Section &s : sections)
        if (s.tag == tag)
            return &s;
    return nullptr;
}

const Section &
SnapshotFile::require(std::uint32_t tag) const
{
    const Section *s = find(tag);
    if (!s) {
        throw SnapshotError("snapshot is missing required section '" +
                            fourccName(tag) + "'");
    }
    return *s;
}

std::vector<std::uint8_t>
encodeSnapshotFile(const SnapshotFile &f)
{
    Writer w;
    w.bytes(reinterpret_cast<const std::uint8_t *>(kMagic),
            sizeof(kMagic));
    w.u32(f.version);
    w.u32(static_cast<std::uint32_t>(f.sections.size()));
    for (const Section &s : f.sections) {
        w.u32(s.tag);
        w.u64(s.payload.size());
        w.bytes(s.payload.data(), s.payload.size());
        w.u32(crc32c(s.payload.data(), s.payload.size()));
    }
    return w.take();
}

SnapshotFile
decodeSnapshotFile(const std::uint8_t *data, std::size_t size)
{
    Reader r(data, size);
    std::uint8_t magic[sizeof(kMagic)];
    if (r.remaining() < sizeof(kMagic))
        throw SnapshotError("not a snapshot: file shorter than magic");
    r.bytes(magic, sizeof(magic));
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        throw SnapshotError(
            "not a snapshot: bad magic (expected \"NOXSNAP1\")");
    }
    SnapshotFile f;
    f.version = r.u32();
    if (f.version != kSnapshotVersion) {
        throw SnapshotError(
            "unsupported snapshot version " +
            std::to_string(f.version) + " (this build reads version " +
            std::to_string(kSnapshotVersion) + ")");
    }
    // A section frame is at least its tag, length and CRC.
    const std::size_t count = r.count<std::uint32_t>(16);
    f.sections.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Section s;
        s.tag = r.u32();
        const std::uint64_t len = r.u64();
        if (len > r.remaining()) {
            throw SnapshotError(
                "truncated snapshot: section '" + fourccName(s.tag) +
                "' declares " + std::to_string(len) +
                " bytes but only " + std::to_string(r.remaining()) +
                " remain");
        }
        s.payload.resize(static_cast<std::size_t>(len));
        if (len > 0)
            r.bytes(s.payload.data(), s.payload.size());
        const std::uint32_t stored = r.u32();
        const std::uint32_t actual =
            crc32c(s.payload.data(), s.payload.size());
        if (stored != actual) {
            throw SnapshotError(
                "corrupt snapshot: CRC-32C mismatch in section '" +
                fourccName(s.tag) + "'");
        }
        f.sections.push_back(std::move(s));
    }
    r.expectEnd();
    return f;
}

namespace {

[[noreturn]] void
ioFail(const std::string &op, const std::string &path)
{
    throw SnapshotError(op + " failed for '" + path +
                        "': " + std::strerror(errno));
}

} // namespace

void
writeSnapshotFileAtomic(const std::string &path,
                        const std::vector<std::uint8_t> &image,
                        int keep)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        ioFail("open", tmp);
    std::size_t done = 0;
    while (done < image.size()) {
        const ssize_t n =
            ::write(fd, image.data() + done, image.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ioFail("write", tmp);
        }
        done += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        ioFail("fsync", tmp);
    }
    if (::close(fd) != 0)
        ioFail("close", tmp);

    // Rotate the existing chain: path.(K-2) -> path.(K-1), ...,
    // path -> path.1. rename(2) failures other than "source does not
    // exist" are real errors.
    if (keep > 1) {
        for (int k = keep - 2; k >= 0; --k) {
            const std::string src =
                k == 0 ? path : path + "." + std::to_string(k);
            const std::string dst = path + "." + std::to_string(k + 1);
            if (::rename(src.c_str(), dst.c_str()) != 0 &&
                errno != ENOENT) {
                ioFail("rename", src);
            }
        }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        ioFail("rename", tmp);
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw SnapshotError("cannot open snapshot '" + path +
                            "' for reading");
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        throw SnapshotError("read failed for '" + path + "'");
    return bytes;
}

} // namespace nox::snap
