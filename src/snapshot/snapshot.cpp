#include "snapshot/snapshot.hpp"

namespace nox::snap {

SnapshotFile
captureNetwork(const Network &net, const std::string &tool)
{
    SnapshotFile image;

    SnapshotMeta meta;
    meta.tool = tool;
    meta.cycle = net.now();
    meta.fingerprint = net.fingerprint();
    Writer mw;
    io(mw, meta);
    image.sections.push_back({kSectionMeta, mw.take()});

    Writer nw;
    net.serialize(nw);
    image.sections.push_back({kSectionNetwork, nw.take()});
    return image;
}

SnapshotFile
loadSnapshotFile(const std::string &path)
{
    const std::vector<std::uint8_t> bytes = readFileBytes(path);
    return decodeSnapshotFile(bytes.data(), bytes.size());
}

SnapshotMeta
restoreNetwork(Network &net, const SnapshotFile &file)
{
    const Section &msec = file.require(kSectionMeta);
    Reader mr(msec.payload.data(), msec.payload.size());
    SnapshotMeta meta;
    io(mr, meta);

    const std::string want = net.fingerprint();
    if (meta.fingerprint != want) {
        throw SnapshotError(
            "snapshot was taken from a different configuration:\n"
            "  snapshot: " +
            meta.fingerprint + "\n  this run: " + want);
    }

    const Section &nsec = file.require(kSectionNetwork);
    Reader nr(nsec.payload.data(), nsec.payload.size());
    net.restore(nr);
    nr.expectEnd();
    return meta;
}

} // namespace nox::snap
