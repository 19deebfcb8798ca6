#include "snapshot/io.hpp"

namespace nox::snap {

std::string
fourccName(std::uint32_t tag)
{
    std::string s;
    for (int i = 0; i < 4; ++i) {
        const char c =
            static_cast<char>((tag >> (8 * i)) & 0xFFu);
        s.push_back((c >= 0x20 && c < 0x7F) ? c : '?');
    }
    return s;
}

void
checkTag(Reader &r, std::uint32_t expect)
{
    const std::uint32_t got = r.u32();
    if (got != expect) {
        r.fail("component tag mismatch: expected '" +
               fourccName(expect) + "', found '" + fourccName(got) +
               "'");
    }
}

} // namespace nox::snap
