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

} // namespace nox::snap
