/**
 * @file
 * FNV-1a 64-bit content hashing: snapshot payload checksums, design
 * cache display ids and the simulator fingerprint table all share
 * this one definition.
 */

#ifndef TAPAS_SUPPORT_HASH_HH
#define TAPAS_SUPPORT_HASH_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "support/logging.hh"

namespace tapas {

/** FNV-1a 64-bit over the bytes of `text`, as 16 lower-case hex digits. */
inline std::string
fnv1aHex(std::string_view text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return strfmt("%016llx", static_cast<unsigned long long>(h));
}

} // namespace tapas

#endif // TAPAS_SUPPORT_HASH_HH
