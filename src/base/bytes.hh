/**
 * @file
 * Fixed-width little-endian encoding, and its bounds-checked reader,
 * for canonical specs, model keys, the result codec and the store's
 * entry framing.
 */

#ifndef NOWCLUSTER_BASE_BYTES_HH_
#define NOWCLUSTER_BASE_BYTES_HH_

#include <cstdint>
#include <cstring>
#include <string>

namespace nowcluster {

inline void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += char((v >> (8 * i)) & 0xff);
}

inline void
putI64(std::string &out, std::int64_t v)
{
    putU64(out, static_cast<std::uint64_t>(v));
}

inline void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out += char((v >> (8 * i)) & 0xff);
}

/** Bit pattern, not decimal text: distinct doubles never alias. */
inline void
putDouble(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(out, bits);
}

/** Length-prefixed, so adjacent strings cannot run together. */
inline void
putStr(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

/** Reads what the put* functions wrote; a read fails, returning
 *  false, when fewer bytes remain than it needs. */
struct ByteCursor
{
    const char *p;
    const char *end;

    bool
    take(void *dst, std::size_t n)
    {
        if (static_cast<std::size_t>(end - p) < n)
            return false;
        std::memcpy(dst, p, n);
        p += n;
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        unsigned char b[8];
        if (!take(b, 8))
            return false;
        v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | b[i];
        return true;
    }

    bool
    i64(std::int64_t &v)
    {
        std::uint64_t u;
        if (!u64(u))
            return false;
        v = static_cast<std::int64_t>(u);
        return true;
    }

    bool
    u32(std::uint32_t &v)
    {
        unsigned char b[4];
        if (!take(b, 4))
            return false;
        v = (std::uint32_t(b[3]) << 24) | (std::uint32_t(b[2]) << 16) |
            (std::uint32_t(b[1]) << 8) | std::uint32_t(b[0]);
        return true;
    }

    bool
    f64(double &v)
    {
        std::uint64_t bits;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof v);
        return true;
    }

    bool
    str(std::string &s)
    {
        std::uint32_t n;
        if (!u32(n) || static_cast<std::size_t>(end - p) < n)
            return false;
        s.assign(p, n);
        p += n;
        return true;
    }
};

} // namespace nowcluster

#endif // NOWCLUSTER_BASE_BYTES_HH_
