#include "exec/simd/dispatch.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace bitdec::exec::simd {

namespace {

#if defined(__x86_64__) || defined(__i386__)

/** XCR0 via xgetbv (inline asm: the intrinsic needs -mxsave). */
std::uint64_t
readXcr0()
{
    std::uint32_t lo = 0, hi = 0;
    __asm__ __volatile__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

CpuFeatures
detect()
{
    CpuFeatures f;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return f;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    f.avx = (ecx & (1u << 28)) != 0;
    f.fma = (ecx & (1u << 12)) != 0;
    f.f16c = (ecx & (1u << 29)) != 0;
    std::uint64_t xcr0 = 0;
    if (osxsave)
        xcr0 = readXcr0();
    f.os_ymm = f.avx && (xcr0 & 0x6u) == 0x6u;           // xmm + ymm
    f.os_zmm = f.os_ymm && (xcr0 & 0xE0u) == 0xE0u;      // opmask + zmm
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
        f.avx2 = (ebx & (1u << 5)) != 0;
        f.avx512f = (ebx & (1u << 16)) != 0;
        f.avx512dq = (ebx & (1u << 17)) != 0;
        f.avx512bw = (ebx & (1u << 30)) != 0;
        f.avx512vl = (ebx & (1u << 31)) != 0;
    }
    return f;
}

#else // non-x86: no SIMD levels, scalar only

CpuFeatures
detect()
{
    return {};
}

#endif

} // namespace

const char*
toString(Level l)
{
    switch (l) {
    case Level::Scalar: return "scalar";
    case Level::Avx2: return "avx2";
    case Level::Avx512: return "avx512";
    }
    return "?";
}

const CpuFeatures&
cpuFeatures()
{
    static const CpuFeatures f = detect();
    return f;
}

std::string
describeCpuFeatures()
{
    const CpuFeatures& f = cpuFeatures();
    std::string s;
    const auto append = [&s](bool have, const char* name) {
        if (!have)
            return;
        if (!s.empty())
            s += " ";
        s += name;
    };
    append(f.avx, "avx");
    append(f.avx2, "avx2");
    append(f.fma, "fma");
    append(f.f16c, "f16c");
    append(f.avx512f, "avx512f");
    append(f.avx512bw, "avx512bw");
    append(f.avx512dq, "avx512dq");
    append(f.avx512vl, "avx512vl");
    append(f.os_ymm, "os-ymm");
    append(f.os_zmm, "os-zmm");
    return s.empty() ? "none" : s;
}

bool
levelSupported(Level l)
{
    const CpuFeatures& f = cpuFeatures();
    switch (l) {
    case Level::Scalar:
        return true;
    case Level::Avx2:
        return f.avx2 && f.f16c && f.os_ymm && avx2Kernels() != nullptr;
    case Level::Avx512:
        return f.avx512f && f.avx512bw && f.avx512dq && f.avx512vl &&
               f.f16c && f.os_zmm && avx512Kernels() != nullptr;
    }
    return false;
}

Level
maxSupportedLevel()
{
    if (levelSupported(Level::Avx512))
        return Level::Avx512;
    if (levelSupported(Level::Avx2))
        return Level::Avx2;
    return Level::Scalar;
}

namespace {

/** Parses a BITDEC_SIMD level name; false when it is none. */
bool
parseLevel(const char* value, Level& out)
{
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512})
        if (std::strcmp(value, toString(l)) == 0) {
            out = l;
            return true;
        }
    return false;
}

} // namespace

Level
resolveSimdOverride(const char* value, Level max_supported,
                    const std::string& features)
{
    if (value == nullptr || *value == '\0')
        return max_supported;
    Level want = Level::Scalar;
    if (!parseLevel(value, want))
        BITDEC_FATAL("BITDEC_SIMD='", value,
                     "' is not a SIMD level (use scalar, avx2 or avx512)");
    if (want > max_supported)
        BITDEC_FATAL("BITDEC_SIMD=", value,
                     " requests an unsupported ISA on this host (max usable "
                     "level: ", toString(max_supported),
                     "; detected CPU features: ", features, ")");
    return want;
}

Level
enabledLevelCap()
{
    static const Level max_supported = maxSupportedLevel();
    const char* value = std::getenv("BITDEC_SIMD");
    if (value == nullptr || *value == '\0')
        return max_supported;
    Level want = Level::Scalar;
    if (parseLevel(value, want) && want <= max_supported)
        return want;
    // Fatal path only: the override is bogus or asks for too much.
    return resolveSimdOverride(value, max_supported, describeCpuFeatures());
}

const KernelTable*
kernels(Level l)
{
    switch (l) {
    case Level::Scalar: return nullptr;
    case Level::Avx2: return avx2Kernels();
    case Level::Avx512: return avx512Kernels();
    }
    return nullptr;
}

} // namespace bitdec::exec::simd
