/**
 * @file
 * Runtime SIMD dispatch: cpuid/xgetbv feature detection, the
 * `BITDEC_SIMD=scalar|avx2|avx512` override, and Level -> KernelTable
 * resolution.
 *
 * A Level is usable only when the CPU reports the ISA, the OS saves the
 * register state (XCR0), and the matching kernel TU was compiled in.
 * `BITDEC_SIMD` caps the level (scalar < avx2 < avx512); naming a level
 * this host cannot run is a fatal error that lists the detected CPU
 * features — never a silent fallback. Every fused backend runs at
 * enabledLevelCap(), read once per decode call; every level gives the
 * same bytes (kernel_table.h).
 */
#ifndef BITDEC_EXEC_SIMD_DISPATCH_H
#define BITDEC_EXEC_SIMD_DISPATCH_H

#include <string>

#include "exec/simd/kernel_table.h"

namespace bitdec::exec::simd {

/** SIMD levels, ordered: a level implies every lower one. */
enum class Level
{
    Scalar = 0,
    Avx2 = 1,   //!< AVX2 + F16C, 8 float lanes
    Avx512 = 2, //!< AVX-512 F/BW/DQ/VL + F16C, 16 float lanes
};

/** "scalar" / "avx2" / "avx512" — the BITDEC_SIMD vocabulary. */
const char* toString(Level l);

/** What cpuid/xgetbv report on this host. */
struct CpuFeatures
{
    bool avx = false;
    bool avx2 = false;
    bool fma = false;
    bool f16c = false;
    bool avx512f = false;
    bool avx512bw = false;
    bool avx512dq = false;
    bool avx512vl = false;
    bool os_ymm = false; //!< OS saves ymm state (XCR0 bits 1-2)
    bool os_zmm = false; //!< OS saves zmm/opmask state (XCR0 bits 5-7)
};

/** Detected once per process, then cached. */
const CpuFeatures& cpuFeatures();

/** Space-separated detected-feature list for messages and bench JSON,
 *  e.g. "avx avx2 fma f16c avx512f ..."; "none" when nothing relevant. */
std::string describeCpuFeatures();

/** Highest level this host can run (CPU + OS + compiled-in kernels). */
Level maxSupportedLevel();

/** True when CPU, OS and build support @p l (ignores BITDEC_SIMD). */
bool levelSupported(Level l);

/**
 * The level cap after applying BITDEC_SIMD: maxSupportedLevel() when the
 * variable is unset/empty; otherwise the named level. Fatal when the
 * value is not a level name, or names a level this host cannot run (the
 * error lists the detected CPU features). Cheap enough for every decode
 * call: the feature list is built only on the fatal path.
 */
Level enabledLevelCap();

/**
 * Pure core of enabledLevelCap(), exposed so tests can probe the
 * fail-fast paths with fake hosts: resolves @p value (the BITDEC_SIMD
 * string, may be null) against a host whose max level is
 * @p max_supported and whose detected features read @p features.
 */
Level resolveSimdOverride(const char* value, Level max_supported,
                          const std::string& features);

/** The kernel table of @p l; null for Scalar or a level not compiled
 *  in. Callers on the hot path resolve once per decode, not per tile. */
const KernelTable* kernels(Level l);

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_DISPATCH_H
