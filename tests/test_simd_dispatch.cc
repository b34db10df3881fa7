/**
 * @file
 * SIMD dispatch tests: the BITDEC_SIMD override (scalar forcing, bogus
 * values, unsupported-ISA requests failing fast with the detected CPU
 * features), availability gating of the fp16/paged sibling backends,
 * fused-packed following the enabled level, and the level/kernel-table
 * invariants of the runtime detection.
 */
#include <gtest/gtest.h>

#include <string>

#include "backend/registry.h"
#include "exec/simd/dispatch.h"
#include "scoped_simd_env.h"

namespace bitdec {
namespace {

using exec::simd::Level;

// ------------------------------------------------- level detection ------

TEST(SimdDispatch, SupportedLevelsAreMonotone)
{
    // A supported level implies every lower one; the max is consistent.
    EXPECT_TRUE(exec::simd::levelSupported(Level::Scalar));
    if (exec::simd::levelSupported(Level::Avx512))
        EXPECT_TRUE(exec::simd::levelSupported(Level::Avx2));
    const Level max = exec::simd::maxSupportedLevel();
    EXPECT_TRUE(exec::simd::levelSupported(max));
}

TEST(SimdDispatch, KernelTablesMatchSupport)
{
    // Scalar has no table by design; a supported SIMD level must have
    // one (support includes "compiled in").
    EXPECT_EQ(exec::simd::kernels(Level::Scalar), nullptr);
    if (exec::simd::levelSupported(Level::Avx2))
        EXPECT_NE(exec::simd::kernels(Level::Avx2), nullptr);
    if (exec::simd::levelSupported(Level::Avx512))
        EXPECT_NE(exec::simd::kernels(Level::Avx512), nullptr);
}

TEST(SimdDispatch, DescribesDetectedFeatures)
{
    const std::string features = exec::simd::describeCpuFeatures();
    EXPECT_FALSE(features.empty());
    if (exec::simd::levelSupported(Level::Avx2)) {
        EXPECT_NE(features.find("avx2"), std::string::npos);
        EXPECT_NE(features.find("f16c"), std::string::npos);
    }
}

// ------------------------------------------------- override parsing -----

TEST(SimdDispatch, UnsetOverrideKeepsMaxLevel)
{
    EXPECT_EQ(exec::simd::resolveSimdOverride(nullptr, Level::Avx2, "x"),
              Level::Avx2);
    EXPECT_EQ(exec::simd::resolveSimdOverride("", Level::Avx512, "x"),
              Level::Avx512);
}

TEST(SimdDispatch, ScalarOverrideCapsAnyHost)
{
    EXPECT_EQ(exec::simd::resolveSimdOverride("scalar", Level::Avx512, "x"),
              Level::Scalar);
    EXPECT_EQ(exec::simd::resolveSimdOverride("avx2", Level::Avx512, "x"),
              Level::Avx2);
}

TEST(SimdDispatchDeath, BogusOverrideDiesNamingVocabulary)
{
    EXPECT_DEATH(exec::simd::resolveSimdOverride("avx9000", Level::Avx512,
                                                 "x"),
                 "BITDEC_SIMD='avx9000' is not a SIMD level.*scalar, avx2 or "
                 "avx512");
}

TEST(SimdDispatchDeath, UnsupportedIsaRequestDiesNamingCpuFeatures)
{
    // A scalar-only host asked for AVX-512 must die naming what the CPU
    // actually has — never silently fall back.
    EXPECT_DEATH(exec::simd::resolveSimdOverride("avx512", Level::Scalar,
                                                 "avx fma"),
                 "unsupported ISA.*max usable level: scalar.*detected CPU "
                 "features: avx fma");
}

// ------------------------------------------- env-driven availability ----

TEST(SimdDispatch, ScalarEnvForcesFallback)
{
    ScopedSimdEnv env("scalar");
    EXPECT_EQ(exec::simd::enabledLevelCap(), Level::Scalar);
    EXPECT_FALSE(exec::simd::levelEnabled(Level::Avx2));
    EXPECT_FALSE(exec::simd::levelEnabled(Level::Avx512));
    EXPECT_NE(exec::simd::unavailableReason(Level::Avx2)
                  .find("BITDEC_SIMD"),
              std::string::npos);
}

TEST(SimdDispatch, ScalarEnvHidesSiblingsFromListings)
{
    ScopedSimdEnv env("scalar");
    auto& reg = backend::BackendRegistry::instance();
    for (const std::string& name : reg.availableNames()) {
        EXPECT_EQ(name.find("-avx"), std::string::npos) << name;
    }
    for (const std::string& name : reg.fusedNames()) {
        EXPECT_EQ(name.find("-avx"), std::string::npos) << name;
    }
    // The scalar hot paths stay listed: forcing scalar never empties the
    // perf-gate set.
    EXPECT_EQ(static_cast<int>(reg.fusedNames().size()), 3);
}

TEST(SimdDispatchDeath, ResolvingDisabledSiblingDiesWithReason)
{
    ScopedSimdEnv env("scalar");
    EXPECT_DEATH(
        backend::BackendRegistry::instance().resolve("fused-paged-avx2"),
        "'fused-paged-avx2' is unavailable on this host.*BITDEC_SIMD");
}

TEST(SimdDispatch, SiblingLevelsReportThemselves)
{
    auto& reg = backend::BackendRegistry::instance();
    EXPECT_STREQ(reg.resolve("fused-paged").simdLevel(), "scalar");
    const backend::AttentionBackend* avx2 = reg.find("fused-paged-avx2");
    ASSERT_NE(avx2, nullptr);
    EXPECT_STREQ(avx2->simdLevel(), "avx2");
    const backend::AttentionBackend* avx512 = reg.find("fused-fp16-avx512");
    ASSERT_NE(avx512, nullptr);
    EXPECT_STREQ(avx512->simdLevel(), "avx512");
}

TEST(SimdDispatch, FusedPackedReportsTheEnabledLevel)
{
    // fused-packed has no siblings: it runs at the enabled level, and
    // BITDEC_SIMD moves it.
    auto& reg = backend::BackendRegistry::instance();
    EXPECT_EQ(reg.find("fused-packed-avx2"), nullptr);
    EXPECT_EQ(reg.find("fused-packed-avx512"), nullptr);
    const backend::AttentionBackend& packed = reg.resolve("fused-packed");
    EXPECT_STREQ(packed.simdLevel(),
                 exec::simd::toString(exec::simd::enabledLevelCap()));
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512}) {
        if (!exec::simd::levelSupported(l))
            continue;
        ScopedSimdEnv env(exec::simd::toString(l));
        EXPECT_STREQ(packed.simdLevel(), exec::simd::toString(l));
    }
}

} // namespace
} // namespace bitdec
