/**
 * @file
 * SIMD dispatch tests: the BITDEC_SIMD override (scalar forcing, bogus
 * values, unsupported-ISA requests failing fast with the detected CPU
 * features), every fused backend following the enabled level, and the
 * level/kernel-table invariants of the runtime detection.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

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
    if (exec::simd::levelSupported(Level::Avx512)) {
        EXPECT_TRUE(exec::simd::levelSupported(Level::Avx2));
    }
    const Level max = exec::simd::maxSupportedLevel();
    EXPECT_TRUE(exec::simd::levelSupported(max));
}

TEST(SimdDispatch, KernelTablesMatchSupport)
{
    // Every supported level has its own table (support includes
    // "compiled in"), scalar included.
    std::vector<const exec::simd::KernelTable*> tables;
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512})
        if (exec::simd::levelSupported(l))
            tables.push_back(&exec::simd::kernels(l));
    ASSERT_FALSE(tables.empty());
    for (std::size_t i = 0; i < tables.size(); i++)
        for (std::size_t j = i + 1; j < tables.size(); j++)
            EXPECT_NE(tables[i], tables[j]);
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

// ------------------------------------------------ env-driven level ----

TEST(SimdDispatch, ScalarEnvForcesFallback)
{
    ScopedSimdEnv env("scalar");
    EXPECT_EQ(exec::simd::enabledLevelCap(), Level::Scalar);
}

TEST(SimdDispatchDeath, BogusEnvDiesAtTheCap)
{
    // The cap is read per decode call without building the feature list;
    // a bad value must still die with the full message.
    ScopedSimdEnv env("avx9000");
    EXPECT_DEATH(exec::simd::enabledLevelCap(),
                 "BITDEC_SIMD='avx9000' is not a SIMD level");
}

TEST(SimdDispatch, FusedBackendsRunAtTheEnabledLevel)
{
    // No per-ISA siblings: the three fused backends are the whole
    // perf-gate set at every cap, and each runs at the enabled level.
    auto& reg = backend::BackendRegistry::instance();
    const std::vector<std::string> fused = {"fused-fp16", "fused-packed",
                                            "fused-paged"};
    for (const std::string& name : reg.names())
        EXPECT_EQ(name.find("-avx"), std::string::npos) << name;
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512}) {
        if (!exec::simd::levelSupported(l))
            continue;
        ScopedSimdEnv env(exec::simd::toString(l));
        EXPECT_EQ(reg.fusedNames(), fused);
        for (const std::string& name : fused)
            EXPECT_STREQ(reg.resolve(name).simdLevel(),
                         exec::simd::toString(l))
                << name;
    }
    for (const std::string& name : fused)
        EXPECT_STREQ(reg.resolve(name).simdLevel(),
                     exec::simd::toString(exec::simd::enabledLevelCap()))
            << name;
}

} // namespace
} // namespace bitdec
