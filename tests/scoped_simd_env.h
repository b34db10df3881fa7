/**
 * @file
 * Scoped BITDEC_SIMD override for tests and benches that compare SIMD
 * levels of one backend: the level cap is read per query, so code run
 * inside the scope sees the overridden level.
 */
#ifndef BITDEC_TESTS_SCOPED_SIMD_ENV_H
#define BITDEC_TESTS_SCOPED_SIMD_ENV_H

#include <cstdlib>
#include <string>

namespace bitdec {

/** Sets (or, for null, unsets) BITDEC_SIMD; restores the previous state
 *  on exit. */
class ScopedSimdEnv
{
  public:
    explicit ScopedSimdEnv(const char* value)
    {
        const char* prev = std::getenv("BITDEC_SIMD");
        had_prev_ = prev != nullptr;
        if (had_prev_)
            prev_ = prev;
        if (value != nullptr)
            setenv("BITDEC_SIMD", value, 1);
        else
            unsetenv("BITDEC_SIMD");
    }

    ~ScopedSimdEnv()
    {
        if (had_prev_)
            setenv("BITDEC_SIMD", prev_.c_str(), 1);
        else
            unsetenv("BITDEC_SIMD");
    }

    ScopedSimdEnv(const ScopedSimdEnv&) = delete;
    ScopedSimdEnv& operator=(const ScopedSimdEnv&) = delete;

  private:
    bool had_prev_ = false;
    std::string prev_;
};

} // namespace bitdec

#endif // BITDEC_TESTS_SCOPED_SIMD_ENV_H
