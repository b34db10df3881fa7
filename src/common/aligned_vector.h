/**
 * @file
 * std::vector storage aligned to a 64-byte cache line.
 *
 * The fused kernels stream their scratch tiles and dequant plans with
 * 16-float (64-byte) vector loads and stores. malloc only promises 16-byte
 * alignment, so a plain std::vector puts three of every four such buffers
 * where each vector access splits across two cache lines, and which
 * buffers split then depends on the heap's history. Aligning them makes
 * the hot loops' speed independent of where the heap places them.
 */
#ifndef BITDEC_COMMON_ALIGNED_VECTOR_H
#define BITDEC_COMMON_ALIGNED_VECTOR_H

#include <cstddef>
#include <new>
#include <vector>

namespace bitdec {

/** Bytes of one cache line, the alignment of AlignedVector storage. */
constexpr std::size_t kCacheLineBytes = 64;

/** Allocator handing out cache-line-aligned storage. */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U>&)
    {
    }

    T*
    allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(
            n * sizeof(T), std::align_val_t{kCacheLineBytes}));
    }

    void
    deallocate(T* p, std::size_t)
    {
        ::operator delete(p, std::align_val_t{kCacheLineBytes});
    }

    template <typename U>
    bool
    operator==(const CacheLineAllocator<U>&) const
    {
        return true;
    }
};

/** A std::vector whose data() is cache-line aligned. */
template <typename T>
using AlignedVector = std::vector<T, CacheLineAllocator<T>>;

} // namespace bitdec

#endif // BITDEC_COMMON_ALIGNED_VECTOR_H
