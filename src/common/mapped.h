// Large transient buffers mapped straight from the kernel.
//
// glibc serves an allocation above its mmap threshold with a private mapping
// that free() unmaps. The threshold is dynamic, though: freeing such a block
// raises it to the block's size (up to 32 MiB), and from then on blocks that
// size come from the calling thread's arena. A verifier node running on a
// worker thread then grows that worker's arena to the node's own peak, and
// the pages behind it stay with the arena: freed, but scattered among live
// chunks, so later allocations wander over them and the resident set grows
// (docs/ARCHITECTURE.md §Verification architecture). MappedAllocator maps
// every block of at least kMappedMinBytes itself and unmaps it on
// deallocation, so a transient buffer never enlarges an arena. Smaller
// blocks use operator new.
#ifndef SRC_COMMON_MAPPED_H_
#define SRC_COMMON_MAPPED_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace votegral {

// The smallest block MappedAllocator maps (glibc's initial mmap threshold).
inline constexpr size_t kMappedMinBytes = size_t{128} << 10;

// Maps `bytes` (>= kMappedMinBytes) of zeroed private memory; throws
// std::bad_alloc when the kernel refuses.
void* MapBytes(size_t bytes);
void UnmapBytes(void* block, size_t bytes);

// Bytes currently mapped through MapBytes (a relaxed gauge): heap in use
// that mallinfo2 does not see.
uint64_t MappedBytesInUse();

template <typename T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) {}  // NOLINT: allocator rebind

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes >= kMappedMinBytes) {
      return static_cast<T*>(MapBytes(bytes));
    }
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* block, size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes >= kMappedMinBytes) {
      UnmapBytes(block, bytes);
      return;
    }
    std::allocator<T>().deallocate(block, n);
  }

  friend bool operator==(const MappedAllocator&, const MappedAllocator&) { return true; }
};

template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

}  // namespace votegral

#endif  // SRC_COMMON_MAPPED_H_
