#include "src/common/mapped.h"

#include <sys/mman.h>

#include <atomic>

namespace votegral {

namespace {

std::atomic<uint64_t> g_mapped_bytes{0};

}  // namespace

void* MapBytes(size_t bytes) {
  void* block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) {
    throw std::bad_alloc();
  }
  g_mapped_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return block;
}

void UnmapBytes(void* block, size_t bytes) {
  ::munmap(block, bytes);
  g_mapped_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

uint64_t MappedBytesInUse() { return g_mapped_bytes.load(std::memory_order_relaxed); }

}  // namespace votegral
