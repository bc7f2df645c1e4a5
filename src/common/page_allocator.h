// An std::allocator-shaped allocator that maps whole pages from the kernel
// (mmap) and unmaps them on deallocate.
//
// For large, short-lived tables built once and dropped, such as the trace
// statistics builder's. glibc serves a multi-MiB request with mmap as well,
// but freeing that block raises malloc's dynamic mmap threshold, so the
// process's later large buffers land on the brk heap, where freed memory
// stays resident. Pages mapped here never pass through malloc, so dropping
// the table returns them to the kernel and leaves malloc's threshold alone.
// Fresh pages read as zero.

#ifndef MACARON_SRC_COMMON_PAGE_ALLOCATOR_H_
#define MACARON_SRC_COMMON_PAGE_ALLOCATOR_H_

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>

namespace macaron {

template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}

  T* allocate(size_t n) {
    if (n == 0) {
      return nullptr;
    }
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) {
    if (p != nullptr) {
      munmap(p, n * sizeof(T));
    }
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const {
    return true;
  }
};

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_PAGE_ALLOCATOR_H_
