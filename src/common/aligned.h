#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace sp {

/// Minimal over-aligned allocator (C++17 aligned operator new). The RNS
/// backend stores all residue rows of a polynomial in one buffer allocated
/// through this so SIMD kernels see 64-byte (cache-line / AVX-512 register)
/// aligned row starts whenever the row stride is a multiple of 8 elements.
///
/// Elements are default-initialized: for u64, `AlignedVec<u64>(n)` and
/// `resize(n)` leave the new words unwritten, so a buffer that is written
/// next costs no zero-fill pass. Ask for zeros explicitly (`assign(n, 0)`).
template <typename T, std::size_t Align = 64>
struct AlignedAlloc {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "AlignedAlloc: alignment must be a power of two >= alignof(T)");
  using value_type = T;

  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };
};

template <typename T, typename U, std::size_t A>
bool operator==(const AlignedAlloc<T, A>&, const AlignedAlloc<U, A>&) {
  return true;
}
template <typename T, typename U, std::size_t A>
bool operator!=(const AlignedAlloc<T, A>&, const AlignedAlloc<U, A>&) {
  return false;
}

template <typename T>
using AlignedVec = std::vector<T, AlignedAlloc<T, 64>>;

}  // namespace sp
