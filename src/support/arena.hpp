// Page-granular bump arena for the hot arrays (the Galois Bag/mmap idiom):
// slabs are anonymous mmap'd regions, allocation is a cursor bump, and
// nothing is returned to the OS until reset()/destruction.
//
// Why mmap instead of operator new: anonymous pages are COMMITTED BY FIRST
// TOUCH. A fresh slab reserves only address space; the physical page behind
// each cache line materializes on the first write, on the NUMA node of the
// writing thread. Arrays the canonical chunk-fold driver fills from the owning rank's
// worker therefore land in that worker's local memory without any explicit
// placement calls — the classic first-touch discipline of NUMA-aware HPC
// codes. (Single-socket machines see the same code path; placement is just a
// no-op there.)
//
// Ownership: ArenaAllocator holds a shared_ptr<PageArena>, so containers can
// be moved/copied across scopes and threads freely; the arena dies with its
// last container. Deallocation is a no-op — bump arenas reclaim via reset()
// (rewind, keep slabs mapped) or the destructor (munmap everything). That
// fits the hot arrays exactly: they are built once, streamed many times, and
// dropped wholesale.
//
// All mapped/used bytes feed the process-wide counters in support/memtrack
// (arena_mapped_bytes / arena_used_bytes) so footprint reports can separate
// arena-backed structures from general heap.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace gbpol {

class PageArena {
 public:
  static constexpr std::size_t kDefaultSlabBytes = std::size_t(1) << 20;  // 1 MiB

  explicit PageArena(std::size_t min_slab_bytes = kDefaultSlabBytes);
  ~PageArena();
  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;

  // Bump-allocates `bytes` aligned to `alignment` (power of two). Thread-safe.
  void* allocate(std::size_t bytes, std::size_t alignment);

  // Rewinds all slab cursors, keeping the slabs mapped for reuse. Every
  // pointer previously returned by allocate() is invalidated.
  void reset();

  std::size_t mapped_bytes() const;  // total bytes of mapped slab space
  std::size_t used_bytes() const;    // bytes handed out since last reset
  std::size_t slab_count() const;

 private:
  struct Slab {
    std::byte* base = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  Slab& grow(std::size_t at_least);  // requires mu_ held

  mutable std::mutex mu_;
  std::vector<Slab> slabs_;
  std::size_t min_slab_bytes_;
  std::size_t mapped_ = 0;
  std::size_t used_ = 0;
  std::size_t active_ = 0;  // index of the slab with the open cursor
};

// std-allocator adapter. A default-constructed allocator owns a FRESH arena,
// so `ArenaVector<double> v;` is self-contained; pass a shared arena to
// co-locate several containers in the same slabs (e.g. the three PointsSoA
// axes of Prepared).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  // Assignment/swap carry the arena with the buffer: the moved-to container
  // must keep allocating from the arena that owns its elements.
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() : arena_(std::make_shared<PageArena>()) {}
  explicit ArenaAllocator(std::shared_ptr<PageArena> arena)
      : arena_(std::move(arena)) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    // Cache-line alignment regardless of T: the SIMD kernels stream these
    // arrays and the per-chunk partials must not false-share.
    const std::size_t align = alignof(T) > 64 ? alignof(T) : 64;
    return static_cast<T*>(arena_->allocate(n * sizeof(T), align));
  }
  void deallocate(T*, std::size_t) noexcept {}  // bump arena: reclaimed by reset()

  const std::shared_ptr<PageArena>& arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_.get() == other.arena().get();
  }

 private:
  std::shared_ptr<PageArena> arena_;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace gbpol
