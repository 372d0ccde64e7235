#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace isomap {

/// Monotonic bump allocator scoped to one protocol round. The convergecast
/// (isomap/convergecast.cpp) keeps the round's reports in one table and
/// gives each node on a report path an inbox of 4-byte indices into it,
/// with the filter's per-level chain heads (isomap/filter.hpp KeptSet):
/// thousands of small vectors at 10^6 nodes. The arena backs them all so
/// none costs a heap allocation. It hands out memory from large
/// blocks with a pointer bump, never frees individual allocations, and
/// releases everything at once when destroyed (or rewound with reset()
/// between rounds).
///
/// Not thread-safe: one arena belongs to one round on one thread, which is
/// exactly how the protocol runs (trials parallelize *across* rounds).
class RoundArena {
 public:
  explicit RoundArena(std::size_t block_bytes = std::size_t{1} << 16)
      : block_bytes_(block_bytes) {}

  RoundArena(const RoundArena&) = delete;
  RoundArena& operator=(const RoundArena&) = delete;

  void* allocate(std::size_t bytes, std::size_t align) {
    for (;;) {
      if (current_ < blocks_.size()) {
        const std::size_t offset = align_up(used_, align);
        if (offset + bytes <= blocks_[current_].size) {
          used_ = offset + bytes;
          return blocks_[current_].data.get() + offset;
        }
      }
      if (current_ + 1 < blocks_.size()) {
        // Recycled block from before the last reset(); a block too small
        // for this request is skipped and retried on the next one.
        ++current_;
        used_ = 0;
        continue;
      }
      const std::size_t size = std::max(block_bytes_, bytes + align);
      blocks_.push_back({std::make_unique<std::byte[]>(size), size});
      current_ = blocks_.size() - 1;
      used_ = 0;
    }
  }

  /// Rewind to empty, keeping the blocks for reuse by the next round.
  /// Everything previously allocated becomes invalid.
  void reset() {
    current_ = 0;
    used_ = 0;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size;
  };

  static std::size_t align_up(std::size_t n, std::size_t align) {
    return (n + align - 1) & ~(align - 1);
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t current_ = 0;
  std::size_t used_ = 0;
};

/// STL allocator over a RoundArena. deallocate() is a no-op — memory comes
/// back only at arena reset/destruction — so containers using it must not
/// outlive the arena.
template <typename T>
class ArenaAlloc {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  explicit ArenaAlloc(RoundArena& arena) : arena_(&arena) {}
  template <typename U>
  ArenaAlloc(const ArenaAlloc<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}

  RoundArena* arena() const { return arena_; }

  friend bool operator==(const ArenaAlloc& a, const ArenaAlloc& b) {
    return a.arena_ == b.arena_;
  }

 private:
  RoundArena* arena_;
};

}  // namespace isomap
