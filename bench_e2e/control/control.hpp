#pragma once

// The control: the frozen snapshot of the simulator in control/src/, built
// into this binary with its namespace renamed. An untraced run times every
// set-up, round and batch of the program under test against the same
// operation of the snapshot, run right beside it on the same thread, so
// both see the same state of a shared host. This header names no simulator
// type, so that it compiles against either tree.

#include <cstdint>
#include <memory>
#include <string>

namespace e2e_control {

/// One deployment of a workload, run by the snapshot. The methods mirror
/// the instances of ops.hpp and return milliseconds where they time.
class Instance {
 public:
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  virtual ~Instance() = default;

  virtual double round(int round) = 0;
  virtual void prepare_batch() = 0;
  virtual double batch() = 0;
};

/// Set up `workload` as the benchmark does for the program under test
/// (the caller times this call). Throws std::invalid_argument for an
/// unknown name.
std::unique_ptr<Instance> set_up(const std::string& workload,
                                 std::uint64_t seed, bool smoke);

/// Size the snapshot's own exec pool.
void set_thread_count(int threads);

}  // namespace e2e_control
