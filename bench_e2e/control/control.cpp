// Compiled against control/src/ with `isomap` defined to `isomap_ctl`, so
// every simulator name below resolves to the snapshot's copy.

#include "control/control.hpp"

#include <stdexcept>
#include <utility>

#include "exec/exec.hpp"
#include "ops.hpp"

namespace e2e_control {
namespace {

namespace ops = isomap::e2e;

template <typename Ops>
class Adapter final : public Instance {
 public:
  template <typename... Args>
  explicit Adapter(Args&&... args) : ops_(std::forward<Args>(args)...) {}

  double round(int round) override { return ops_.round(round); }
  void prepare_batch() override { ops_.prepare_batch(); }
  double batch() override { return ops_.batch(); }

 private:
  Ops ops_;
};

}  // namespace

std::unique_ptr<Instance> set_up(const std::string& workload,
                                 std::uint64_t seed, bool smoke) {
  if (workload == "scale_1m")
    return std::make_unique<Adapter<ops::OneShot>>(
        ops::scale_1m_config(seed, smoke), ops::scaling_options);
  if (workload == "harbor_dense")
    return std::make_unique<Adapter<ops::OneShot>>(
        ops::harbor_dense_config(seed, smoke), ops::dense_harbor_options);
  if (workload == "harbor_drift")
    return std::make_unique<Adapter<ops::Drift>>(
        ops::harbor_drift_config(seed, smoke));
  if (workload == "service_mixed")
    return std::make_unique<Adapter<ops::Service>>(
        ops::service_scenario(seed, smoke));
  throw std::invalid_argument("control: unknown workload " + workload);
}

void set_thread_count(int threads) { isomap::exec::set_thread_count(threads); }

}  // namespace e2e_control
