// The paper's row-synchronous personality: a thin wrapper over the classic
// functional core, whose built-in timing (rows_exec_cycles + serial cache
// stalls) IS the row-synchronous model. Kept as an ExecutionModel so the
// accelerated system dispatches every personality uniformly.
#include "rra/exec_mode/models_internal.hpp"

namespace dim::rra::detail {
namespace {

class RowSyncModel final : public ExecutionModel {
 public:
  bool admits(const Configuration&) const override { return true; }

  ArrayExecOutcome execute(const Configuration& config, sim::CpuState& state,
                           mem::Memory& memory, mem::Cache* dcache,
                           const ArrayTimingParams& timing,
                           bool resident) const override {
    return execute_configuration(config, state, memory, dcache, timing, resident);
  }
};

}  // namespace

std::unique_ptr<ExecutionModel> make_row_sync_model(const ExecModeParams&) {
  return std::make_unique<RowSyncModel>();
}

}  // namespace dim::rra::detail
