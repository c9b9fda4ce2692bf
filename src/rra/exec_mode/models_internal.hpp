// Per-personality factory hooks, internal to src/rra/exec_mode/. Each
// model lives in its own translation unit; the public factory
// (make_execution_model) dispatches here.
#pragma once

#include <memory>

#include "rra/exec_mode/execution_model.hpp"

namespace dim::rra::detail {

std::unique_ptr<ExecutionModel> make_row_sync_model(const ExecModeParams& params);
std::unique_ptr<ExecutionModel> make_elastic_model(const ExecModeParams& params);

}  // namespace dim::rra::detail
