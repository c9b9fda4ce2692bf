#include "rra/exec_mode/execution_model.hpp"

#include "rra/exec_mode/models_internal.hpp"

namespace dim::rra {

std::unique_ptr<ExecutionModel> make_execution_model(const ExecModeParams& params) {
  switch (params.mode) {
    case ExecMode::kElastic: return detail::make_elastic_model(params);
    case ExecMode::kRowSync: break;
  }
  return detail::make_row_sync_model(params);
}

}  // namespace dim::rra
