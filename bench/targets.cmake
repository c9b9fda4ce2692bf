# Bench binaries are emitted into build/bench/ with no CMake clutter, so
# `for b in build/bench/*; do $b; done` runs exactly the benches.
set(DIMSIM_BENCHES
  bench_fig3_characterization
  bench_table2_speedup
  bench_fig4_summary
  bench_fig5_power
  bench_fig6_energy
  bench_table3_area
  bench_ablation_rows
  bench_ablation_reconfig
  bench_ablation_speculation
  bench_ablation_cache
  bench_ablation_replacement
  bench_future_powergating
  bench_memory_sensitivity
  bench_ablation_baseline
  bench_heterogeneous
  bench_related_work
  bench_ablation_btcost
)

foreach(b ${DIMSIM_BENCHES})
  add_executable(${b} bench/${b}.cpp)
  target_link_libraries(${b} PRIVATE dimsim)
  target_include_directories(${b} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${b} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

# Plain main (no google-benchmark): warmup + median-of-N so the CI-pinned
# trace-dispatch speedup is stable, with a --min-speedup gate.
add_executable(bench_simulator_micro bench/bench_simulator_micro.cpp)
target_link_libraries(bench_simulator_micro PRIVATE dimsim)
target_include_directories(bench_simulator_micro PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(bench_simulator_micro PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Serve-daemon load bench: in-process by default, --connect drives a live
# dimsim-serve socket, --check dumps responses for determinism diffs.
add_executable(bench_serve_load bench/bench_serve_load.cpp)
target_link_libraries(bench_serve_load PRIVATE dimsim)
target_include_directories(bench_serve_load PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(bench_serve_load PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
