# One binary per paper table/figure plus ablations and microbenchmarks.
# Every binary runs with sensible full-scale defaults and accepts
#   --scale=<f>    shrink (or grow) the workload by factor f
#   --threads=<n>  experiment workers (0 = all cores); results are
#                  identical for every value
# so `for b in build/bench/*; do $b; done` regenerates every result.

function(dmap_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE dmap_sim)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

dmap_add_bench(fig4_response_time)
dmap_add_bench(fig5_churn)
dmap_add_bench(fig6_load_balance)
dmap_add_bench(fig7_analytical)
dmap_add_bench(fig8_offered_load)
dmap_add_bench(storage_overhead)
dmap_add_bench(ablation_baselines)
dmap_add_bench(ablation_dmap)
dmap_add_bench(ablation_failures)
dmap_add_bench(ablation_convergence)
dmap_add_bench(ablation_staleness)
dmap_add_bench(chaos_sweep)
target_link_libraries(chaos_sweep PRIVATE dmap_proto)
dmap_add_bench(fig9_consistency)
target_link_libraries(fig9_consistency PRIVATE dmap_proto)
dmap_add_bench(fig10_mobility)

add_executable(micro_benchmarks ${CMAKE_SOURCE_DIR}/bench/micro_benchmarks.cc)
target_link_libraries(micro_benchmarks PRIVATE dmap_sim benchmark::benchmark)
set_target_properties(micro_benchmarks PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# dmapbench (bench/perf/README.md) and its dmapbench_smoke test.
include(${CMAKE_SOURCE_DIR}/bench/perf/perf.cmake)
# Sanitized builds run the smoke test several times slower: ~57 s under
# ThreadSanitizer with `ctest -j 2` on a 4-vCPU host, against the 60 s
# TIMEOUT perf.cmake sets for plain builds. Give them headroom.
if(TEST dmapbench_smoke AND CMAKE_CXX_FLAGS MATCHES "-fsanitize=")
  set_tests_properties(dmapbench_smoke PROPERTIES TIMEOUT 300)
endif()
