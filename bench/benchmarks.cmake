# One binary per paper table/figure plus ablations and microbenchmarks.
# Every bench binary runs with sensible full-scale defaults and takes
# --scale=<f> (shrink or grow the workload), --threads=<n> (workers, 0 =
# all cores; results are identical for every value) and the
# observability flags; `--help` lists the flags that bench reads, and any
# other flag exits 2. So `for b in build/bench/*; do $b; done` regenerates
# every result. The <name>_cli test checks that `unread`, a flag the bench
# never reads, is rejected (tests/bench/bench_cli.cmake).
function(dmap_add_bench name unread)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE dmap_sim)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  add_test(NAME ${name}_cli
           COMMAND ${CMAKE_COMMAND} -DBENCH=$<TARGET_FILE:${name}>
                   -DUNREAD=${unread}
                   -P ${CMAKE_SOURCE_DIR}/tests/bench/bench_cli.cmake)
  set_tests_properties(${name}_cli PROPERTIES TIMEOUT 30)
endfunction()

dmap_add_bench(fig4_response_time --write-quorum=1)
dmap_add_bench(fig5_churn --write-quorum=1)
dmap_add_bench(fig6_load_balance --cache=64)
dmap_add_bench(fig7_analytical --serving=service_rate=500)
dmap_add_bench(fig8_offered_load --cache=64)
dmap_add_bench(storage_overhead --shards=16)
dmap_add_bench(ablation_baselines --batch-updates=8)
dmap_add_bench(ablation_dmap --cache=64)
dmap_add_bench(ablation_failures --fault-seed=7)
add_test(NAME ablation_failures_unknown_as
         COMMAND ${CMAKE_COMMAND} -DBENCH=$<TARGET_FILE:ablation_failures>
                 -DPLAN=${CMAKE_SOURCE_DIR}/tests/bench/unknown_as.plan
                 -P ${CMAKE_SOURCE_DIR}/tests/bench/unknown_as_plan.cmake)
set_tests_properties(ablation_failures_unknown_as PROPERTIES TIMEOUT 30)
dmap_add_bench(ablation_convergence --anti-entropy=5)
dmap_add_bench(ablation_staleness --cache=64)
dmap_add_bench(chaos_sweep --anti-entropy=5)
target_link_libraries(chaos_sweep PRIVATE dmap_proto)
dmap_add_bench(fig9_consistency --batch-updates=8)
target_link_libraries(fig9_consistency PRIVATE dmap_proto)
dmap_add_bench(fig10_mobility --write-quorum=1)

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
