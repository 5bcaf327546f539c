# dmapbench: the end-to-end + per-layer benchmark (see README.md).
#
# Adds the dmapbench target and its dmapbench_smoke test to the top-level
# build, so the benchmark is compiled with the repository's own settings
# and links its dmap_* targets. Include it after those targets exist. A
# build whose CMakeLists does not include it builds it with
#
#   cmake -S . -B <dir> -DCMAKE_PROJECT_dmap_INCLUDE=<abs>/bench/perf/perf.cmake
#
# which runs this file right after project(dmap); it then defers itself to
# the end of the top-level CMakeLists.
if(TARGET dmapbench)
  return()
endif()
if(NOT TARGET dmap_sim)
  # Deferred arguments are expanded when the call runs.
  set(DMAPBENCH_CMAKE ${CMAKE_CURRENT_LIST_FILE})
  cmake_language(DEFER CALL include ${DMAPBENCH_CMAKE})
  return()
endif()

set(DMAPBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
add_executable(dmapbench
  ${DMAPBENCH_DIR}/dmapbench.cc
  ${DMAPBENCH_DIR}/workloads.cc
  ${DMAPBENCH_DIR}/layers.cc
)
target_link_libraries(dmapbench PRIVATE dmap_sim dmap_proto)
set_target_properties(dmapbench PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Run with no arguments, dmapbench runs every workload at smoke size with
# its correctness gate (threads 1 vs 4, closed form vs event-driven).
add_test(NAME dmapbench_smoke COMMAND dmapbench)
set_tests_properties(dmapbench_smoke PROPERTIES TIMEOUT 60)
