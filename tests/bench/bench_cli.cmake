# Command-line check of one bench binary, registered per bench by
# dmap_add_bench (bench/benchmarks.cmake):
#   * --help exits 0 and lists --threads;
#   * an unknown flag, a repeated flag and UNREAD (a flag this bench never
#     reads) each exit 2 before any compute.
#
#   cmake -DBENCH=<binary> -DUNREAD=<--flag=value> -P bench_cli.cmake
function(expect_exit code)
  execute_process(COMMAND "${BENCH}" ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL code)
    message(FATAL_ERROR
            "${BENCH} ${ARGN}: exit ${rc}, expected ${code}\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

expect_exit(0 --help)
if(NOT out MATCHES "--threads=")
  message(FATAL_ERROR "${BENCH} --help does not list --threads:\n${out}")
endif()
# --scale keeps a run short should a bad flag ever be accepted.
expect_exit(2 --scale=0.01 --no-such-flag=1)
expect_exit(2 --scale=0.01 --threads=1 --threads=1)
expect_exit(2 --scale=0.01 ${UNREAD})
