# A fault plan whose crash names an AS outside the topology is a bad
# --fault-plan value: the bench exits 2 naming that AS instead of running
# with the AS counted as failed.
#
#   cmake -DBENCH=<binary> -DPLAN=<tests/bench/unknown_as.plan> \
#         -P unknown_as_plan.cmake
execute_process(COMMAND "${BENCH}" --scale=0.01 --threads=1
                        "--fault-plan=${PLAN}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BENCH}: exit ${rc}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "--fault-plan.*crash names unknown AS 1000000")
  message(FATAL_ERROR "${BENCH}: error does not name the AS:\n${err}")
endif()
