# Command-line check of examples/run_experiment:
#   * a small analytical config exits 0;
#   * each malformed key exits non-zero naming the key, before any compute
#     (the configs select the instant analytical experiment, so a value
#     that slipped through would exit 0);
#   * an unknown key or experiment exits 2 naming it;
#   * a topology_file saved for one `ases` is rejected by name when read
#     back under another, instead of running on a mismatched graph;
#   * the --print-defaults listing, switched to the analytical experiment,
#     runs clean.
#
#   cmake -DRUNNER=<binary> -DWORK_DIR=<scratch dir> -P run_experiment_cli.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_config name text)
  file(WRITE "${WORK_DIR}/${name}.conf" "${text}")
  execute_process(COMMAND "${RUNNER}" "${WORK_DIR}/${name}.conf"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(rc "${rc}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
  set(log "${name}.conf: exit ${rc}\n${text}\n${out}${err}" PARENT_SCOPE)
endfunction()

run_config(analytical "experiment = analytical\nks = 1, 5\n")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${log}")
endif()

foreach(bad
    "ases = 4294967297" "ases = 1" "seed = -1" "geographic = maybe"
    "guids = -1" "guids = 18446744073709551615" "lookups = -5"
    "workload_seed = 1.5" "replications = -1" "replications = 0"
    "ks = 0" "ks = 1, 4294967297" "churn_fractions = 1.5"
    "churn_fractions = nan" "move_intervals = 0" "move_intervals = nan"
    "offered_rates = 100, -1" "offered_rates = inf" "horizon_s = nan"
    "horizon_s = -1" "threads = 4097" "shards = -1" "trace_sample = 0"
    "serving = service_rte=100")
  string(REGEX MATCH "^[a-z_]+" key "${bad}")
  run_config(bad "experiment = analytical\n${bad}\n")
  if(rc EQUAL 0 OR NOT err MATCHES "'${key}'")
    message(FATAL_ERROR "${key} not rejected by name:\n${log}")
  endif()
endforeach()
run_config(bad "experiment = nonsense\n")
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown experiment 'nonsense'")
  message(FATAL_ERROR "unknown experiment not rejected:\n${log}")
endif()

run_config(typo "experiment = analytical\nasses = 10\n")
if(NOT rc EQUAL 2 OR NOT err MATCHES "'asses'")
  message(FATAL_ERROR "unknown key not rejected:\n${log}")
endif()

set(topology "${WORK_DIR}/small.topology")
file(REMOVE "${topology}")
set(cached "experiment = load_balance\nguids = 100\nthreads = 1\n")
string(APPEND cached "topology_file = ${topology}\n")
run_config(save_topology "${cached}ases = 200\n")
if(NOT rc EQUAL 0 OR NOT EXISTS "${topology}")
  message(FATAL_ERROR "topology_file not saved:\n${log}")
endif()
run_config(mismatched_topology "${cached}ases = 2000\n")
if(rc EQUAL 0 OR NOT err MATCHES "'topology_file'.*200 ASs")
  message(FATAL_ERROR "mismatched topology_file not rejected:\n${log}")
endif()

execute_process(COMMAND "${RUNNER}" --print-defaults RESULT_VARIABLE rc
                OUTPUT_VARIABLE defaults ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err STREQUAL "")
  message(FATAL_ERROR "--print-defaults: exit ${rc}\n${defaults}${err}")
endif()
string(REPLACE "experiment = response_time" "experiment = analytical"
       analytical "${defaults}")
if(analytical STREQUAL defaults)
  message(FATAL_ERROR "--print-defaults lists no experiment:\n${defaults}")
endif()
run_config(defaults "${analytical}")
if(NOT rc EQUAL 0 OR NOT err STREQUAL "")
  message(FATAL_ERROR "--print-defaults listing does not run clean:\n${log}")
endif()
