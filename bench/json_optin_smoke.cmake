# Smoke test: neither bench_all nor bench_micro writes a report unless asked
# (--json / --benchmark_out). Runs one small figure and one cheap
# microbenchmark from a fresh working directory without those flags and
# fails if BENCH_sweep.json or BENCH_micro.json (the committed baselines'
# names), or any other .json file, appears there.
#
# Invoked by ctest (test bench_json_optin_smoke) as:
#   cmake -D BENCH_ALL=<path/to/bench_all> -D BENCH_MICRO=<path/to/bench_micro>
#         -D WORK_DIR=<scratch dir> -P bench/json_optin_smoke.cmake

if(NOT DEFINED BENCH_ALL OR NOT DEFINED BENCH_MICRO OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "json_optin_smoke: pass -D BENCH_ALL=..., -D BENCH_MICRO=... and -D WORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${BENCH_ALL}" --only table1_pricing --cache-dir off
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "json_optin_smoke: bench_all exited ${rc}\nstderr:\n${err}")
endif()

file(GLOB written "${WORK_DIR}/*.json")
if(written)
  message(FATAL_ERROR "json_optin_smoke: bench_all without --json wrote ${written}")
endif()

execute_process(
  COMMAND "${BENCH_MICRO}" --benchmark_filter=BM_ForkJoin/0
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "json_optin_smoke: bench_micro exited ${rc}\nstderr:\n${err}")
endif()

file(GLOB written "${WORK_DIR}/*.json")
if(written)
  message(FATAL_ERROR "json_optin_smoke: bench_micro without --benchmark_out wrote ${written}")
endif()

message(STATUS "json_optin_smoke: no report written without --json or --benchmark_out")
