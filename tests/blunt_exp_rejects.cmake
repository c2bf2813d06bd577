# Runs `blunt_exp ARGS` in an empty scratch bench dir and passes only when
# the binary exits with a non-zero status and writes no report. A hang
# (killed at TIMEOUT) or a crash is a failure too. The run inherits this
# script's environment, so wrap it in `cmake -E env` to set a knob:
#
#   cmake -E env [NAME=VALUE...] cmake -DBLUNT_EXP=<binary> \
#         -DDIR=<scratch dir> "-DARGS=<args>" -P blunt_exp_rejects.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(ENV{BLUNT_BENCH_DIR} "${DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BLUNT_EXP}" ${args}
  WORKING_DIRECTORY "${DIR}"
  TIMEOUT 10
  RESULT_VARIABLE rc)
file(GLOB reports "${DIR}/BENCH_*.json")
file(REMOVE_RECURSE "${DIR}")
if(NOT rc MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "blunt_exp ${ARGS}: want a non-zero exit, got '${rc}'")
endif()
if(reports)
  message(FATAL_ERROR "blunt_exp ${ARGS}: wrote ${reports}")
endif()
