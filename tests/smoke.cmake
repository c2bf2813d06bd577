# End-to-end smoke checks that drive the built binaries in an empty scratch
# directory and inspect what they leave behind. CASE picks the check:
#
#   profile  BLUNT_EXP: a scaling_probe report (it profiles every trial)
#            carries the n4 and n256 snapshots, next to a flamegraph that
#            attributes time to enabled_scan.
#   example  EXAMPLE [OUTPUT]: the example exits 0 and, when OUTPUT is set,
#            leaves that file non-empty.
#
#   cmake -DCASE=<case> -DDIR=<scratch dir> [-D...=<binary>] -P smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

# Runs the command in DIR and fails the check unless it exits 0.
function(run)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${DIR}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGN}: want exit 0, got '${rc}'")
  endif()
endfunction()

# Sets `var` to the JSON value at the member path ARGN of the report `path`.
function(json_get var path)
  file(READ "${path}" text)
  string(JSON value ERROR_VARIABLE err GET "${text}" ${ARGN})
  if(err)
    message(FATAL_ERROR "${path}: ${err}")
  endif()
  set(${var} "${value}" PARENT_SCOPE)
endfunction()

function(expect_nonempty path)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "${path} was not written")
  endif()
  file(SIZE "${path}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "${path} is empty")
  endif()
endfunction()

if(CASE STREQUAL "profile")
  run("${BLUNT_EXP}" run scaling_probe --trials 14 --shard-size 2 --threads 2
      --bench-dir "${DIR}")
  set(report "${DIR}/BENCH_scaling_probe.json")
  json_get(n4 "${report}" profile n4)
  json_get(n256 "${report}" profile n256)
  set(flame "${DIR}/BENCH_scaling_probe.flame.txt")
  expect_nonempty("${flame}")
  file(STRINGS "${flame}" scans REGEX "enabled_scan")
  if(NOT scans)
    message(FATAL_ERROR "${flame} never mentions enabled_scan")
  endif()
elseif(CASE STREQUAL "example")
  run("${EXAMPLE}")
  if(OUTPUT)
    expect_nonempty("${DIR}/${OUTPUT}")
  endif()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

file(REMOVE_RECURSE "${DIR}")
