# Runs the bench named by -DBENCH=<path> once per malformed --threads /
# --seed / --scale value and requires each run to exit 2 with a message
# naming the flag. The values are refused while parsing the command line,
# before any worker thread exists, so no value here starts a thread.
#
#   cmake -DBENCH=build/bench_fig5_example -P tests/bench_cli_rejects.cmake
if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench binary>")
endif()

set(bad_values
    --threads=-1 --threads=abc --threads=3abc --threads= --threads=257
    --threads=100000 --threads=99999999999999999999999
    --seed=x --seed=-1 --seed=7x --seed=18446744073709551616
    --scale=huge --scale=)
foreach(arg IN LISTS bad_values)
  string(REGEX MATCH "^--[a-z]+" flag "${arg}")
  # The bad value comes last: a repeated flag keeps its last value.
  execute_process(COMMAND "${BENCH}" --scale=smoke "${arg}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err TIMEOUT 60)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${arg}: want exit 2, got '${code}'\n${out}${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${arg}: message does not name ${flag}: ${err}")
  endif()
endforeach()
