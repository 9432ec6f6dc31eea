# Runs a bench once per malformed or unread argument and requires each run
# to exit 2 with a message naming it: a bad --threads / --seed / --scale
# value, an unknown flag, a positional argument, or a shared flag the bench
# does not read. --help must exit 0 and list only the flags the bench
# reads. -DBENCH=<path> is bench_fig5_example, which reads only
# --help, --scale and --seed; -DRUN_BENCH=<path> is a sweep bench that also
# reads --threads. Everything is refused while parsing the command line,
# before any worker thread exists, so no value here starts a thread.
#
#   cmake -DBENCH=build/bench_fig5_example \
#         -DRUN_BENCH=build/bench_table3_ccr -P tests/bench_cli_rejects.cmake
if(NOT BENCH OR NOT RUN_BENCH)
  message(FATAL_ERROR "pass -DBENCH=<bench binary> -DRUN_BENCH=<bench binary>")
endif()

set(cases
    "RUN_BENCH --threads=-1" "RUN_BENCH --threads=abc"
    "RUN_BENCH --threads=3abc" "RUN_BENCH --threads="
    "RUN_BENCH --threads=257" "RUN_BENCH --threads=100000"
    "RUN_BENCH --threads=99999999999999999999999"
    "BENCH --seed=x" "BENCH --seed=-1" "BENCH --seed=7x"
    "BENCH --seed=18446744073709551616" "BENCH --scale=huge" "BENCH --scale="
    "BENCH --bogus=1" "BENCH extra" "BENCH --json=x" "BENCH --smoke"
    "BENCH --threads=2" "RUN_BENCH --bogus" "RUN_BENCH extra")
foreach(case IN LISTS cases)
  separate_arguments(words UNIX_COMMAND "${case}")
  list(GET words 0 binary)
  list(GET words 1 arg)
  # A flag's message names the flag; a positional argument's names it.
  string(REGEX MATCH "^--[a-z]+" flag "${arg}")
  if(NOT flag)
    set(flag "${arg}")
  endif()
  # The bad argument comes last: a repeated flag keeps its last value.
  execute_process(COMMAND "${${binary}}" --scale=smoke "${arg}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err TIMEOUT 60)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${case}: want exit 2, got '${code}'\n${out}${err}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${case}: message does not name ${flag}: ${err}")
  endif()
endforeach()

# --help lists the flags the bench reads, and no flag it would refuse.
execute_process(COMMAND "${BENCH}" --help RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "--help: want exit 0, got '${code}'\n${out}${err}")
endif()
foreach(flag IN ITEMS --scale --seed --help)
  string(FIND "${out}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--help does not list ${flag}:\n${out}")
  endif()
endforeach()
foreach(flag IN ITEMS --threads --json --csv --smoke --scenario-source)
  string(FIND "${out}" "${flag}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "--help lists ${flag}, which the bench refuses:\n"
                        "${out}")
  endif()
endforeach()
