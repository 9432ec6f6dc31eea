# Runs each example in -DEXAMPLES_DIR=<dir> with a malformed numeric flag
# or a flag it does not read, and requires it to exit 2 with a message
# naming the flag: the examples read --n, --pool and --seed through
# parse_count and --ccr, --interval and --fraction through parse_real
# (support/env.h), so a sign, trailing junk, nan/inf, a value out of range
# or a non-number is refused before any work starts (--fraction=1e12
# would otherwise grow the pool by about 10^13 machines), and ArgParser
# refuses any flag not on the example's list.
#
#   cmake -DEXAMPLES_DIR=build -P tests/example_cli_rejects.cmake
if(NOT EXAMPLES_DIR)
  message(FATAL_ERROR "pass -DEXAMPLES_DIR=<directory of example binaries>")
endif()

set(cases
    "montage_pipeline --seed=x" "montage_pipeline --n=-1"
    "blast_campaign --n=-1" "blast_campaign --pool=3x"
    "blast_campaign --seed=x" "wien2k_campaign --pool=3x"
    "wien2k_campaign --n=4097" "dynamic_trace_replay --seed=x"
    "montage_pipeline --ccr=x" "montage_pipeline --ccr=1x"
    "blast_campaign --ccr=" "blast_campaign --interval=nan"
    "blast_campaign --fraction=1e12" "wien2k_campaign --interval=inf"
    "wien2k_campaign --interval=99" "wien2k_campaign --fraction=-0.5"
    "wien2k_campaign --ccr=11" "montage_pipeline --pool=4"
    "quickstart --bogus" "whatif_queries --seed=1")
foreach(case IN LISTS cases)
  separate_arguments(words UNIX_COMMAND "${case}")
  list(GET words 0 example)
  list(GET words 1 arg)
  string(REGEX MATCH "^--[a-z]+" flag "${arg}")
  execute_process(COMMAND "${EXAMPLES_DIR}/${example}" "${arg}"
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
