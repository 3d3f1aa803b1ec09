# A command-line probe that must be refused as a usage error, run as a ctest
# entry (cmake -P): the command has to exit 2 (not 0, not 1, not a crash)
# and print a line matching MATCH.
#
# Expected -D definitions: CMD (the command and its arguments, separated by
# '|'), MATCH (regular expression the combined output must contain).
foreach(var CMD MATCH)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage_error: missing -D${var}=...")
  endif()
endforeach()

string(REPLACE "|" ";" argv "${CMD}")
execute_process(COMMAND ${argv} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "usage_error: expected exit 2, got '${rc}':\n${out}\n${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "usage_error: output lacks '${MATCH}':\n${out}\n${err}")
endif()
