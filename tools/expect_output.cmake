# Runs the command given after `--` and passes only when both its exit
# status and its output are as expected. ctest's PASS_REGULAR_EXPRESSION
# alone ignores the exit status, so a run that prints the expected line
# and then fails would pass.
#
#   cmake -DEXPECT_EXIT=zero|nonzero -DEXPECT_REGEX=<regex>
#         -P expect_output.cmake -- <command> [args...]
#   cmake -DEXPECT_EXIT=zero|nonzero -DEXPECT_FILE=<path>
#         [-DOUTPUT_FILE=<path>] -P expect_output.cmake -- <command> [args...]
#
# EXPECT_REGEX is a CMake regex matched against stdout and stderr
# together. EXPECT_FILE names a golden file that stdout alone must equal
# byte for byte (stderr is shown but not compared); with OUTPUT_FILE,
# the file the command wrote there is compared instead of stdout. A run
# killed by a signal counts as neither zero nor nonzero.

if(NOT EXPECT_EXIT MATCHES "^(zero|nonzero)$")
  message(FATAL_ERROR "EXPECT_EXIT must be zero or nonzero, got '${EXPECT_EXIT}'")
endif()
if((DEFINED EXPECT_REGEX AND DEFINED EXPECT_FILE) OR
   (NOT DEFINED EXPECT_REGEX AND NOT DEFINED EXPECT_FILE))
  message(FATAL_ERROR "set exactly one of EXPECT_REGEX and EXPECT_FILE")
endif()

set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "no command given after --")
endif()

if(DEFINED EXPECT_FILE)
  execute_process(COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE errors)
  message("${output}${errors}")
else()
  execute_process(COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  message("${output}")
endif()

if(NOT status MATCHES "^[0-9]+$")
  message(FATAL_ERROR "command did not exit normally: ${status}")
endif()
if(EXPECT_EXIT STREQUAL "zero" AND NOT status EQUAL 0)
  message(FATAL_ERROR "command exited with ${status}, expected 0")
endif()
if(EXPECT_EXIT STREQUAL "nonzero" AND status EQUAL 0)
  message(FATAL_ERROR "command exited with 0, expected a failure")
endif()
if(DEFINED EXPECT_FILE)
  set(what "stdout")
  if(DEFINED OUTPUT_FILE)
    set(what "${OUTPUT_FILE}")
    file(READ "${OUTPUT_FILE}" output)
  endif()
  file(READ "${EXPECT_FILE}" expected)
  if(NOT output STREQUAL expected)
    string(LENGTH "${output}" got_bytes)
    string(LENGTH "${expected}" want_bytes)
    message(FATAL_ERROR "${what} (${got_bytes} bytes) differs from "
      "${EXPECT_FILE} (${want_bytes} bytes)")
  endif()
elseif(NOT output MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}'")
endif()
