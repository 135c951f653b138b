# Writes a header defining UNN_GIT_SHA (the checkout's HEAD, or "unknown"
# outside a git checkout), run in cmake -P script mode by the unn_git_sha
# target on every build, so an experiment driver stamps the commit it was
# built from, not the one its build directory was configured at. The
# header is rewritten only when its text changes, so a build at the same
# commit recompiles nothing.
#
# Required -D variables: SRC (the source root), OUT (the header path).
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SRC}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
endif()
set(text "#define UNN_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUT} "${text}")
endif()
