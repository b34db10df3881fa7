# Writes OUT, a header defining BITDEC_GIT_COMMIT as `git describe` of
# SRC_DIR ("unknown" outside a git checkout; "-dirty" when tracked files
# have edits). Runs on every build, so a binary names the commit it was
# built from, not the one CMake was configured at; the header is only
# rewritten when the commit changes, so an unchanged commit rebuilds
# nothing.
execute_process(
  COMMAND git describe --always --dirty --abbrev=12
  WORKING_DIRECTORY ${SRC_DIR}
  OUTPUT_VARIABLE commit
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT commit)
  set(commit "unknown")
endif()
set(content "#define BITDEC_GIT_COMMIT \"${commit}\"\n")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT "${old}" STREQUAL "${content}")
  file(WRITE ${OUT} "${content}")
endif()
