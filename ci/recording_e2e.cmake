# End-to-end flight-recorder check, run as a ctest entry (cmake -P):
#   1. drives campaign_cli with --record-anomalies and a starved step budget
#      (every job is anomalous, so capture fires for real),
#   2. checks every emitted .lumirec with run_doctor --verify: the file must
#      parse and its replay must reproduce it byte-for-byte,
#   3. exercises the doctor's own record path: a livelocking table is
#      recorded, must be diagnosed `cycle`, must certify and must verify.
#
# Expected -D definitions: CLI (campaign_cli binary), DOCTOR (run_doctor
# binary), FIXTURE (livelock .lumi table), OUT_DIR (scratch directory).
foreach(var CLI DOCTOR FIXTURE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "recording_e2e: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(recordings "${OUT_DIR}/recordings")

# --max-steps=5 starves every job; the campaign exits 1 (failures reported)
# by design, so only crash-grade exit codes fail the harness.
execute_process(
  COMMAND "${CLI}" --sections=4.2.1,4.3.1 --rows=4..6:2 --cols=4..6:2 --seeds=2
          --threads=2 --max-steps=5 --quiet "--record-anomalies=${recordings},4"
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(run_rc GREATER 1)
  message(FATAL_ERROR "recording_e2e: campaign_cli crashed (${run_rc}):\n${run_out}\n${run_err}")
endif()

file(GLOB recs "${recordings}/*.lumirec")
list(LENGTH recs rec_count)
if(rec_count EQUAL 0)
  message(FATAL_ERROR "recording_e2e: no .lumirec files captured in ${recordings}")
endif()
if(rec_count GREATER 4)
  message(FATAL_ERROR "recording_e2e: capture limit 4 violated (${rec_count} files)")
endif()

foreach(rec IN LISTS recs)
  execute_process(
    COMMAND "${DOCTOR}" --verify "${rec}"
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
  if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR "recording_e2e: ${rec} does not verify:\n${check_out}\n${check_err}")
  endif()
endforeach()

# Livelock leg: record the blinker table, expect diagnosis cycle + certified
# witness + identical replay (run_doctor's full-report mode exits 0 only when
# certification and verification both pass).
set(livelock "${OUT_DIR}/livelock.lumirec")
execute_process(
  COMMAND "${DOCTOR}" "--record=${livelock}" "--table=${FIXTURE}" --rows=2 --cols=3
          --sched=fsync --seed=1 --max-steps=25
  RESULT_VARIABLE rec_rc
  OUTPUT_VARIABLE rec_out
  ERROR_VARIABLE rec_err)
if(NOT rec_rc EQUAL 0)
  message(FATAL_ERROR "recording_e2e: doctor --record failed (${rec_rc}):\n${rec_out}\n${rec_err}")
endif()

execute_process(
  COMMAND "${DOCTOR}" "${livelock}"
  RESULT_VARIABLE doc_rc
  OUTPUT_VARIABLE doc_out
  ERROR_VARIABLE doc_err)
if(NOT doc_rc EQUAL 0)
  message(FATAL_ERROR "recording_e2e: doctor report failed (${doc_rc}):\n${doc_out}\n${doc_err}")
endif()
if(NOT doc_out MATCHES "diagnosis +cycle")
  message(FATAL_ERROR "recording_e2e: livelock not diagnosed as cycle:\n${doc_out}")
endif()
if(NOT doc_out MATCHES "cycle: CERTIFIED")
  message(FATAL_ERROR "recording_e2e: cycle witness not certified:\n${doc_out}")
endif()

message(STATUS "recording_e2e: ${rec_count} captured + 1 livelock recording verified")
