#!/usr/bin/env bash
# Numeric flags outside ServeOptions go through the same strict parser:
# a value std::stod accepts but that is not a finite number ("nan",
# "inf") is a usage error. The CLI must print "invalid number for --flag"
# and exit 2 before it touches the model (the --model path here does not
# exist, so reaching the load would exit 1 instead).
#
# Usage: cli_bad_numbers.sh <deepcsi_cli>
set -uo pipefail

CLI=$1
FAILED=0

expect_usage_error() {
  local flag=$1
  shift
  local out code
  out=$("$CLI" "$@" 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: deepcsi_cli $* exited $code, expected 2: $out"
    FAILED=1
  elif ! grep -q -- "invalid number for --$flag" <<<"$out"; then
    echo "FAIL: deepcsi_cli $* printed no 'invalid number for --$flag': $out"
    FAILED=1
  else
    echo "ok: deepcsi_cli $* -> exit 2"
  fi
}

expect_usage_error mobile fleet --model missing.bin --mobile nan
expect_usage_error snr fleet --model missing.bin --snr inf
expect_usage_error confused fleet --model missing.bin --confused -inf
exit $FAILED
