#!/usr/bin/env bash
# Golden check for one paper artifact: runs the bench binary with the
# given arguments and compares its stdout byte for byte with the
# committed golden file. On a mismatch it prints a unified diff
# (golden first) and fails; a non-zero exit of the binary fails too.
#
# A golden changes only when results are meant to change: regenerate
# with scripts/bless_goldens.sh and list the changed lines and the
# reason in CHANGES.md.
#
# usage: tests/golden/check_golden.sh BINARY GOLDEN [ARGS...]
set -uo pipefail

bin="$1"
golden="$2"
shift 2

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

"$bin" "$@" > "$out"
status=$?

if ! diff -u --label "$golden" --label "$(basename "$bin") $*" \
        "$golden" "$out"; then
    echo "$(basename "$bin") output differs from $golden" >&2
    exit 1
fi
if [ "$status" -ne 0 ]; then
    echo "$(basename "$bin") exited with status $status" >&2
    exit 1
fi
