#!/usr/bin/env bash
# Regenerate the paper-artifact goldens: for every line of
# tests/golden/artifacts.txt, run BUILD_DIR/bench/<binary> with that
# line's arguments and write its stdout to tests/golden/<binary>.txt.
#
# A re-bless records an intended change to results. The change that
# re-blesses lists the changed lines and the reason in CHANGES.md; a
# re-bless is never a way to turn a red Golden.* test green.
#
# usage: scripts/bless_goldens.sh BUILD_DIR
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:?usage: scripts/bless_goldens.sh BUILD_DIR}"
GOLDEN=tests/golden

grep -E '^[a-z]' "$GOLDEN/artifacts.txt" | while read -r bin args; do
    # $args is word-split on purpose: it holds the flag list.
    # shellcheck disable=SC2086
    "$BUILD_DIR/bench/$bin" $args > "$GOLDEN/$bin.txt.tmp"
    mv "$GOLDEN/$bin.txt.tmp" "$GOLDEN/$bin.txt"
    echo "blessed $GOLDEN/$bin.txt"
done
