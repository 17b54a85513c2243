#!/usr/bin/env bash
# Mutation checks: each *.patch in this directory breaks one rarely taken
# branch or one predicate on purpose, and the tier-1 tests must notice.
#
#   bash ci/mutants/run.sh [WORKDIR]
#
# The script copies the working tree (tracked and untracked files, minus
# ignored ones) into WORKDIR (default: a fresh temporary directory), then
# for each patch: applies it, runs the root package's tests (`cargo test`,
# the test half of tier-1), records the failing tests and reverts the
# patch. Applying and reverting both touch the patched file, so
# the copy's one build directory rebuilds only what each mutant changed.
#
# Exit status 0 when every mutant fails at least one test; 1 when a mutant
# survives, does not apply or does not compile.
set -uo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
work="${1:-$(mktemp -d)}"
copy="$work/tree"
mkdir -p "$copy"
export CARGO_TARGET_DIR="$work/target"

git -C "$root" ls-files -z --cached --others --exclude-standard |
    (cd "$root" && tar --null -T - -cf -) | tar -xf - -C "$copy"

status=0
for patch in "$here"/*.patch; do
    name="$(basename "$patch" .patch)"
    log="$work/$name.log"
    if ! patch -d "$copy" -p1 -s --no-backup-if-mismatch <"$patch"; then
        echo "BROKEN   $name: the patch does not apply"
        status=1
        continue
    fi
    if ! (cd "$copy" && cargo test -q --no-run) >"$log" 2>&1; then
        echo "BROKEN   $name: does not compile (see $log)"
        status=1
    elif (cd "$copy" && cargo test --no-fail-fast) >>"$log" 2>&1; then
        echo "SURVIVED $name: every tier-1 test passed"
        status=1
    else
        caught="$(awk '/^ *Running /{bin=$2} /^---- .* stdout ----$/{print bin "::" $2}' "$log" |
            sort -u | paste -sd ' ' -)"
        echo "KILLED   $name by: ${caught:-(see $log)}"
    fi
    patch -d "$copy" -p1 -s -R --no-backup-if-mismatch <"$patch"
done
exit $status
