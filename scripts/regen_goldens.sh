#!/usr/bin/env bash
# Rewrites every CLI golden that tests/golden/cli/manifest.txt names,
# from the rrbtool of one build:
#
#   ./scripts/regen_goldens.sh ./build
#
# Each manifest line runs once, in order: its stdout (with the scratch
# directory spelled {out} and the source tree {src}) overwrites the
# golden file, and the files it wrote into
# {out} replace the golden's directory. A command whose exit code
# differs from the manifest's is reported and fails the script; the
# manifest itself is never rewritten. A rewritten golden changes what
# the tests accept, so regenerate only from a build whose numbers are
# known-good, and review the diff.
set -eu
cd "$(dirname "$0")/.."

build="${1:?usage: $0 BUILD_DIR}"
rrbtool="$build/rrbtool"
if [ ! -x "$rrbtool" ]; then
    echo "error: $rrbtool is not executable (build rrbtool first)" >&2
    exit 1
fi

src=$(pwd)
dir=tests/golden/cli
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
out="$scratch/out"

fail=0
while read -r golden code args; do
    case "$golden" in '' | '#'*) continue ;; esac
    rm -rf "$out"
    mkdir "$out"
    args=${args//\{src\}/$src}
    args=${args//\{out\}/$out}
    got=0
    # ARGS split on spaces, as test_cli splits them.
    # shellcheck disable=SC2086
    "$rrbtool" $args < /dev/null > "$scratch/stdout" || got=$?
    sed "s|$out|{out}|g; s|$src|{src}|g" "$scratch/stdout" > "$dir/$golden"
    stem="$dir/${golden%.txt}"
    rm -rf "$stem"
    if [ -n "$(ls -A "$out")" ]; then
        mkdir "$stem"
        cp "$out"/* "$stem"/
    fi
    if [ "$got" != "$code" ]; then
        echo "$golden: exit $got, the manifest says $code" >&2
        fail=1
    fi
    echo "wrote $dir/$golden"
done < "$dir/manifest.txt"
exit "$fail"
