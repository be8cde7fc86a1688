#!/usr/bin/env bash
# Rewrites every CLI golden that tests/golden/cli/manifest.txt names,
# and the stderr lines of tests/golden/cli/errors.txt, from the rrbtool
# of one build:
#
#   ./scripts/regen_goldens.sh ./build
#
# Each manifest line runs once, in order: its stdout (with the scratch
# directory spelled {out} and the source tree {src}) overwrites the
# golden file, and the files it wrote into
# {out} replace the golden's directory, each .json run report with its
# timing values read as 0. Then each errors.txt entry runs once and
# its second line becomes the first line the command printed to
# stderr. A command whose exit code differs from the one its file
# names, or an error entry that printed to stdout, is reported and
# fails the script; the manifest and the entries' command lines are
# never rewritten. A rewritten golden changes what the tests accept,
# so regenerate only from a build whose numbers are known-good, and
# review the diff.
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

# The timing values of a run report, zeroed as test_cli's mask_timing
# zeroes them.
timing='wall_ns|worker_busy_ns|shard_wall_ns|runs_per_sec|cycles_per_sec'
timing="$timing|worker_utilization|begin_ns|end_ns"

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
        for report in "$stem"/*.json; do
            [ -e "$report" ] || continue
            sed -E -i "s/\"($timing)\": [0-9.]+/\"\\1\": 0/g" "$report"
        done
    fi
    if [ "$got" != "$code" ]; then
        echo "$golden: exit $got, the manifest says $code" >&2
        fail=1
    fi
    echo "wrote $dir/$golden"
done < "$dir/manifest.txt"

errors="$dir/errors.txt"
rewritten="$scratch/errors.txt"
: > "$rewritten"
entry=
while IFS= read -r line; do
    if [ -n "$entry" ]; then
        # The line after an entry: the stderr line it printed.
        first=$(head -n 1 "$scratch/stderr" | sed "s|$src|{src}|g")
        printf '  %s\n' "$first" >> "$rewritten"
        entry=
        continue
    fi
    printf '%s\n' "$line" >> "$rewritten"
    case "$line" in '' | '#'*) continue ;; esac
    entry=$line
    read -r code args <<< "$line"
    args=${args//\{src\}/$src}
    got=0
    # shellcheck disable=SC2086
    "$rrbtool" $args < /dev/null > "$scratch/stdout" 2> "$scratch/stderr" ||
        got=$?
    if [ "$got" != "$code" ]; then
        echo "errors.txt: '$entry' exits $got, the entry says $code" >&2
        fail=1
    fi
    if [ -s "$scratch/stdout" ]; then
        echo "errors.txt: '$entry' printed to stdout" >&2
        fail=1
    fi
done < "$errors"
mv "$rewritten" "$errors"
echo "wrote $errors"
exit "$fail"
