#!/usr/bin/env bash
# Print the net change in non-test Go lines under internal/ and cmd/
# between a base commit and the working tree (new files included), one
# line per package directory and the total last:
#
#   scripts/netlines.sh b73cfe5
#
# The count runs on a scratch copy of the index, so the real index is
# left as it was.
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:?usage: scripts/netlines.sh <base>}

index=$(mktemp)
trap 'rm -f "$index"' EXIT
cp "$(git rev-parse --git-path index)" "$index"
export GIT_INDEX_FILE=$index
git add -A -- internal cmd
git diff --cached --no-renames --numstat "$base" -- internal cmd |
  awk '$3 ~ /\.go$/ && $3 !~ /_test\.go$/ {
         d = $3; sub(/\/[^\/]*$/, "", d)
         net[d] += $1 - $2; n += $1 - $2
       }
       END {
         for (d in net) printf "%-24s %+d\n", d, net[d] | "sort"
         close("sort")
         printf "%-24s %+d\n", "total", n
       }'
