#!/bin/sh
# Non-test line count of the workspace's program code: every `.rs` file
# under `crates/*/src`, `src/` and `vendor/*/src`, each counted up to
# its first `#[cfg(test)]` line. Prints one row per crate and the
# total. Run from anywhere: `scripts/size.sh [repo root]`.
set -eu
cd "${1:-$(dirname "$0")/..}"
for dir in crates/*/src src vendor/*/src; do
    [ -d "$dir" ] || continue
    find "$dir" -name '*.rs' | sort | xargs awk -v crate="${dir%/src}" '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { printf "%7d  %s\n", n, crate }'
done | awk '{ print; total += $1 } END { printf "%7d  total\n", total }'
