#!/usr/bin/env bash
# Prints the repo's non-test line count: every `.rs` file under crates/
# (or under the directories given as arguments) outside `tests/`
# directories, each counted up to its first `#[cfg(test)]` line.
#
#   scripts/nontest_lines.sh                    # all of crates/
#   scripts/nontest_lines.sh crates/cli/src     # one crate
set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -eq 0 ]] && set -- crates
find "$@" -name '*.rs' -not -path '*/tests/*' -print0 \
    | xargs -0 awk 'FNR == 1 { counting = 1 }
                    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
                    counting { n++ }
                    END { print n + 0 }' \
    | awk '{ total += $1 } END { print total + 0 }'
