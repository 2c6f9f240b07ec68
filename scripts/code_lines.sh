#!/usr/bin/env bash
# Non-test code lines per crate, and their total.
#
# A file counts the lines above its first top-level `#[cfg(test)]`
# (all of it when it has none), skipping blank lines and lines that
# start with `//` (comments and doc comments). Every `.rs` file under
# crates/<crate>/src counts towards `<crate>`, and so does every iFuice
# workflow script crates/<crate>/workflows/*.ifuice (same rule: no
# blank or `//` lines), so moving a workflow from Rust into a script
# does not read as a reduction. The root src/ is `facade`. Crates print
# largest first.
#
# Run from the repo root: scripts/code_lines.sh
set -eu

count() { # count <dir>...: the non-test code lines of every .rs / .ifuice file under them
    find "$@" \( -name '*.rs' -o -name '*.ifuice' \) -print0 | xargs -0 -r awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*($|\/\/)/ { n++ }
        END { print n + 0 }'
}

{
    for dir in crates/*/; do
        echo "$(count "$dir/src" $(find "$dir" -maxdepth 1 -name workflows)) $(basename "$dir")"
    done
    echo "$(count src) facade"
} | sort -k1,1nr -k2 | awk '{ printf "%-10s %6d\n", $2, $1; total += $1 }
    END { printf "%-10s %6d\n", "total", total }'
