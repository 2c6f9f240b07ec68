#!/usr/bin/env bash
# Drift check between the prose (docs/ARCHITECTURE.md, README.md) and
# the workspace.
#
# Fails if:
#   1. a workspace crate (crates/*/) is not mentioned in the book,
#   2. the book names a `moma-<x>` crate that does not exist,
#   3. a serve-path module the book's data-flow diagram walks through
#      has been renamed or removed,
#   4. README.md or docs/*.md quotes a `moma_<crate>::…::<Item>` path
#      whose last segment crates/<crate>/src no longer declares as a
#      public struct / enum / trait / fn / type / const / mod.
#
# Run from the repo root: scripts/docs_drift.sh
set -u

ARCH="docs/ARCHITECTURE.md"
fail=0

if [[ ! -f "$ARCH" ]]; then
    echo "docs_drift: $ARCH is missing" >&2
    exit 1
fi

# 1. Every workspace crate must appear in the book.
for dir in crates/*/; do
    crate="moma-$(basename "$dir")"
    if ! grep -q "$crate" "$ARCH"; then
        echo "docs_drift: crate \`$crate\` (from $dir) is not mentioned in $ARCH" >&2
        fail=1
    fi
done

# 2. Every crate the book names must exist.
while read -r crate; do
    [[ "$crate" == "moma" ]] && continue
    short="${crate#moma-}"
    if [[ ! -d "crates/$short" ]]; then
        echo "docs_drift: $ARCH names \`$crate\` but crates/$short does not exist" >&2
        fail=1
    fi
done < <(grep -o '\bmoma-[a-z]*\b' "$ARCH" | sort -u)

# 3. The serve-path modules the book's diagram walks through.
for m in server shard engine commands wal checkpoint protocol frame json client; do
    if [[ ! -f "crates/server/src/$m.rs" ]]; then
        echo "docs_drift: $ARCH documents serve module \`$m\` but crates/server/src/$m.rs does not exist" >&2
        fail=1
    fi
done

# 4. Quoted item paths must resolve to a public declaration.
while read -r hit; do
    file="${hit%%:*}"
    path="${hit#*:}"
    crate="${path#moma_}"
    crate="${crate%%::*}"
    item="${path##*::}"
    if ! grep -rqsE "pub (struct|enum|trait|fn|type|const|mod) $item\b" "crates/$crate/src"; then
        echo "docs_drift: $file names \`$path\` but crates/$crate/src declares no public \`$item\`" >&2
        fail=1
    fi
done < <(grep -oE '`moma_[a-z]+(::[A-Za-z0-9_]+)+`' README.md docs/*.md | tr -d '`' | sort -u)

if [[ "$fail" -ne 0 ]]; then
    echo "docs_drift: the docs are out of date — update them alongside the code" >&2
    exit 1
fi
echo "docs_drift: $ARCH and README.md match the workspace"
