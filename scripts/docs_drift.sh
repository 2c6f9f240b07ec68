#!/usr/bin/env bash
# Drift check between the prose (docs/ARCHITECTURE.md, README.md) and
# the workspace.
#
# Fails if:
#   1. a workspace crate (crates/*/) is not mentioned in the book,
#   2. the book or README.md names a `moma-<x>` crate that does not exist,
#   3. a serve-path module the book's data-flow diagram walks through
#      has been renamed or removed,
#   4. README.md or docs/*.md quotes a `moma_<crate>::…::<Item>` path —
#      or Figure 3's component table (crates/eval/src/figures/
#      architecture.rs) names one — whose last segment
#      crates/<crate>/src no longer declares as a public struct / enum /
#      trait / fn / type / const / mod,
#   5. a command quoted in README.md, docs/*.md, the CI workflow,
#      scripts/*.sh or a verify skill names a `-p moma-<crate>` that
#      does not exist, or a `--bin <name>` that the `-p` crate on the
#      same line (any crate, without one) neither keeps as
#      src/bin/<name>.rs nor declares as `[[bin]] name`.
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

# 2. Every crate the book or the README names must exist.
while read -r hit; do
    file="${hit%%:*}"
    crate="${hit#*:}"
    short="${crate#moma-}"
    if [[ ! -d "crates/$short" ]]; then
        echo "docs_drift: $file names \`$crate\` but crates/$short does not exist" >&2
        fail=1
    fi
done < <(grep -o '\bmoma-[a-z]*\b' "$ARCH" README.md | sort -u)

# 3. The serve-path modules the book's diagram walks through.
for m in server shard view engine state commands request wal checkpoint protocol frame json client; do
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
done < <({
    grep -oE '`moma_[a-z]+(::[A-Za-z0-9_]+)+`' README.md docs/*.md
    grep -oHE 'moma_[a-z]+(::[A-Za-z0-9_]+)+' crates/eval/src/figures/architecture.rs
} | tr -d '`' | sort -u)

# 5. Quoted cargo commands must name packages and binaries that exist.
has_bin() { # has_bin <crate dir> <bin name>
    [[ -f "$1/src/bin/$2.rs" ]] ||
        grep -A1 '^\[\[bin\]\]' "$1/Cargo.toml" 2>/dev/null | grep -q "^name = \"$2\""
}
while IFS=: read -r file _ line; do
    pkgs=$(grep -oE -- '-p +moma-[a-z]+' <<<"$line" | sed -E 's/-p +moma-//')
    for pkg in $pkgs; do
        if [[ ! -d "crates/$pkg" ]]; then
            echo "docs_drift: $file quotes \`-p moma-$pkg\` but crates/$pkg does not exist" >&2
            fail=1
        fi
    done
    pkg=${pkgs%%$'\n'*}
    for bin in $(grep -oE -- '--bin +[A-Za-z0-9_-]+' <<<"$line" | sed -E 's/--bin +//'); do
        found=0
        for dir in crates/${pkg:-*}; do
            has_bin "$dir" "$bin" && found=1
        done
        if [[ "$found" -eq 0 ]]; then
            echo "docs_drift: $file quotes \`--bin $bin\` but no such binary exists in ${pkg:+crates/}${pkg:-any crate}" >&2
            fail=1
        fi
    done
done < <(grep -nE -- '(--bin|-p) +[A-Za-z0-9_-]+' README.md docs/*.md .github/workflows/ci.yml \
    scripts/*.sh .claude/skills/*/SKILL.md)

if [[ "$fail" -ne 0 ]]; then
    echo "docs_drift: the docs are out of date — update them alongside the code" >&2
    exit 1
fi
echo "docs_drift: $ARCH and README.md match the workspace"
