#!/usr/bin/env bash
# Documentation gate, run by the CI `docs` job (and locally).
#
#  1. Every relative markdown link in the repo's *.md files must
#     point at a file that exists.
#  2. Every `Struct::field` knob named in docs/OPERATIONS.md, and
#     every agentsim_* metric family named there or in README.md,
#     must still exist under src/.
#  3. If doxygen is installed, the API reference must build with an
#     empty warning log (docs/Doxyfile routes warnings to a file;
#     WARN_IF_DOC_ERROR covers malformed doc blocks). Skipped with a
#     notice when doxygen is absent, so the script stays runnable in
#     minimal containers.
#
# Usage: scripts/check_docs.sh   (from the repository root)
set -u

cd "$(dirname "$0")/.."
status=0

# --- 1. Dead relative markdown links ------------------------------
echo "== checking relative markdown links =="
# Tracked markdown only: build trees may hold generated copies.
mapfile -t md_files < <(git ls-files '*.md')
for md in "${md_files[@]}"; do
    dir=$(dirname "$md")
    # Inline links: capture the (...) target of [text](target).
    while IFS= read -r target; do
        # External, intra-page, and mail links are out of scope.
        case "$target" in
            http://*|https://*|\#*|mailto:*) continue ;;
        esac
        path="${target%%#*}"           # strip any #anchor
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            echo "DEAD LINK: $md -> $target"
            status=1
        fi
    done < <(grep -oE '\]\(([^)]+)\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done
if [ "$status" -eq 0 ]; then
    echo "ok: ${#md_files[@]} markdown files, no dead relative links"
fi

# --- 2. Stale knob names in the operations guide ------------------
# OPERATIONS.md documents knobs as `Struct::field`; every such token
# must still exist in src/ (struct renamed or field dropped => the
# runbook is lying). Method names ride along for free — they are
# code identifiers too.
echo "== checking OPERATIONS.md knob names against src/ =="
stale=0
checked=0
while IFS= read -r token; do
    struct="${token%%::*}"
    field="${token##*::}"
    checked=$((checked + 1))
    # The struct (or class) must be declared, and the field/member
    # must appear, somewhere under src/.
    if ! grep -rqE "(struct|class) +$struct\b" src/; then
        echo "STALE KNOB: $token — no struct/class $struct in src/"
        stale=1
        continue
    fi
    if ! grep -rq "$field" src/; then
        echo "STALE KNOB: $token — identifier $field not found in src/"
        stale=1
    fi
done < <(grep -oE '`[A-Z][A-Za-z]+::[A-Za-z]+' docs/OPERATIONS.md \
             | sed 's/^`//' | sort -u)
if [ "$stale" -ne 0 ]; then
    status=1
else
    echo "ok: $checked documented knob names all exist in src/"
fi

# --- 3. Stale metric families in the runbook and README -----------
# Every agentsim_ family that docs/OPERATIONS.md or README.md names
# must occur as a string literal under src/ (family renamed => the
# runbook is lying). A token ending in `_` or followed by `*` names a
# prefix and only has to start a string.
echo "== checking documented metric families against src/ =="
stale=0
checked=0
while IFS= read -r token; do
    checked=$((checked + 1))
    case "$token" in
        *\*) pattern="\"${token%\*}" ;;
        *_) pattern="\"$token" ;;
        *) pattern="\"$token\"" ;;
    esac
    if ! grep -rqF -- "$pattern" src/; then
        echo "STALE FAMILY: $token — no matching string in src/"
        stale=1
    fi
done < <(grep -ohE 'agentsim_[a-z0-9_]+\*?' docs/OPERATIONS.md README.md \
             | sort -u)
if [ "$stale" -ne 0 ]; then
    status=1
else
    echo "ok: $checked documented metric families all exist in src/"
fi

# --- 4. Doxygen warnings ------------------------------------------
if command -v doxygen > /dev/null 2>&1; then
    echo "== building API reference (doxygen) =="
    mkdir -p build/docs
    if ! doxygen docs/Doxyfile > /dev/null; then
        echo "doxygen failed"
        status=1
    fi
    warnlog=build/docs/doxygen-warnings.log
    if [ -s "$warnlog" ]; then
        echo "doxygen warnings (must be zero):"
        cat "$warnlog"
        status=1
    else
        echo "ok: doxygen build is warning-clean"
    fi
else
    echo "notice: doxygen not installed; skipping API-reference check"
fi

exit "$status"
