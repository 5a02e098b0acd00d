#!/bin/sh
# Fail on library exports production does not call. For every top-level
# `val NAME` of a module M (lib/**/m.mli), look in the OCaml sources of
# lib/, bin/, kitbench/ and examples/, outside M's own .ml and .mli,
# for a caller:
#
#   - `M.NAME`, M possibly qualified (`Kit_core.M.NAME`); or
#   - NAME as a whole word in a file that opens M (`open M`,
#     `let open M in`, `M.(`, `include M`).
#
# A bare NAME anywhere else is no caller: a word such as `compare` in a
# comment, or another module's function of the same name, keeps nothing
# alive. Nor is test/: an export only tests call is test code, and
# belongs in test/ or behind an export production calls. Values of
# nested signatures are not checked, since a functor application
# (`Map.Make (Pair)`) uses them without naming them. An export with no
# caller must be hidden, moved or deleted, or listed as M.NAME in
# tools/unused_exports.allow when no production path can drive it. A
# name counts there only in a group that opens with a `#` line giving
# the reason; a blank line ends the group. Run from the repository
# root, or name the tree to check:
#
#   sh tools/unused_exports.sh [ROOT]
set -e
cd "${1:-.}"
allowed=$(awk '/^#/ { reason = 1; next } /^[[:space:]]*$/ { reason = 0; next }
  reason' tools/unused_exports.allow 2>/dev/null || true)
sources=$(find lib bin kitbench examples -name '*.ml' -o -name '*.mli' \
  2>/dev/null | sort)
id="[A-Za-z0-9_']"
status=0
for mli in $(find lib -name '*.mli' | sort); do
  base=${mli%.mli}
  module=$(basename "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  others=$(printf '%s\n' $sources | grep -v -x -e "$base.ml" -e "$base.mli")
  openers=$(grep -l -E \
    "(open!?|include)[[:space:]]+([A-Z]$id*\.)*$module(\$|[^A-Za-z0-9_'.])|(^|[^A-Za-z0-9_'.])$module\.\(" \
    $others || true)
  for name in $(sed -n 's/^val \([a-z_][A-Za-z0-9_'"'"']*\).*/\1/p' "$mli" | sort -u); do
    if printf '%s\n' "$allowed" | grep -q -x -F "$module.$name"; then continue; fi
    if grep -q -w -F -- "$module.$name" $others; then continue; fi
    if test -n "$openers" && grep -q -w -F -- "$name" $openers; then continue; fi
    echo "$mli: $module.$name has no caller outside its module and test/"
    status=1
  done
done
exit $status
