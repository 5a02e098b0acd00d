#!/bin/sh
# Fail on library exports nothing calls. For every top-level `val NAME`
# of a module M (lib/**/m.mli), look in the OCaml sources of lib/,
# bin/, test/, kitbench/ and examples/, outside M's own .ml and .mli,
# for a caller:
#
#   - `M.NAME`, M possibly qualified (`Kit_core.M.NAME`); or
#   - NAME as a whole word in a file that opens M (`open M`,
#     `let open M in`, `M.(`, `include M`).
#
# A bare NAME anywhere else is no caller: a word such as `compare` in a
# comment, or another module's function of the same name, keeps nothing
# alive. Values of nested signatures are not checked, since a functor
# application (`Map.Make (Pair)`) uses them without naming them. An
# export with no caller must be hidden, or listed (as M.NAME) in
# tools/unused_exports.allow when it is deliberate API. Run from the
# repository root, or name the tree to check:
#
#   sh tools/unused_exports.sh [ROOT]
set -e
cd "${1:-.}"
allow=tools/unused_exports.allow
sources=$(find lib bin test kitbench examples -name '*.ml' -o -name '*.mli' \
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
    if test -f "$allow" && grep -q -x -F "$module.$name" "$allow"; then continue; fi
    if grep -q -w -F -- "$module.$name" $others; then continue; fi
    if test -n "$openers" && grep -q -w -F -- "$name" $openers; then continue; fi
    echo "$mli: $module.$name has no caller outside its module"
    status=1
  done
done
exit $status
