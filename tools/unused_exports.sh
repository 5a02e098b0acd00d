#!/bin/sh
# Fail on library exports nothing calls. For every `val NAME` in
# lib/**/*.mli, look for NAME as a whole word in the OCaml sources of
# lib/, bin/, test/, kitbench/ and examples/, outside the module's own
# .ml and .mli. An export with no such reference must be hidden, or
# listed (as Module.name) in tools/unused_exports.allow when it is
# deliberate API. Run from the repository root:
#
#   sh tools/unused_exports.sh
set -e
allow=tools/unused_exports.allow
sources=$(find lib bin test kitbench examples -name '*.ml' -o -name '*.mli' | sort)
status=0
for mli in $(find lib -name '*.mli' | sort); do
  base=${mli%.mli}
  module=$(basename "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  others=$(printf '%s\n' $sources | grep -v -x -e "$base.ml" -e "$base.mli")
  for name in $(sed -n 's/^ *val \([a-z_][A-Za-z0-9_'"'"']*\).*/\1/p' "$mli" | sort -u); do
    if grep -q -x -F "$module.$name" "$allow"; then continue; fi
    if ! grep -q -w -F -- "$name" $others; then
      echo "$mli: $module.$name has no caller outside its module"
      status=1
    fi
  done
done
exit $status
