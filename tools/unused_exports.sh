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
# Comments are stripped first (nested ones included; string, quoted
# string and character literals are kept, and a comment opener inside
# one opens nothing), so a comment is never a caller: neither a bare
# word such as `compare` nor a qualified `M.NAME`. A bare NAME outside
# a file that opens M is no caller either, since another module's
# function may share it. Nor is test/: an export only tests call is
# test code, and belongs in test/ or behind an export production calls.
# Values of nested signatures are not checked, since a functor
# application (`Map.Make (Pair)`) uses them without naming them. An
# export with no caller must be hidden, moved or deleted, or listed as
# M.NAME in tools/unused_exports.allow when no production path can
# drive it. A name counts there only in a group that opens with a `#`
# line giving the reason; a blank line ends the group. Run from the
# repository root, or name the tree to check:
#
#   sh tools/unused_exports.sh [ROOT]
set -e
cd "${1:-.}"
allowed=$(awk '/^#/ { reason = 1; next } /^[[:space:]]*$/ { reason = 0; next }
  reason' tools/unused_exports.allow 2>/dev/null || true)
sources=$(find lib bin kitbench examples -name '*.ml' -o -name '*.mli' \
  2>/dev/null | sort)

# The sources with their comments blanked out, line for line, under a
# temporary root.
strip=$(cat <<'EOF'
FNR == 1 {
  if (dest != "") close(dest)
  depth = 0; instr = 0; quoted = ""; dest = root "/" FILENAME
}
{
  line = $0; out = ""
  while (line != "") {
    if (instr) {                       # in "...": up to the closing quote
      if (!match(line, /[\\"]/)) { seg = line; line = "" }
      else if (substr(line, RSTART, 1) == "\\") {
        seg = substr(line, 1, RSTART + 1); line = substr(line, RSTART + 2)
      } else {
        seg = substr(line, 1, RSTART); line = substr(line, RSTART + 1)
        instr = 0
      }
      if (!depth) out = out seg
      continue
    }
    if (quoted != "") {                # in {id|...|id}
      i = index(line, quoted)
      if (i == 0) { seg = line; line = "" }
      else {
        seg = substr(line, 1, i + length(quoted) - 1)
        line = substr(line, i + length(quoted)); quoted = ""
      }
      if (!depth) out = out seg
      continue
    }
    if (!match(line, /\(\*|\*\)|["'{]/)) {
      if (!depth) out = out line
      break
    }
    if (!depth) out = out substr(line, 1, RSTART - 1)
    tok = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
    if (tok == "(*") { if (!depth) out = out " "; depth++ }
    else if (tok == "*)") { if (depth) depth--; else out = out tok }
    else if (tok == "\"") { instr = 1; if (!depth) out = out tok }
    else if (tok == "'") {
      # a character literal, or the quote of a type variable or a name
      if (match(line, /^(\\([\\"'ntbr ]|[0-9][0-9][0-9]|x[0-9a-fA-F][0-9a-fA-F]|o[0-7][0-7][0-7])|[^\\'])'/)) {
        tok = tok substr(line, 1, RLENGTH); line = substr(line, RLENGTH + 1)
      }
      if (!depth) out = out tok
    } else {                           # "{": a quoted string's opener?
      if (match(line, /^[a-z_]*\|/)) {
        quoted = "|" substr(line, 1, RLENGTH - 1) "}"
        tok = tok substr(line, 1, RLENGTH); line = substr(line, RLENGTH + 1)
      }
      if (!depth) out = out tok
    }
  }
  print out > dest
}
EOF
)
stripped=$(mktemp -d)
trap 'rm -rf "$stripped"' EXIT
for dir in $(printf '%s\n' $sources | sed 's|/[^/]*$||' | sort -u); do
  mkdir -p "$stripped/$dir"
done
test -z "$sources" || awk -v root="$stripped" "$strip" $sources
cd "$stripped"

id="[A-Za-z0-9_']"
status=0
for mli in $(printf '%s\n' $sources | grep '^lib/.*\.mli$'); do
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
