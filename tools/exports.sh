#!/usr/bin/env bash
# Audit the values that lib/*/*.mli exports.
#
# Sorts every exported `val` (nested signatures included) into one of
# four groups by where it is called:
#   used       outside its module, from lib/, bin/, bench/, examples/
#              or benchmark/
#   test-only  outside its module, but only from test/
#   internal   only inside its own module
#   dead       nowhere
# A call is a qualified use (`Mod.name`, or `Sub.name` for a value of a
# nested signature `Mod.Sub`), or a bare `name` in a file that opens the
# module (`open`, `let open`, `include`, `Mod.(`, `Mod.[`, `Mod.{`,
# `module X = Mod`, or `Mod.` at the end of a line);
# comments and strings are skipped.  A type that shares a value's name
# (`Engine.budget`) counts as a use, so check each name by hand.
#
# The exit status is a gate that cannot flag a used value: it is 1 when
# some exported value is mentioned nowhere outside its own module, where
# any whole-word occurrence of its name in another .ml/.mli of lib/,
# bin/, bench/, examples/, benchmark/ or test/ counts as a mention,
# comments and strings included; it is 0 otherwise.  The groups above
# are printed as information (the used group as a count only) and do
# not fail it.
#
# Usage: tools/exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The interfaces come first, so every exported name is known before the
# scan meets a use of it.
mapfile -t mlis < <(ls lib/*/*.mli)
mapfile -t rest < <(find lib bin bench examples benchmark test \
  -name _build -prune -o \( -name '*.ml' -print \) | sort)

awk '
function capital(s) { return toupper(substr(s, 1, 1)) substr(s, 2) }

# The line with comments, strings and character literals blanked out.
# Comment depth and string state carry over from line to line.
function strip(s,   out, i, n, c, c2, j) {
  out = ""; n = length(s); i = 1
  while (i <= n) {
    c = substr(s, i, 1); c2 = substr(s, i, 2)
    if (instr) {
      if (c == "\\") { i += 2; continue }
      if (c == "\"") instr = 0
      i++; continue
    }
    if (c2 == "(*") { depth++; i += 2; continue }
    if (depth > 0) {
      if (c2 == "*)") { depth--; i += 2; continue }
      if (c == "\"") instr = 1
      i++; continue
    }
    if (c == "\"") { instr = 1; out = out " "; i++; continue }
    if (c == "\047" && substr(s, i + 2, 1) == "\047") {
      out = out " "; i += 3; continue
    }
    if (c == "\047" && substr(s, i + 1, 1) == "\\") {
      j = i + 3
      while (j <= n && substr(s, j, 1) != "\047") j++
      out = out " "; i = j + 1; continue
    }
    out = out c; i++
  }
  return out
}

# A use of [name] through qualifier [q] (a module, a nested signature,
# or an alias for either); a nested signature belongs to its parent.
function use(q, name,   t) {
  if ((FILENAME, q) in alias) q = alias[FILENAME, q]
  if (!((q, name) in exported)) return
  t = (q in parent) ? parent[q] : q
  if (t == owner) { owncount[t, name]++; return }
  if (FILENAME ~ /^test\//) testuse[q, name] = 1
  else libuse[q, name] = 1
}

# Bare names of module [o] are in scope in the current file.
function opens_module(o) {
  if (!((FILENAME, o) in opened)) {
    opened[FILENAME, o] = 1; opens[FILENAME] = opens[FILENAME] " " o
  }
}

FNR == 1 {
  depth = 0; instr = 0; owner = ""; nsub = 0
  if (FILENAME ~ /^lib\/[^\/]+\/[^\/]+\.mli?$/) {
    owner = FILENAME; sub(/.*\//, "", owner); sub(/\.mli?$/, "", owner)
    owner = capital(owner)
  }
}

# Exported values, with the stack of nested signatures they sit in.
FILENAME ~ /\.mli$/ && /^[ \t]*module [A-Z][A-Za-z0-9_]* *: *sig/ {
  s = $0; sub(/^[ \t]*module /, "", s); sub(/[ \t:].*/, "", s)
  stack[++nsub] = s; parent[s] = owner
}
FILENAME ~ /\.mli$/ && /^[ \t]*end[ \t]*$/ && nsub > 0 { nsub-- }
FILENAME ~ /\.mli$/ && /^[ \t]*val [a-z_]/ {
  v = $0; sub(/^[ \t]*val /, "", v); sub(/[^A-Za-z0-9_\047].*/, "", v)
  q = nsub > 0 ? stack[nsub] : owner
  exported[q, v] = 1
  vals[++nvals] = q SUBSEP v
  full[q, v] = (nsub > 0 ? owner "." q : owner) "." v
}

{
  # Whole-word mentions, comments and strings included, for the gate.
  n = split($0, w, /[^A-Za-z0-9_]+/)
  for (i = 1; i <= n; i++)
    if (w[i] != "" && !(((w[i], owner, FILENAME) in seen))) {
      seen[w[i], owner, FILENAME] = 1
      mentions[w[i]] = mentions[w[i]] SUBSEP owner
    }

  line = strip($0)
  s = line
  while (match(s, /(open|include)[ \t]+[A-Z][A-Za-z0-9_.]*/)) {
    o = substr(s, RSTART, RLENGTH); sub(/.*[ \t.]/, "", o)
    opens_module(o)
    s = substr(s, RSTART + RLENGTH)
  }
  s = line
  while (match(s, /[A-Z][A-Za-z0-9_]*\.([([{]|[ \t]*$)/)) {
    o = substr(s, RSTART, RLENGTH); sub(/\..*/, "", o)
    opens_module(o)
    s = substr(s, RSTART + RLENGTH)
  }
  if (match(line, /module [A-Z][A-Za-z0-9_]* = [A-Z][A-Za-z0-9_.]*/)) {
    a = substr(line, RSTART, RLENGTH); sub(/^module /, "", a)
    o = a; sub(/ .*/, "", a); sub(/.*[ .]/, "", o)
    alias[FILENAME, a] = o
  }

  s = line
  while (match(s, /[A-Za-z_][A-Za-z0-9_\047]*(\.[A-Za-z_][A-Za-z0-9_\047]*)*/)) {
    before = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
    k = split(substr(s, RSTART, RLENGTH), c, ".")
    s = substr(s, RSTART + RLENGTH)
    for (i = 2; i <= k; i++)
      if (c[i - 1] ~ /^[A-Z]/ && c[i] ~ /^[a-z_]/) use(c[i - 1], c[i])
    if (before == "." || c[1] !~ /^[a-z_]/) continue
    if (owner != "" && FILENAME ~ /\.ml$/) owncount[owner, c[1]]++
    m = split(opens[FILENAME], ob, " ")
    for (i = 1; i <= m; i++) use(ob[i], c[1])
  }
}

END {
  for (i = 1; i <= nvals; i++) {
    split(vals[i], kv, SUBSEP); q = kv[1]; v = kv[2]
    t = (q in parent) ? parent[q] : q
    name = full[q, v]
    if ((q, v) in libuse) nused++
    else if ((q, v) in testuse) testonly[++ntest] = name
    else if (owncount[t, v] > 1) internal[++nint] = name
    else dead[++ndead] = name
    # The gate: a mention from a file that belongs to another module or
    # to no module at all.
    m = split(mentions[v], ow, SUBSEP); ok = 0
    for (j = 2; j <= m; j++) if (ow[j] != t) ok = 1
    if (!ok) unmentioned[++nun] = name
  }
  printf "exported values: %d\n", nvals
  printf "used (%d)\n", nused
  printf "test-only (%d)\n", ntest
  for (i = 1; i <= ntest; i++) print "  " testonly[i]
  printf "internal (%d)\n", nint
  for (i = 1; i <= nint; i++) print "  " internal[i]
  printf "dead (%d)\n", ndead
  for (i = 1; i <= ndead; i++) print "  " dead[i]
  if (nun > 0) {
    printf "FAIL: %d exported values are mentioned nowhere outside their own module\n", nun
    for (i = 1; i <= nun; i++) print "  " unmentioned[i]
    exit 1
  }
}
' "${mlis[@]}" "${rest[@]}"
