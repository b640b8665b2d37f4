#!/bin/sh
# Check the flags the default build compiles the engines with: no
# -opaque, so calls into other modules are direct and small ones are
# inlined, and the dev profile's warning spec, so warnings still fail
# the build (see dune-workspace).  Then check the machine code of the
# memory, guest-runtime and engine libraries for calls to caml_ba_get_*
# or caml_ba_set_*: ocamlopt emits that C call for a Bigarray access
# whose kind or layout is not known at the call site, which would add a
# call to every guest-RAM access and every virt or native translation
# without failing a test.  Last, check that the DBT's archive calls no
# Array.blit (camlStdlib__Array.blit or caml_array_blit): its modelled
# exception-entry copies use Sb_sim.Guest.copy_words, whose cost does not
# move with GC state.  Then check that the interpreter's archive makes no
# call to Sb_interp.Core's predecode_slot, the two-load lookup of a
# predecoded instruction that every interp, virt and native fetch makes:
# a call there would slow each fetch without failing a test.  Run from
# the repository root:
#   sh ci/check-build-flags.sh
set -u
spec='@1..3@5..28@30..39@43@46..47@49..57@61..62-40'
status=0
for target in \
  lib/sim/.sb_sim.objs/native/sb_sim__Perf.cmx \
  lib/sim/.sb_sim.objs/native/sb_sim__Guest.cmx \
  lib/interp/.sb_interp.objs/native/sb_interp__Core.cmx \
  lib/dbt/.sb_dbt.objs/native/sb_dbt__Dbt.cmx; do
  if ! rules=$(dune rules "$target"); then
    echo "check-build-flags: dune rules $target failed" >&2
    exit 1
  fi
  args=$(printf '%s\n' "$rules" | tr -d ' ')
  if printf '%s\n' "$args" | grep -qxF -e -opaque; then
    echo "check-build-flags: $target is compiled with -opaque" >&2
    status=1
  fi
  if ! printf '%s\n' "$args" | grep -qxF -e "$spec"; then
    echo "check-build-flags: $target is not compiled with -w $spec" >&2
    status=1
  fi
done
if command -v objdump >/dev/null 2>&1; then
  archives='lib/mem/sb_mem.a lib/sim/sb_sim.a lib/interp/sb_interp.a lib/dbt/sb_dbt.a'
  if ! dune build $archives; then
    echo "check-build-flags: dune build $archives failed" >&2
    exit 1
  fi
  for archive in $archives; do
    calls=$(objdump -dr "_build/default/$archive" \
      | grep -o 'caml_ba_[gs]et_[A-Za-z0-9_]*' | sort -u | tr '\n' ' ')
    if [ -n "$calls" ]; then
      echo "check-build-flags: $archive calls $calls(a Bigarray access not compiled inline)" >&2
      status=1
    fi
  done
  blits=$(objdump -dr _build/default/lib/dbt/sb_dbt.a \
    | grep -o 'camlStdlib__Array\.blit[A-Za-z0-9_]*\|caml_array_blit' | sort -u | tr '\n' ' ')
  if [ -n "$blits" ]; then
    echo "check-build-flags: lib/dbt/sb_dbt.a calls $blits(copy with Sb_sim.Guest.copy_words)" >&2
    status=1
  fi
  # the lookup's own definition is a label, not a relocation: only a use
  # of its symbol from code is a call or a jump to it
  slot_uses=$(objdump -dr _build/default/lib/interp/sb_interp.a \
    | grep -c 'R_[A-Z0-9_]*[[:space:]][[:space:]]*camlSb_interp__Core[._][_]*predecode_slot')
  if [ "$slot_uses" -ne 0 ]; then
    echo "check-build-flags: lib/interp/sb_interp.a calls Core.predecode_slot $slot_uses times (the predecode lookup is not inlined)" >&2
    status=1
  fi
  [ "$status" -eq 0 ] && echo "check-build-flags: no -opaque, warnings are errors, Bigarray accesses inline, no Array.blit in the DBT, the predecode lookup inline"
else
  [ "$status" -eq 0 ] && echo "check-build-flags: no -opaque, warnings are errors"
  echo "check-build-flags: skipped the Bigarray access, Array.blit and predecode lookup checks: no objdump on this host"
fi
exit "$status"
