#!/usr/bin/env bash
# Determinism check: run a command twice and byte-compare what it wrote.
#
#   run-twice.sh [--stdout] DIR CMD [ARG...]
#
# Every "{}" inside an argument stands for a fresh output directory.
# Both runs use the same path for it, so output that names its own
# files is equal too; after each run the directory is moved to DIR/1 or
# DIR/2. With --stdout, the command's stdout is also saved there (as
# stdout.txt) and compared; otherwise it goes to the log. Both runs must
# succeed, and every file of DIR/1 must be byte-identical to the file
# of the same name in DIR/2. Later steps read the outputs from DIR/1.
set -euo pipefail

keep_stdout=false
if [ "$1" = "--stdout" ]; then
  keep_stdout=true
  shift
fi
dir=$1
shift
work="$dir/out"

for run in 1 2; do
  rm -rf "$work" "${dir:?}/$run"
  mkdir -p "$work"
  args=()
  for a in "$@"; do args+=("${a//\{\}/$work}"); done
  echo "::group::run $run: ${args[*]}"
  if $keep_stdout; then
    "${args[@]}" | tee "$work/stdout.txt"
  else
    "${args[@]}"
  fi
  echo "::endgroup::"
  mv "$work" "$dir/$run"
done

status=0
if ! diff <(ls "$dir/1") <(ls "$dir/2"); then
  echo "the two runs wrote different files" >&2
  status=1
fi
for f in "$dir"/1/*; do
  name=$(basename "$f")
  if cmp "$f" "$dir/2/$name"; then
    echo "identical: $name"
  else
    status=1
  fi
done
exit $status
