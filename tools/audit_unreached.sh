#!/usr/bin/env bash
# Link-time audit: which qra:: functions does no shipped binary keep?
#
#   tools/audit_unreached.sh <build-dir>
#
# Configures this tree (tools, benches and examples; no tests) and
# e2ebench/ out of tree under <build-dir>, unoptimised and with one
# section per function, and links with --gc-sections, so a binary
# keeps exactly the functions it can reach. The qra:: functions that
# src/libqra.a defines and none of the linked binaries keeps are the
# names only tests reach. Prints the totals, then those names, one a
# line; the lists stay in <build-dir> as library.txt, reached.txt and
# unreached.txt. Nothing is written inside the source tree. The
# standard CMAKE_BUILD_PARALLEL_LEVEL sets the build's parallelism.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <build-dir>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
cmake -S "$root" -B "$out/tree" "${flags[@]}" -DQRA_BUILD_TESTS=OFF \
    > "$out/configure.log"
cmake --build "$out/tree" > "$out/build.log"
cmake -S "$root/e2ebench" -B "$out/e2ebench" "${flags[@]}" \
    >> "$out/configure.log"
cmake --build "$out/e2ebench" --target qra_e2ebench >> "$out/build.log"

# Defined text symbols (strong or weak, global or local) in qra::.
functions() {
    nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* [TtWw] //p' |
        grep '^qra::' | sort -u
}

mapfile -t binaries < <(
    find "$out/tree/tools" "$out/tree/bench" "$out/tree/examples" \
        -maxdepth 1 -type f -perm -u+x | sort
    echo "$out/e2ebench/qra_e2ebench")

functions "$out/tree/src/libqra.a" > "$out/library.txt"
functions "${binaries[@]}" > "$out/reached.txt"
comm -23 "$out/library.txt" "$out/reached.txt" > "$out/unreached.txt"

echo "binaries: ${#binaries[@]}"
echo "library functions: $(wc -l < "$out/library.txt")"
echo "unreached: $(wc -l < "$out/unreached.txt")"
cat "$out/unreached.txt"
