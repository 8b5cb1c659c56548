#!/usr/bin/env bash
# The output contract: run the reference commands from BASE_REF and from the
# working tree, then compare every file they wrote with `diff -r`.
#
#   scripts/output_contract.sh BASE_REF
#
# BASE_REF (a commit, branch or tag) is extracted with `git archive` into a
# temporary directory, and every output goes there too, so nothing is written
# inside the repository. BLAS runs on one thread. The commands are the seed-42
# mock suite, the seed-7 cache suite (its replay cache included), `report` on
# both, and a 20-repeat profile of the fixture corpus. The exit status is that
# of `diff -r`: 0 when both trees wrote the same bytes.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REF" >&2
    exit 2
fi
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base-tree"
git -C "$repo" archive "$1" | tar -x -C "$tmp/base-tree"

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONDONTWRITEBYTECODE=1

run_commands() {  # source tree, output directory
    local out=$2
    (
        cd "$tmp"
        export PYTHONPATH="$1/src"
        peermatch() { python3 -m peermatch.cli "$@" > /dev/null; }
        peermatch suite --seed 42 --backend mock --out "$out/suite-mock"
        peermatch suite --seed 7 --backend cache --out "$out/suite-cache"
        peermatch report --out "$out/suite-mock"
        peermatch report --out "$out/suite-cache"
        peermatch profile fixture --repeats 20 --seed 3 --out "$out/profile"
    )
}

echo "running the contract commands from $1" >&2
run_commands "$tmp/base-tree" "$tmp/base"
echo "running the contract commands from the working tree" >&2
run_commands "$repo" "$tmp/work"
diff -r "$tmp/base" "$tmp/work"
