#!/bin/sh
# Refresh the offline verification workspace at /tmp/check from the repo.
#
# The dev container has no network access, so crates.io dependencies
# (serde, crossbeam, ...) cannot be fetched.  /tmp/check mirrors the repo
# with those dependencies replaced by minimal API-compatible stubs
# (scripts/stubs, committed in-repo so fresh containers can rebuild the
# check workspace) and the proptest-based test files removed (proptest
# cannot be stubbed usefully).  Run this, then
# `cd /tmp/check && cargo build --release && cargo test -q`.
#
# crates/trace (the flight recorder, PR 3) and crates/storage (the WAL +
# pluggable backends, PR 7; depends only on gridwfs-chaos) are
# dependency-free on purpose — they need no stubbing and their tests all
# run here.  Path-only crates like them mirror into this workspace
# automatically: the tar below copies everything but ./target and
# ./scripts, so a new crate only needs a stub entry when it pulls a
# crates.io dependency.
set -eu

REPO=/root/repo
CHECK=/tmp/check

mkdir -p "$CHECK"
# Copy sources, preserving the incremental target dir.  Stage the copy and
# move only content-changed files across: a straight tar extract preserves
# repo mtimes, so a mirror file that was edited in place (e.g. patched to
# prove a test fails first) and then restored to *older* repo content
# would keep its stale compiled artifact — cargo's freshness check is
# mtime-based and never sees time move backward.  `cp` stamps now.
STAGE=$(mktemp -d)
(cd "$REPO" && tar cf - --exclude=./target --exclude=./scripts .) | \
    (cd "$STAGE" && tar xf -)
(cd "$STAGE" && find . -type f | while read -r f; do
    if ! cmp -s "$f" "$CHECK/$f"; then
        mkdir -p "$CHECK/$(dirname "$f")"
        cp "$f" "$CHECK/$f"
    fi
done)
rm -rf "$STAGE"
# Install the stub crates from the repo copy.
rm -rf "$CHECK/stubs"
cp -r "$REPO/scripts/stubs" "$CHECK/stubs"

# Point the workspace at the stubs and drop proptest (unstubbable).
sed -i \
    -e 's#^proptest = .*##' \
    -e 's#^criterion = .*#criterion = { path = "stubs/criterion" }#' \
    -e 's#^crossbeam = .*#crossbeam = { path = "stubs/crossbeam" }#' \
    -e 's#^serde = .*#serde = { path = "stubs/serde" }#' \
    -e 's#^serde_json = .*#serde_json = { path = "stubs/serde_json" }#' \
    "$CHECK/Cargo.toml"
sed -i -e 's#^proptest\.workspace = true##' "$CHECK"/Cargo.toml "$CHECK"/crates/*/Cargo.toml
rm -f "$CHECK"/tests/*properties*.rs "$CHECK"/crates/*/tests/*properties*.rs \
    "$CHECK"/tests/*.proptest-regressions "$CHECK"/crates/*/tests/*.proptest-regressions

echo "refreshed $CHECK"
