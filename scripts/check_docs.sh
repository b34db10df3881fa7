#!/usr/bin/env bash
# Docs guard: keep the handbook from silently rotting.
#
#  1. Every relative markdown link in README.md and docs/*.md must point
#     at a file or directory that exists (anchors and external URLs are
#     ignored).
#  2. Every src/*/ module directory must be mentioned in
#     docs/ARCHITECTURE.md — adding a subsystem without documenting it
#     fails CI.
#  3. docs/ROBUSTNESS.md must exist and cover the fault module — the
#     chaos/recovery contract is load-bearing for the serving stack.
#  4. docs/CLUSTER.md must exist and cover the cluster module — the
#     sharding/invariance contract backs the cluster CI gate.
#  5. docs/BACKENDS.md must cover src/exec/simd/ — the SIMD dispatch
#     layer and its bit-exactness contract back every fused backend and
#     the forced-level CI legs.
#  6. docs/NETWORK.md must exist and cover the net module — the wire
#     protocol and drain semantics back the server smoke CI gate.
#  7. Every backticked key type in ARCHITECTURE.md's module map must name
#     something under src/: a `name.*` entry must match a file in that
#     row's module directory; any other entry (template arguments and
#     namespace qualifiers stripped) must appear as a whole word in some
#     src/ header — a deleted or renamed type fails CI.
#
# Run from the repo root: scripts/check_docs.sh
set -u

fail=0

check_links() {
    local file="$1"
    local dir
    dir=$(dirname "$file")
    # Pull out markdown link targets: [text](target)
    local targets
    targets=$(grep -o '](\([^)]*\))' "$file" | sed 's/^](//; s/)$//')
    local t
    for t in $targets; do
        case "$t" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        local path="${t%%#*}" # strip in-page anchor
        [ -z "$path" ] && continue
        # Markdown links resolve relative to the containing file.
        if [ ! -e "$dir/$path" ]; then
            echo "ERROR: $file links to missing path: $t"
            fail=1
        fi
    done
}

for f in README.md docs/*.md; do
    [ -e "$f" ] || continue
    check_links "$f"
done

arch_doc="docs/ARCHITECTURE.md"
if [ ! -e "$arch_doc" ]; then
    echo "ERROR: $arch_doc is missing"
    fail=1
else
    for d in src/*/; do
        mod=$(basename "$d")
        # Require the explicit `src/<mod>/` form: a bare substring would
        # be satisfied by incidental prose ("timing model", "serving").
        if ! grep -q "src/$mod/" "$arch_doc"; then
            echo "ERROR: module src/$mod/ is not mentioned in $arch_doc"
            fail=1
        fi
    done
fi

# Check 7: module-map rows look like | `src/<mod>/` | owns | `Key`, ... |
if [ -e "$arch_doc" ]; then
    while IFS= read -r row; do
        mod_dir=$(printf '%s\n' "$row" | sed -E 's/^\| `(src\/[a-z_]+\/)` \|.*/\1/')
        while IFS= read -r key; do
            [ -z "$key" ] && continue
            case "$key" in
                *.\*)
                    if ! compgen -G "$mod_dir${key%.\*}.*" >/dev/null; then
                        echo "ERROR: $arch_doc lists \`$key\` for $mod_dir but no such file exists there"
                        fail=1
                    fi
                    ;;
                *)
                    name="${key%%<*}"   # Tensor<T> -> Tensor
                    name="${name##*::}" # simd::kernels -> kernels
                    if ! grep -rqw --include='*.h' -- "$name" src; then
                        echo "ERROR: $arch_doc lists \`$key\` for $mod_dir but no src/ header names it"
                        fail=1
                    fi
                    ;;
            esac
        done < <(printf '%s\n' "$row" | awk -F'|' '{print $(NF-1)}' |
                 grep -o '`[^`]*`' | tr -d '`')
    done < <(grep -E '^\| `src/[a-z_]+/` \|' "$arch_doc")
fi

robust_doc="docs/ROBUSTNESS.md"
if [ ! -e "$robust_doc" ]; then
    echo "ERROR: $robust_doc is missing"
    fail=1
elif ! grep -q "src/fault/" "$robust_doc"; then
    echo "ERROR: $robust_doc does not cover src/fault/"
    fail=1
fi

cluster_doc="docs/CLUSTER.md"
if [ ! -e "$cluster_doc" ]; then
    echo "ERROR: $cluster_doc is missing"
    fail=1
elif ! grep -q "src/cluster/" "$cluster_doc"; then
    echo "ERROR: $cluster_doc does not cover src/cluster/"
    fail=1
fi

backends_doc="docs/BACKENDS.md"
if [ ! -e "$backends_doc" ]; then
    echo "ERROR: $backends_doc is missing"
    fail=1
elif ! grep -q "src/exec/simd/" "$backends_doc"; then
    echo "ERROR: $backends_doc does not cover src/exec/simd/"
    fail=1
fi

network_doc="docs/NETWORK.md"
if [ ! -e "$network_doc" ]; then
    echo "ERROR: $network_doc is missing"
    fail=1
elif ! grep -q "src/net/" "$network_doc"; then
    echo "ERROR: $network_doc does not cover src/net/"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "docs check FAILED"
    exit 1
fi
echo "docs check passed: links resolve, all modules and key types documented"
