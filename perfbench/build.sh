#!/usr/bin/env bash
# Build file of the benchmark: compiles the repository's library sources
# (src/main/scala, minus the DuckDB test oracle, whose JDBC driver is not part
# of the Spark distribution) together with the benchmark's own sources, using
# the Scala compiler that ships in $SPARK_HOME/jars.
#
#   bash perfbench/build.sh        # from the repository root
#
# Output: perfbench/.build/classes, stamped with a digest of every compiled
# source so a later call only recompiles when a source changed. Prints the
# digest on stdout.
set -euo pipefail

bench_dir="perfbench"
out="$bench_dir/.build"
jars="${SPARK_HOME:?SPARK_HOME must point at a Spark distribution}/jars"

if [[ ! -d src/main/scala ]]; then
  echo "build.sh: no src/main/scala here; run from the repository root" >&2
  exit 2
fi

mapfile -t lib_srcs < <(find src/main/scala -name '*.scala' -print0 | xargs -0 grep -L 'org\.duckdb' | LC_ALL=C sort)
mapfile -t bench_srcs < <(find "$bench_dir/src" -name '*.scala' | LC_ALL=C sort)
digest="$(cat "${lib_srcs[@]}" "${bench_srcs[@]}" "$bench_dir/build.sh" | sha256sum | cut -c1-16)"

if [[ -f "$out/stamp" && "$(cat "$out/stamp")" == "$digest" ]]; then
  echo "$digest"
  exit 0
fi

rm -rf "$out"
mkdir -p "$out/classes"
scala_cp="$(ls "$jars"/scala-compiler-2.13.*.jar "$jars"/scala-library-2.13.*.jar "$jars"/scala-reflect-2.13.*.jar | paste -sd:)"
java -Xmx1g -XX:-UsePerfData -cp "$scala_cp" scala.tools.nsc.Main \
  -nowarn -deprecation:false -classpath "$jars/*" -d "$out/classes" \
  "${lib_srcs[@]}" "${bench_srcs[@]}" >&2
echo "$digest" > "$out/stamp"
echo "$digest"
