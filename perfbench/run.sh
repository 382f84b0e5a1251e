#!/usr/bin/env bash
# Benchmark entry point: builds the program from source if needed, then runs
# one workload and prints the result as the last line of stdout.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the run writes (classes, Spark
# scratch, result and trace files) stays under perfbench/.
set -euo pipefail

bench_dir="perfbench"
work="$bench_dir/.work"
mkdir -p "$work/tmp" "$work/spark-local" "$bench_dir/out"

digest="$(bash "$bench_dir/build.sh")"
git_sha=none
if [[ -e .git ]]; then git_sha="$(git rev-parse HEAD 2>/dev/null || echo none)"; fi

opens=()
for p in java.lang java.lang.invoke java.lang.reflect java.io java.net java.nio \
         java.util java.util.concurrent java.util.concurrent.atomic jdk.internal.ref \
         sun.nio.ch sun.nio.cs sun.security.action sun.util.calendar; do
  opens+=("--add-opens=java.base/$p=ALL-UNNAMED")
done

export SPARK_LOCAL_DIRS="$work/spark-local"
# The timeout is a safety net only: the benchmark bounds its own run time.
exec timeout -k 5 175 java "${opens[@]}" \
  -Xms3g -Xmx3g -XX:-UsePerfData \
  -Djava.io.tmpdir="$work/tmp" \
  -Dlog4j2.configurationFile="$bench_dir/log4j2.properties" \
  -Dspark.driver.host=127.0.0.1 -Dspark.ui.enabled=false \
  -Dperfbench.gitSha="$git_sha" -Dperfbench.srcDigest="$digest" \
  -cp "$bench_dir/.build/classes:$SPARK_HOME/jars/*" \
  repro.perfbench.Main "$@"
