#!/usr/bin/env bash
# Builds the REPOSE benchmark from the sources of this checkout (once, and
# again whenever a source is newer than the build) and runs one workload:
#
#   bash reposebench/run.sh --workload osm-hausdorff --seed 7 --seconds 10 --trace 0
#
# Needs sbt on PATH and SPARK_HOME pointing at a Spark 4 distribution. All
# output files stay inside the checkout (reposebench/target, reposebench/out).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ ! -d src/main/scala/repro ]; then
  echo "reposebench: no REPOSE sources under $root/src/main/scala; run from a full checkout" >&2
  exit 2
fi
if [ -z "${SPARK_HOME:-}" ] || [ ! -d "$SPARK_HOME/jars" ]; then
  echo "reposebench: SPARK_HOME must point at a Spark distribution" >&2
  exit 2
fi

cp_file="$here/target/bench-classpath.txt"
stale="$( [ -f "$cp_file" ] && find src/main/scala "$here/src/main" "$here/build.sbt" "$here/project/build.properties" \
  -newer "$cp_file" -type f -print -quit || echo missing)"
if [ -n "$stale" ]; then
  # sbt's log goes to stderr: the last line of stdout is the result.
  mkdir -p "$here/target"
  log="$here/target/build.log"
  (cd "$here" && sbt --batch -Dsbt.server.autostart=false -Dsbt.log.noformat=true \
    compile "export Runtime/fullClasspath") >"$log" 2>&1 \
    || { cat "$log" >&2; echo "reposebench: build failed" >&2; exit 3; }
  cat "$log" >&2
  grep '/target/scala-2.13/classes' "$log" | tail -n 1 > "$cp_file.tmp"
  [ -s "$cp_file.tmp" ] || { echo "reposebench: sbt printed no classpath" >&2; exit 3; }
  mv "$cp_file.tmp" "$cp_file"
fi

mkdir -p "$here/out/tmp"
opens=()
for m in java.lang java.lang.invoke java.lang.reflect java.io java.net java.nio java.util \
         java.util.concurrent java.util.concurrent.atomic jdk.internal.ref sun.nio.ch sun.nio.cs \
         sun.security.action sun.util.calendar; do
  opens+=("--add-opens=java.base/$m=ALL-UNNAMED")
done
git_sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

exec java -Xms3g -Xmx3g "${opens[@]}" \
  -Djava.io.tmpdir="$here/out/tmp" -Dreposebench.git="$git_sha" \
  -cp "$(cat "$cp_file")" reposebench.Main "$@"
