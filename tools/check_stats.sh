#!/usr/bin/env sh
# Validate a Prometheus text exposition scraped from a serving daemon
# (`topk_cli stats ADDR --prom > FILE`):
#
#   1. every line parses: `# TYPE name counter|gauge|histogram`, a
#      `name value` sample, or a `name_bucket{le="..."} value` series;
#   2. every histogram declared is internally consistent: cumulative
#      bucket counts are monotone, the `+Inf` bucket equals `_count`;
#   3. the required serving series are all present; one written
#      NAME=VALUE must also read exactly VALUE.
#
# Usage: sh tools/check_stats.sh FILE [required-series ...]
# Default required series are the serve-s1 set; pass an explicit list
# when checking a serve-s2 scrape.
set -eu

file=${1:?usage: check_stats.sh FILE [series ...]}
shift || true
if [ "$#" -gt 0 ]; then
  required="$*"
else
  required="served busy errors queue_depth in_flight_queries open_sessions \
worker_utilization queue_wait_us exec_us query_rounds query_bytes query_depth"
fi

awk '
  /^$/ { next }
  /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ { declared[$3] = $4; next }
  /^#/ { print "check_stats: unparseable comment line " NR ": " $0; bad = 1; next }
  # histogram bucket series
  /^[a-zA-Z_:][a-zA-Z0-9_:]*_bucket\{le="([0-9]+|\+Inf)"\} [0-9]+$/ {
    name = $1; sub(/_bucket\{.*/, "", name)
    if (declared[name] != "histogram") {
      print "check_stats: bucket series for undeclared histogram: " $0; bad = 1; next
    }
    if ($2 + 0 < last_cum[name]) {
      print "check_stats: non-monotone cumulative buckets for " name; bad = 1
    }
    last_cum[name] = $2 + 0
    if (index($0, "le=\"+Inf\"") > 0) inf_count[name] = $2 + 0
    next
  }
  # plain samples: counters, gauges, histogram _sum/_count
  /^[a-zA-Z_:][a-zA-Z0-9_:]* -?[0-9.+eE-]+$/ {
    name = $1
    if (name ~ /_count$/) { h = name; sub(/_count$/, "", h)
      if (declared[h] == "histogram") { count_of[h] = $2 + 0; next } }
    if (name ~ /_sum$/) { h = name; sub(/_sum$/, "", h)
      if (declared[h] == "histogram") next }
    if (declared[name] == "") {
      print "check_stats: sample for undeclared metric: " $0; bad = 1; next
    }
    seen[name] = 1; value[name] = $2; next
  }
  { print "check_stats: unparseable line " NR ": " $0; bad = 1 }
  END {
    for (h in declared) {
      if (declared[h] != "histogram") continue
      if (!(h in inf_count)) { print "check_stats: histogram " h " missing +Inf bucket"; bad = 1 }
      else if (inf_count[h] != count_of[h]) {
        print "check_stats: histogram " h " +Inf bucket " inf_count[h] " != _count " count_of[h]
        bad = 1
      }
      seen[h] = 1
    }
    n = split(req, reqs, /[ \t]+/)
    for (i = 1; i <= n; i++) {
      if (reqs[i] == "") continue
      split(reqs[i], kv, "=")
      if (!(kv[1] in seen)) { print "check_stats: required series missing: " kv[1]; bad = 1 }
      else if (index(reqs[i], "=") > 0 && value[kv[1]] + 0 != kv[2] + 0) {
        print "check_stats: " kv[1] " reads " value[kv[1]] ", expected " kv[2]; bad = 1
      }
    }
    exit bad
  }
' req="$required" "$file"

echo "check_stats: OK ($file)"
