#include "serving/stats.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace deepcsi::serving {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(sizeof(buf) - 1, static_cast<std::size_t>(n)));
}

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

}  // namespace

std::string StatsSnapshot::render_text() const {
  std::string out;
  appendf(out,
          "--- serve stats ------------------------------------------\n");
  if (ingest) {
    appendf(out,
            "ingest       %llu conn(s) (%llu refused, %llu shed), %llu "
            "frames, %llu submitted, %llu dropped, %llu malformed, %llu "
            "protocol errors, %llu pauses\n",
            ull(ingest->conns_accepted), ull(ingest->conns_rejected),
            ull(ingest->conns_shed), ull(ingest->frames),
            ull(ingest->reports_submitted), ull(ingest->reports_dropped),
            ull(ingest->malformed_payloads), ull(ingest->protocol_errors),
            ull(ingest->pauses));
  }
  if (reports_offered > 0) {
    appendf(out,
            "throughput   %zu/%zu reports accepted, %zu classified in "
            "%.3fs (%.0f reports/s)\n",
            reports_accepted, reports_offered, reports_classified,
            wall_seconds, throughput_rps);
  } else {
    appendf(out, "throughput   %zu classified in %.3fs (%.0f reports/s)\n",
            reports_classified, wall_seconds, throughput_rps);
  }
  appendf(out,
          "batches      %zu total: by-size=%zu by-deadline=%zu drain=%zu, "
          "largest=%zu\n",
          scheduler.batches, scheduler.flush_full, scheduler.flush_deadline,
          scheduler.flush_drain, scheduler.max_batch_seen);
  appendf(out, "latency      batch p50=%.2fms p99=%.2fms max=%.2fms\n",
          batch_latency_p50_ms, batch_latency_p99_ms, batch_latency_max_ms);
  appendf(out,
          "queue        peak depth %zu (budget %zu), drops: "
          "dropped-oldest=%zu rejected=%zu, would-block=%zu\n",
          queue.peak_depth, queue_budget, queue.dropped_oldest,
          queue.rejected, queue.would_block);
  // The session line earns its place once the table holds anything or is
  // allowed to forget — an empty unbounded table says nothing.
  if (sessions.stations > 0 || sessions.station_ceiling > 0 ||
      sessions.evicted_ttl > 0 || sessions.evicted_lru > 0) {
    appendf(out, "sessions     %zu station(s) (peak %zu", sessions.stations,
            sessions.peak_stations);
    if (sessions.station_ceiling > 0)
      appendf(out, ", ceiling %zu", sessions.station_ceiling);
    appendf(out, "), evicted: ttl=%llu lru=%llu, table ~%.1f MiB",
            ull(sessions.evicted_ttl), ull(sessions.evicted_lru),
            mib(sessions.approx_bytes));
    if (sessions.stations_drifting > 0)
      appendf(out, ", DRIFTING %zu", sessions.stations_drifting);
    if (process_rss_bytes > 0)
      appendf(out, ", rss %.1f MiB", mib(process_rss_bytes));
    appendf(out, "\n");
  }
  // Lifecycle line only once a swap was attempted — a run that never
  // swaps renders byte-identically to the pre-lifecycle format.
  if (lifecycle.swaps_completed > 0 || lifecycle.swaps_rolled_back > 0) {
    appendf(out, "lifecycle    epoch %llu, swaps: completed=%llu "
            "rolled-back=%llu\n",
            ull(lifecycle.epoch), ull(lifecycle.swaps_completed),
            ull(lifecycle.swaps_rolled_back));
  }
  if (lifecycle.contexts > 0) {
    appendf(out, "contexts     %zu built, arenas %.1f MiB\n",
            lifecycle.contexts, mib(lifecycle.arena_bytes));
  }
  if (shadow.present) {
    appendf(out,
            "shadow       %llu sampled, %llu diverged (%llu station(s)), "
            "mean conf delta %+.4f%s\n",
            ull(shadow.sampled), ull(shadow.diverged),
            ull(shadow.stations_diverging), shadow.mean_confidence_delta,
            shadow.promoted ? ", PROMOTED" : "");
  }
  // Watchdog: a lane with queued work that has stopped flushing is the
  // one failure this block must never hide.
  if (lanes_stalled > 0) {
    appendf(out,
            "watchdog     %zu of %zu lane(s) STALLED (>%.0fms without "
            "progress while work is queued):\n",
            lanes_stalled, lanes.size(), watchdog_stall_s * 1000.0);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i].stalled)
        appendf(out, "  lane %zu     depth %zu, last progress %.1fs ago\n",
                i, lanes[i].queue.depth, lanes[i].since_progress_s);
    }
  } else {
    appendf(out, "watchdog     all %zu lane(s) healthy\n", lanes.size());
  }
  if (lanes.size() > 1) {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const Lane& l = lanes[i];
      appendf(out,
              "  lane %zu     %zu reports in %zu batches "
              "(size/deadline/drain=%zu/%zu/%zu), queue peak %zu, "
              "dropped=%zu rejected=%zu\n",
              i, l.scheduler.items, l.scheduler.batches,
              l.scheduler.flush_full, l.scheduler.flush_deadline,
              l.scheduler.flush_drain, l.queue.peak_depth,
              l.queue.dropped_oldest, l.queue.rejected);
    }
  }
  if (publish) {
    appendf(out,
            "publish      %llu subscriber(s), %llu frames, %llu "
            "slow-subscriber drops, %llu bytes\n",
            ull(publish->subscribers_accepted), ull(publish->frames_published),
            ull(publish->frames_dropped), ull(publish->bytes_sent));
  }
  appendf(out,
          "----------------------------------------------------------\n");
  return out;
}

std::string StatsSnapshot::render_json() const {
  std::string out;
  appendf(out, "{\"version\":%d", kVersion);
  appendf(out,
          ",\"throughput\":{\"reports_classified\":%zu,\"wall_seconds\":%.6f,"
          "\"reports_per_s\":%.3f,\"reports_offered\":%zu,"
          "\"reports_accepted\":%zu}",
          reports_classified, wall_seconds, throughput_rps, reports_offered,
          reports_accepted);
  appendf(out,
          ",\"latency_ms\":{\"batch_p50\":%.4f,\"batch_p99\":%.4f,"
          "\"batch_max\":%.4f}",
          batch_latency_p50_ms, batch_latency_p99_ms, batch_latency_max_ms);
  appendf(out,
          ",\"queue\":{\"budget\":%zu,\"depth\":%zu,\"peak_depth\":%zu,"
          "\"pushed\":%zu,\"popped\":%zu,\"dropped_oldest\":%zu,"
          "\"rejected\":%zu,\"would_block\":%zu}",
          queue_budget, queue.depth, queue.peak_depth, queue.pushed,
          queue.popped, queue.dropped_oldest, queue.rejected,
          queue.would_block);
  appendf(out,
          ",\"scheduler\":{\"batches\":%zu,\"items\":%zu,\"flush_full\":%zu,"
          "\"flush_deadline\":%zu,\"flush_drain\":%zu,\"max_batch_seen\":%zu}",
          scheduler.batches, scheduler.items, scheduler.flush_full,
          scheduler.flush_deadline, scheduler.flush_drain,
          scheduler.max_batch_seen);
  appendf(out,
          ",\"sessions\":{\"stations\":%zu,\"peak_stations\":%zu,"
          "\"station_ceiling\":%zu,\"evicted_ttl\":%llu,\"evicted_lru\":%llu,"
          "\"approx_bytes\":%zu,\"stations_drifting\":%zu}",
          sessions.stations, sessions.peak_stations, sessions.station_ceiling,
          ull(sessions.evicted_ttl), ull(sessions.evicted_lru),
          sessions.approx_bytes, sessions.stations_drifting);
  appendf(out,
          ",\"lifecycle\":{\"epoch\":%llu,\"swaps_completed\":%llu,"
          "\"swaps_rolled_back\":%llu,\"contexts\":%zu,\"arena_bytes\":%zu}",
          ull(lifecycle.epoch), ull(lifecycle.swaps_completed),
          ull(lifecycle.swaps_rolled_back), lifecycle.contexts,
          lifecycle.arena_bytes);
  appendf(out,
          ",\"watchdog\":{\"consumers\":%zu,\"lanes_stalled\":%zu,"
          "\"stall_threshold_s\":%.3f}",
          consumers, lanes_stalled, watchdog_stall_s);
  appendf(out, ",\"lanes\":[");
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const Lane& l = lanes[i];
    appendf(out,
            "%s{\"queue_peak\":%zu,\"depth\":%zu,\"batches\":%zu,"
            "\"items\":%zu,\"stalled\":%s,\"since_progress_s\":%.3f}",
            i == 0 ? "" : ",", l.queue.peak_depth, l.queue.depth,
            l.scheduler.batches, l.scheduler.items,
            l.stalled ? "true" : "false", l.since_progress_s);
  }
  appendf(out, "]");
  if (ingest) {
    appendf(out,
            ",\"ingest\":{\"conns_accepted\":%llu,\"conns_rejected\":%llu,"
            "\"conns_shed\":%llu,\"frames\":%llu,\"reports_submitted\":%llu,"
            "\"reports_dropped\":%llu,\"malformed_payloads\":%llu,"
            "\"protocol_errors\":%llu,\"pauses\":%llu}",
            ull(ingest->conns_accepted), ull(ingest->conns_rejected),
            ull(ingest->conns_shed), ull(ingest->frames),
            ull(ingest->reports_submitted), ull(ingest->reports_dropped),
            ull(ingest->malformed_payloads), ull(ingest->protocol_errors),
            ull(ingest->pauses));
  }
  if (publish) {
    appendf(out,
            ",\"publish\":{\"subscribers_accepted\":%llu,"
            "\"frames_published\":%llu,\"frames_dropped\":%llu,"
            "\"bytes_sent\":%llu}",
            ull(publish->subscribers_accepted), ull(publish->frames_published),
            ull(publish->frames_dropped), ull(publish->bytes_sent));
  }
  if (shadow.present) {
    appendf(out,
            ",\"shadow\":{\"sampled\":%llu,\"diverged\":%llu,"
            "\"stations_diverging\":%llu,\"mean_confidence_delta\":%.6f,"
            "\"promoted\":%s}",
            ull(shadow.sampled), ull(shadow.diverged),
            ull(shadow.stations_diverging), shadow.mean_confidence_delta,
            shadow.promoted ? "true" : "false");
  }
  appendf(out, ",\"process_rss_bytes\":%zu}", process_rss_bytes);
  out.push_back('\n');
  return out;
}

}  // namespace deepcsi::serving
