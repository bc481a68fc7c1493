package serve

import (
	"encoding/json"
	"net/http"
	"time"
)

// handleStatusz renders the resilience-oriented operational snapshot: the
// effective configuration, snapshot lifecycle, every tracked circuit
// breaker region (tripped regions first), degraded-answer counts, and the
// cache/admission gauges — the page an operator reads when the daemon is
// answering strangely. /metrics stays the flat counter surface for
// scrapers; /statusz is structured for humans.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	snap := map[string]any{
		"uptime_s": time.Since(s.metrics.start).Seconds(),
		"config": map[string]any{
			"max_inflight":       s.cfg.MaxInflight,
			"max_queue":          s.cfg.MaxQueue,
			"default_timeout_ms": s.cfg.DefaultTimeout.Milliseconds(),
			"max_timeout_ms":     s.cfg.MaxTimeout.Milliseconds(),
			"cache_entries":      s.cfg.CacheEntries,
			"cache_bytes":        s.cfg.CacheBytes,
			"max_sweep_points":   s.cfg.MaxSweepPoints,
			"snapshot_path":      s.cfg.SnapshotPath,
			"snapshot_interval":  s.cfg.SnapshotInterval.String(),
			"breaker_threshold":  s.cfg.BreakerThreshold,
			"breaker_cooldown":   s.cfg.BreakerCooldown.String(),
			"degraded_enabled":   !s.cfg.DisableDegraded,
		},
		"snapshot": s.snapshotStatus(),
		"breakers": map[string]any{
			"enabled":     s.breakers != nil,
			"transitions": group(s.metrics.counts, "breaker."),
			"regions":     s.breakers.statuses(),
		},
		"degraded":  group(s.metrics.counts, "degraded."),
		"cache":     s.cacheStats(),
		"admission": s.admissionStats(),
		"readiness": map[string]any{
			"ready":    s.Ready(),
			"draining": s.draining.Load(),
		},
	}
	if s.fleet != nil {
		snap["fleet"] = map[string]any{
			"status":   s.fleet.Status(),
			"forwards": group(s.metrics.counts, "fleet."),
			"client":   group(s.fleet.Counters(), ""),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}
