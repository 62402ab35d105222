package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"masksim/sim"
)

// keyVersion is folded into every fingerprint so that a change to the
// canonical encoding (or to the meaning of a Config field) invalidates old
// on-disk entries instead of silently resurrecting stale results.
const keyVersion = "v1"

// Cacheable reports whether a run under cfg may be memoized. Fault-injected
// runs are excluded: a Plan carries mutable counters and exists precisely to
// exercise the supervision path, which serving a cached result would mask.
// A run with a streaming telemetry sink must actually execute — a cache hit
// would skip the simulation and starve the stream — and its buffered Results
// carry no telemetry samples, so a cached copy would shortchange later
// consumers too.
func Cacheable(cfg sim.Config) bool { return cfg.FaultPlan == nil && cfg.TelemetrySink == nil }

// configString renders cfg in a canonical, content-only form, delegating the
// canonicalization to sim.CanonicalConfig (the same normalization checkpoint
// fingerprints use): the display name, fault injection, the fast-forward
// speed knob, and the checkpoint/resume orchestration are all stripped, so
// behaviorally equal runs — including a cell resumed from a checkpoint and a
// cell run clean — share one cache entry.
func configString(cfg sim.Config) string {
	return fmt.Sprintf("%+v", sim.CanonicalConfig(cfg))
}

// RunKey fingerprints a shared multi-application run: sim.Run of names under
// cfg for cycles.
func RunKey(cfg sim.Config, names []string, cycles int64) string {
	return fingerprint("run", cfg, strings.Join(names, ","), cycles)
}

// AloneKey fingerprints an uncontended single-application run: sim.RunAlone
// of app on cores cores under cfg for cycles.
func AloneKey(cfg sim.Config, app string, cores int, cycles int64) string {
	// sim.RunAlone never partitions resources; normalize so direct RunAlone
	// callers and AloneIPC agree on the key.
	if cfg.Design == sim.DesignStatic {
		cfg.Design = sim.DesignSharedTLB
	}
	return fingerprint("alone", cfg, fmt.Sprintf("%s/%d", app, cores), cycles)
}

// fingerprint hashes the canonical description of one simulation into a
// stable hex key (also used as the on-disk entry name).
func fingerprint(kind string, cfg sim.Config, apps string, cycles int64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|apps=%s|cycles=%d|cfg=%s",
		keyVersion, kind, apps, cycles, configString(cfg))))
	return hex.EncodeToString(sum[:])
}
