package maskd

// The request/job layer. A job is one submission: a set of named experiments
// and/or raw simulation specs. Each unit of the submission is a cell; cells
// run concurrently, each under its own harness, but every harness shares the
// server-wide result cache (machine-wide single-flight) and the fair limiter
// (machine-wide execution budget), so two jobs requesting the same simulation
// execute it exactly once regardless of tenant.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"masksim/internal/experiments"
	"masksim/internal/metrics"
	"masksim/sim"
)

// SimSpec names one raw simulation: a standard configuration, a set of
// applications, and a cycle budget.
type SimSpec struct {
	// Config is a standard configuration name (sim.ConfigNames).
	Config string `json:"config"`
	// Apps are workload names; one per app sharing the GPU.
	Apps []string `json:"apps"`
	// Cycles is the simulated length (0 = the job default).
	Cycles int64 `json:"cycles,omitempty"`
	// Alone runs Apps[0] uncontended on Cores cores instead of sharing.
	Alone bool `json:"alone,omitempty"`
	// Cores is the alone-run core count (Alone only; 0 = all cores).
	Cores int `json:"cores,omitempty"`
	// TelemetryEpoch, when positive, streams the cell's telemetry live: the
	// simulation samples its probes every TelemetryEpoch cycles and each
	// closing epoch is relayed on the job's SSE feed as an `event: telemetry`
	// frame. A streaming cell always executes — the shared result cache is
	// bypassed, since a cache hit would skip the run the stream observes.
	TelemetryEpoch int64 `json:"telemetryEpoch,omitempty"`
}

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Experiments lists experiment IDs (maskexp -list) to run as cells.
	Experiments []string `json:"experiments,omitempty"`
	// Sims lists raw simulations to run as cells.
	Sims []SimSpec `json:"sims,omitempty"`
	// Cycles is the per-run cycle budget (default 50000, as maskexp).
	Cycles int64 `json:"cycles,omitempty"`
	// Full selects the all-pairs variant of figure-11-class experiments.
	Full bool `json:"full,omitempty"`
}

// CellState is the lifecycle of one cell.
type CellState string

const (
	CellQueued   CellState = "queued"
	CellRunning  CellState = "running"
	CellDone     CellState = "done"
	CellFailed   CellState = "failed"
	CellCanceled CellState = "canceled"
)

// CellStatus reports one cell of a job.
type CellStatus struct {
	// Name identifies the cell: the experiment ID, or "sim:<config>/<apps>".
	Name string `json:"name"`
	// Kind is "experiment" or "sim".
	Kind  string    `json:"kind"`
	State CellState `json:"state"`
	// CacheHit is true when the cell completed without executing a single
	// simulation — every constituent run came from the shared cache (memory,
	// disk, or another job's in-flight execution).
	CacheHit bool `json:"cacheHit"`
	// Executed counts the simulations this cell actually executed (its cache
	// misses); Requests the simulations it asked for.
	Executed uint64 `json:"executed"`
	Requests uint64 `json:"requests"`
	// Tables holds the rendered result tables of an experiment cell,
	// byte-identical to local maskexp output.
	Tables []string `json:"tables,omitempty"`
	// Results is the raw outcome of a sim cell.
	Results *sim.Results `json:"results,omitempty"`
	// Error is the cell failure, if any.
	Error string `json:"error,omitempty"`
}

// JobState is the lifecycle of a job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// JobStatus is the wire representation of a job, returned by submit and by
// every poll. Version increments on every state change; long-polls pass it
// back as ?since=V to block until something changed.
type JobStatus struct {
	ID      string       `json:"id"`
	Tenant  string       `json:"tenant"`
	State   JobState     `json:"state"`
	Version uint64       `json:"version"`
	Cells   []CellStatus `json:"cells"`
	// Stats aggregates the job's run accounting (cache counters are
	// server-wide and reported on /v1/stats instead).
	Stats metrics.RunStats `json:"stats"`
}

// Terminal reports whether the job has finished (no further updates).
func (s *JobStatus) Terminal() bool {
	switch s.State {
	case JobDone, JobFailed, JobCanceled:
		return true
	}
	return false
}

// job is the server-side runtime state of one submission.
type job struct {
	tenant  string // status.Tenant, read without the lock
	mu      sync.Mutex
	status  JobStatus
	waiters []chan struct{}
	// cancel cancels the context of the job's cells; nil for a job the
	// submit settled, which has nothing running.
	cancel context.CancelFunc

	// feeds holds one telemetry ring per cell (nil for cells that do not
	// stream). The slice is built at submit time and never resized, so SSE
	// handlers read it without the job lock.
	feeds []*telemetryFeed
}

// update applies f under the lock, bumps the version and wakes every waiter.
func (j *job) update(f func(*JobStatus)) {
	j.mu.Lock()
	f(&j.status)
	j.status.Version++
	waiters := j.waiters
	j.waiters = nil
	j.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
}

// stop cancels the job's running cells, if any.
func (j *job) stop() {
	if j.cancel != nil {
		j.cancel()
	}
}

// snapshot returns a deep-enough copy for serialization: the cell slice is
// cloned so concurrent updates never race the JSON encoder.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.status
	s.Cells = append([]CellStatus(nil), j.status.Cells...)
	return s
}

// await blocks until the job's version exceeds since, the timeout elapses, or
// ctx is done, and returns the current snapshot.
func (j *job) await(ctx context.Context, since uint64, timeout time.Duration) JobStatus {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		j.mu.Lock()
		if j.status.Version > since || j.status.Terminal() && j.status.Version >= since {
			s := j.status
			s.Cells = append([]CellStatus(nil), j.status.Cells...)
			j.mu.Unlock()
			return s
		}
		w := make(chan struct{})
		j.waiters = append(j.waiters, w)
		j.mu.Unlock()
		select {
		case <-w:
		case <-deadline.C:
			return j.snapshot()
		case <-ctx.Done():
			return j.snapshot()
		}
	}
}

// cellName labels a sim cell.
func cellName(spec SimSpec) string {
	name := fmt.Sprintf("sim:%s/%v", spec.Config, spec.Apps)
	if spec.Alone {
		name = fmt.Sprintf("alone:%s/%s/%d", spec.Config, spec.Apps[0], spec.Cores)
	}
	return name
}

// validate rejects malformed submissions before a job is created.
func (r *SubmitRequest) validate() error {
	if len(r.Experiments) == 0 && len(r.Sims) == 0 {
		return fmt.Errorf("empty job: no experiments and no sims")
	}
	for _, id := range r.Experiments {
		if experiments.Describe(id) == "" {
			return fmt.Errorf("unknown experiment %q", id)
		}
	}
	for i, spec := range r.Sims {
		if _, err := sim.ConfigByName(spec.Config); err != nil {
			return fmt.Errorf("sim %d: %v", i, err)
		}
		if len(spec.Apps) == 0 {
			return fmt.Errorf("sim %d: no apps", i)
		}
		if spec.Alone && len(spec.Apps) != 1 {
			return fmt.Errorf("sim %d: alone runs take exactly one app", i)
		}
		if spec.TelemetryEpoch < 0 {
			return fmt.Errorf("sim %d: negative telemetryEpoch %d", i, spec.TelemetryEpoch)
		}
	}
	return nil
}

// runOnly strips the shared-cache counters from s: per-job stats report what
// the job requested (CacheRequests is harness-local) and ran; the shared
// cache's hit/miss breakdown is machine-wide and reported on /v1/stats.
func runOnly(s metrics.RunStats) metrics.RunStats {
	s.CacheHits = 0
	s.CacheInflightWaits = 0
	s.CacheMisses = 0
	s.DiskHits = 0
	s.RemoteHits = 0
	s.RemotePuts = 0
	s.RemoteErrors = 0
	return s
}
