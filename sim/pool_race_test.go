package sim

import (
	"context"
	"sync"
	"testing"
)

// TestConcurrentSimulatorsShareNothing runs several simulators in parallel
// and checks each produces the exact results of a sequential run. Request and
// walk pools are per-simulator by construction; under `go test -race` this
// test proves no pooled object (or anything else) is shared across instances,
// and the fingerprint comparison proves pooling stays deterministic when the
// scheduler interleaves the runs. A second pass draws every simulator from one
// shared Recycler, three rounds each, so simulators migrate between goroutines
// and designs: a recycled simulator is only ever one goroutine's at a time.
func TestConcurrentSimulatorsShareNothing(t *testing.T) {
	type job struct {
		cfg   Config
		names []string
	}
	jobs := []job{
		{MASKConfig(), []string{"3DS", "CONS"}},
		{SharedTLBConfig(), []string{"MUM", "GUP"}},
		{PWCacheConfig(), []string{"3DS", "CONS"}},
		{MASKConfig(), []string{"RED", "BP"}},
	}
	const cycles = 3000

	want := make([]string, len(jobs))
	for i, j := range jobs {
		res, err := Run(context.Background(), j.cfg, j.names, cycles)
		if err != nil {
			t.Fatalf("sequential run %d: %v", i, err)
		}
		want[i] = driftFingerprint(res)
	}

	for _, pass := range []struct {
		name   string
		r      *Recycler
		rounds int
	}{{"new", new(Recycler), 1}, {"recycled", new(Recycler), 3}} {
		got := make([]string, len(jobs))
		errs := make([]error, len(jobs))
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				for round := 0; round < pass.rounds; round++ {
					s, err := pass.r.Prepare(j.cfg, j.names)
					if err != nil {
						errs[i] = err
						return
					}
					res, err := s.Run(context.Background(), cycles)
					if err != nil {
						errs[i] = err
						return
					}
					pass.r.Put(s)
					got[i] = driftFingerprint(res)
				}
			}(i, j)
		}
		wg.Wait()

		for i := range jobs {
			if errs[i] != nil {
				t.Fatalf("%s: concurrent run %d: %v", pass.name, i, errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("%s: run %d: concurrent results differ from sequential:\n--- sequential\n%s\n--- concurrent\n%s",
					pass.name, i, want[i], got[i])
			}
		}
	}
}
