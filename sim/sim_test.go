package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"masksim/internal/dram"
	"masksim/internal/memreq"
	"masksim/internal/workload"
)

func newStringReader(s string) *strings.Reader { return strings.NewReader(s) }

// tinyConfig shrinks the machine so integration tests run in milliseconds
// while keeping every component on the path.
func tinyConfig() Config {
	c := Baseline()
	c.Cores = 4
	c.WarpsPerCore = 16
	return c
}

func tinyRun(t *testing.T, cfg Config, names []string, cycles int64) *Results {
	t.Helper()
	res, err := Run(context.Background(), cfg, names, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bads := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = maxCores + 1 },
		func(c *Config) { c.WarpsPerCore = 0 },
		func(c *Config) { c.L1TLBEntries = 0 },
		func(c *Config) { c.L2TLBWays = 0 },
		func(c *Config) { c.PageSize = 1234 },
		func(c *Config) { c.DRAM.Channels = 0 },
		func(c *Config) { c.TelemetryEpoch = -1 },
		func(c *Config) { c.TimeMuxQuantum = -5 },
		func(c *Config) { c.TimeMuxEvict = 1.5 },
		func(c *Config) { c.TokenInitFraction = -0.1 },
		func(c *Config) { c.WatchdogCheckEvery = -1 },
		func(c *Config) { c.DemandPaging = true; c.FaultLatency = 0 },
		func(c *Config) { c.DemandPaging = true; c.FaultConcurrency = 0 },
	}
	for i, mut := range bads {
		c := Baseline()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
	good := Baseline()
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
}

func TestNewRejectsBadAssignments(t *testing.T) {
	apps := []workload.App{workload.NewApp(0, "NN")}
	if _, err := New(tinyConfig(), apps, []int{99}); err == nil {
		t.Fatal("over-assignment accepted")
	}
	if _, err := New(tinyConfig(), apps, []int{0}); err == nil {
		t.Fatal("zero-core assignment accepted")
	}
	if _, err := New(tinyConfig(), apps, []int{1, 1}); err == nil {
		t.Fatal("mismatched assignment accepted")
	}
	if _, err := New(tinyConfig(), nil, nil); err == nil {
		t.Fatal("empty app list accepted")
	}
}

func TestMaskRequiresSharedTLBDesign(t *testing.T) {
	c := tinyConfig()
	c.Design = DesignPWCache
	c.Mask.Tokens = true
	apps := []workload.App{workload.NewApp(0, "NN")}
	if _, err := New(c, apps, []int{4}); err == nil {
		t.Fatal("MASK on PWCache design accepted")
	}
}

// TestValidateRejectsIgnoredCombinations has one row per combination of the
// design-space fields the simulator once accepted and silently ignored (or
// settled by precedence): each is now either impossible to spell, because
// one Design or DRAMPolicy value replaces two flags, or rejected by Validate
// with an error naming both fields. New must reject it too.
func TestValidateRejectsIgnoredCombinations(t *testing.T) {
	ideal := func(c *Config) { c.Design = DesignIdeal }
	cases := []struct {
		name string
		mut  func(*Config) // nil: no Config spells the combination
		want string
	}{
		{"Ideal with PWCache", nil, ""},
		{"Ideal with Tokens", func(c *Config) { ideal(c); c.Mask.Tokens = true }, "Mask.Tokens requires Design SharedTLB, got Design Ideal"},
		{"Ideal with L2Bypass", func(c *Config) { ideal(c); c.Mask.L2Bypass = true }, "Mask.L2Bypass requires Design SharedTLB, got Design Ideal"},
		{"Ideal with MASK DRAM", func(c *Config) { ideal(c); c.DRAMPolicy = dram.MASK }, "DRAMPolicy MASK requires Design SharedTLB, got Design Ideal"},
		{"Ideal with TLBPrefetch", func(c *Config) { ideal(c); c.TLBPrefetch = true }, "TLBPrefetch requires Design SharedTLB, got Design Ideal"},
		{"Ideal with DemandPaging", func(c *Config) { ideal(c); c.DemandPaging = true }, "DemandPaging faults on page walks, which Design Ideal never makes"},
		{"Ideal with Static", nil, ""},
		{"PWCache with TLBPrefetch", func(c *Config) { c.Design = DesignPWCache; c.TLBPrefetch = true }, "TLBPrefetch requires Design SharedTLB, got Design PWCache"},
		{"PWCache with Static", nil, ""},
		{"Static with MASK", func(c *Config) { *c = MASKConfig(); c.Design = DesignStatic }, "Mask.Tokens requires Design SharedTLB, got Design Static"},
		{"FCFS with MASK DRAM", nil, ""},
	}
	apps := []workload.App{workload.NewApp(0, "NN")}
	for _, tc := range cases {
		if tc.mut == nil {
			continue
		}
		c := tinyConfig()
		tc.mut(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := New(c, apps, []int{1}); err == nil {
			t.Errorf("%s: New accepted it", tc.name)
		}
	}
	for name := range standardConfigs {
		cfg, _ := ConfigByName(name)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []func(*Config){
		func(c *Config) { c.Design = DesignIdeal + 1 },
		func(c *Config) { c.DRAMPolicy = dram.MASK + 1 },
	} {
		c := Baseline()
		bad(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("out-of-range value: Validate = %v", err)
		}
	}
}

func TestAlonePlatform(t *testing.T) {
	for _, name := range ConfigNames() {
		cfg, _ := ConfigByName(name)
		got := AlonePlatform(cfg)
		if got.Design != DesignSharedTLB || got.Mask != (Mechanisms{}) || got.DRAMPolicy != dram.FRFCFS {
			t.Errorf("%s: alone platform %v/%+v/%v", name, got.Design, got.Mask, got.DRAMPolicy)
		}
	}
	fcfs := PWCacheConfig()
	fcfs.DRAMPolicy = dram.FCFS
	if got := AlonePlatform(fcfs); got.Design != DesignSharedTLB || got.DRAMPolicy != dram.FCFS {
		t.Errorf("FCFS PWCache: alone platform %v/%v, want SharedTLB/FCFS", got.Design, got.DRAMPolicy)
	}
}

func TestEvenSplit(t *testing.T) {
	cases := []struct {
		cores, n int
		want     []int
	}{
		{30, 2, []int{15, 15}},
		{30, 4, []int{8, 8, 7, 7}},
		{5, 3, []int{2, 2, 1}},
	}
	for _, c := range cases {
		got := EvenSplit(c.cores, c.n)
		total := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("EvenSplit(%d,%d)=%v, want %v", c.cores, c.n, got, c.want)
			}
			total += got[i]
		}
		if total != c.cores {
			t.Fatalf("split loses cores: %v", got)
		}
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range ConfigNames() {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Name != name {
			t.Fatalf("config %q has name %q", name, cfg.Name)
		}
	}
	if _, err := ConfigByName("bogus"); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() *Results { return tinyRun(t, tinyConfig(), []string{"3DS", "CONS"}, 3000) }
	a, b := run(), run()
	if a.TotalIPC != b.TotalIPC {
		t.Fatalf("replay diverged: %v vs %v", a.TotalIPC, b.TotalIPC)
	}
	for i := range a.Apps {
		if a.Apps[i].Instructions != b.Apps[i].Instructions {
			t.Fatalf("app %d instructions diverged", i)
		}
	}
	if a.Walker.Completed != b.Walker.Completed {
		t.Fatal("walker stats diverged")
	}
}

func TestSimulatorSingleUse(t *testing.T) {
	apps := []workload.App{workload.NewApp(0, "NN")}
	s, err := New(tinyConfig(), apps, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), 100); err == nil {
		t.Fatal("second Run did not error")
	}
}

func TestRunRejectsNonPositiveCycles(t *testing.T) {
	apps := []workload.App{workload.NewApp(0, "NN")}
	s, err := New(tinyConfig(), apps, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), 0); err == nil {
		t.Fatal("zero-cycle run accepted")
	}
	// The rejected run must not consume the simulator.
	if _, err := s.Run(context.Background(), 100); err != nil {
		t.Fatalf("valid run after rejected one failed: %v", err)
	}
}

func TestAccountingInvariants(t *testing.T) {
	res := tinyRun(t, tinyConfig(), []string{"3DS", "HISTO"}, 4000)
	if res.Cycles != 4000 {
		t.Fatalf("cycles=%d", res.Cycles)
	}
	for _, a := range res.Apps {
		if a.Instructions == 0 {
			t.Fatalf("app %s issued nothing", a.Name)
		}
		l1 := a.L1TLB
		if l1.Hits+l1.Misses != l1.Accesses {
			t.Fatalf("%s L1 TLB hits+misses != accesses: %+v", a.Name, l1)
		}
		l2 := a.L2TLB
		if l2.Hits+l2.Misses > l2.Accesses {
			t.Fatalf("%s L2 TLB overcounts: %+v", a.Name, l2)
		}
	}
	if res.IdleFraction < 0 || res.IdleFraction > 1 {
		t.Fatalf("idle fraction %v", res.IdleFraction)
	}
	if res.Walker.Completed > res.Walker.Started {
		t.Fatalf("walker completed %d > started %d", res.Walker.Completed, res.Walker.Started)
	}
}

func TestIdealHasNoTranslationActivity(t *testing.T) {
	cfg := tinyConfig()
	cfg.Design = DesignIdeal
	res := tinyRun(t, cfg, []string{"3DS"}, 3000)
	if res.Walker.Started != 0 {
		t.Fatal("Ideal design started page walks")
	}
	if res.Apps[0].L1TLB.Accesses != 0 {
		t.Fatal("Ideal design touched the L1 TLB")
	}
	if res.DRAMClass[memreq.Translation].Requests != 0 {
		t.Fatal("Ideal design sent translation traffic to DRAM")
	}
}

func TestIdealBeatsBaselineOnContendedPair(t *testing.T) {
	cfg := tinyConfig()
	base := tinyRun(t, cfg, []string{"3DS", "CONS"}, 6000)
	cfg.Design = DesignIdeal
	ideal := tinyRun(t, cfg, []string{"3DS", "CONS"}, 6000)
	if ideal.TotalIPC <= base.TotalIPC {
		t.Fatalf("Ideal (%v) not faster than baseline (%v)", ideal.TotalIPC, base.TotalIPC)
	}
}

func TestPWCacheDesignRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Design = DesignPWCache
	res := tinyRun(t, cfg, []string{"3DS", "HISTO"}, 3000)
	if res.Walker.Started == 0 {
		t.Fatal("PWCache design never walked")
	}
	// No shared L2 TLB in this design.
	if res.L2TLBTotal.Accesses != 0 {
		t.Fatal("PWCache design recorded shared-TLB accesses")
	}
}

func TestStaticPartitioningConfinesFrames(t *testing.T) {
	cfg := tinyConfig()
	cfg.Design = DesignStatic
	apps := []workload.App{workload.NewApp(0, "NN"), workload.NewApp(1, "LUD")}
	s, err := New(cfg, apps, EvenSplit(cfg.Cores, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Every mapped frame of app 0 must live in app 0's channel partition.
	chans := channelPartition(cfg.DRAM.Channels, 2, 0)
	sp := s.spaces[0]
	for vpn := uint64(0); vpn < 4; vpn++ {
		va := uint64(2)<<32 + vpn<<12
		if pa, ok := sp.Translate(va); ok {
			if !chans[s.mem.ChannelOfFrame(pa>>12)] {
				t.Fatalf("app 0 frame %#x outside its channel partition", pa>>12)
			}
		}
	}
	if _, err := s.Run(context.Background(), 1500); err != nil {
		t.Fatal(err)
	}
}

func Test2MBPageRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.PageSize = 2 << 20
	res := tinyRun(t, cfg, []string{"MM", "CONS"}, 3000)
	if res.TotalIPC <= 0 {
		t.Fatal("2MB-page run made no progress")
	}
	// 2MB pages walk three levels, so level-4 stats must stay empty.
	if res.L2CacheLevel[4].Accesses != 0 {
		t.Fatal("2MB pages produced level-4 walk accesses")
	}
}

func TestThreeAppRun(t *testing.T) {
	res := tinyRun(t, tinyConfig(), []string{"3DS", "HISTO", "NN"}, 3000)
	if len(res.Apps) != 3 {
		t.Fatalf("%d app results", len(res.Apps))
	}
	for _, a := range res.Apps {
		if a.IPC <= 0 {
			t.Fatalf("app %s made no progress", a.Name)
		}
	}
}

func TestMASKConfigRunsAllMechanisms(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mask = Mechanisms{Tokens: true, L2Bypass: true}
	cfg.DRAMPolicy = dram.MASK
	res := tinyRun(t, cfg, []string{"3DS", "CONS"}, 6000)
	if res.TotalIPC <= 0 {
		t.Fatal("MASK run made no progress")
	}
}

func TestFCFSSchedulerOption(t *testing.T) {
	cfg := tinyConfig()
	cfg.DRAMPolicy = dram.FCFS
	res := tinyRun(t, cfg, []string{"MM", "CONS"}, 3000)
	if res.TotalIPC <= 0 {
		t.Fatal("FCFS run made no progress")
	}
}

func TestTimeMuxSlowsExecution(t *testing.T) {
	cfg := tinyConfig()
	base := tinyRun(t, cfg, []string{"MM"}, 6000)
	cfg.TimeMuxQuantum = 500
	cfg.TimeMuxEvict = 1.0
	muxed := tinyRun(t, cfg, []string{"MM"}, 6000)
	if muxed.TotalIPC >= base.TotalIPC {
		t.Fatalf("full state loss did not slow execution (%v vs %v)",
			muxed.TotalIPC, base.TotalIPC)
	}
}

// TestTimeMuxDeterministic pins that a partial time-multiplexing flush picks
// the same victims on every run: the L1 TLB's FlushFraction once chose them
// by map iteration order, so two runs of one fig1 cell disagreed on
// instruction counts.
func TestTimeMuxDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.TimeMuxQuantum = 500
	cfg.TimeMuxEvict = 0.24
	a := tinyRun(t, cfg, []string{"MM"}, 6000)
	b := tinyRun(t, cfg, []string{"MM"}, 6000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of one time-multiplexed config differ:\n%s",
			diffLines(driftFingerprint(a), driftFingerprint(b)))
	}
}

func TestRunAloneUsesRequestedCores(t *testing.T) {
	res, err := RunAlone(context.Background(), tinyConfig(), "NN", 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].Cores != 2 {
		t.Fatalf("alone run used %d cores, want 2", res.Apps[0].Cores)
	}
	if _, err := RunAlone(context.Background(), tinyConfig(), "NN", 0, 2000); err == nil {
		t.Fatal("zero-core alone run accepted")
	}
}

func TestMetricsBridge(t *testing.T) {
	res := tinyRun(t, tinyConfig(), []string{"NN", "LUD"}, 2000)
	alone := []float64{res.Apps[0].IPC, res.Apps[1].IPC}
	m := res.Metrics(alone)
	if m.WeightedSpeedup < 1.99 || m.WeightedSpeedup > 2.01 {
		t.Fatalf("self-normalized WS=%v, want 2", m.WeightedSpeedup)
	}
	if m.Unfairness < 0.99 || m.Unfairness > 1.01 {
		t.Fatalf("self-normalized unfairness=%v, want 1", m.Unfairness)
	}
}

func TestResultsStringAndLookup(t *testing.T) {
	res := tinyRun(t, tinyConfig(), []string{"3DS", "HISTO"}, 2000)
	if s := res.String(); len(s) == 0 {
		t.Fatal("empty String()")
	}
	if res.Apps[0].Name != "3DS" || res.Apps[1].Name != "HISTO" {
		t.Fatalf("apps %q, %q, want 3DS, HISTO in request order", res.Apps[0].Name, res.Apps[1].Name)
	}
	if got := res.IPCs(); len(got) != 2 {
		t.Fatal("IPCs length")
	}
}

func TestWayMasksCoverAllWays(t *testing.T) {
	for _, tc := range []struct{ ways, apps int }{{16, 2}, {16, 3}, {4, 5}} {
		masks := wayMasks(tc.ways, tc.apps)
		var union uint64
		for _, m := range masks {
			if m == 0 {
				t.Fatalf("ways=%d apps=%d: empty mask", tc.ways, tc.apps)
			}
			union |= m
		}
		if tc.apps <= tc.ways && union != (uint64(1)<<uint(tc.ways))-1 {
			t.Fatalf("ways=%d apps=%d: union %#x does not cover all ways", tc.ways, tc.apps, union)
		}
	}
}

func TestDemandPagingSlowsColdStart(t *testing.T) {
	cfg := tinyConfig()
	base := tinyRun(t, cfg, []string{"MM"}, 4000)
	cfg.DemandPaging = true
	cfg.FaultLatency = 5000
	cfg.TelemetryEpoch = 1000
	paged := tinyRun(t, cfg, []string{"MM"}, 4000)
	if paged.Faults.Faults == 0 {
		t.Fatal("demand paging raised no faults")
	}
	// Every fault takes 5000 cycles, so the first one is still outstanding at
	// the first epoch boundary.
	tel := paged.Telemetry
	if col := tel.ColumnIndex("faults/outstanding"); col < 0 || tel.Samples[0].Values[col] < 1 {
		t.Fatal("telemetry shows no fault outstanding at cycle 1000")
	}
	if paged.TotalIPC >= base.TotalIPC {
		t.Fatalf("cold start with faults not slower (%v vs %v)", paged.TotalIPC, base.TotalIPC)
	}
}

// TestTraceSampling checks the time series a token-enabled pair produces: one
// sample on every epoch boundary, one token column per app and no more, and a
// shared-TLB miss rate in [0,1].
func TestTraceSampling(t *testing.T) {
	cfg := tinyConfig()
	cfg.TelemetryEpoch = 500
	cfg.Mask.Tokens = true
	res := tinyRun(t, cfg, []string{"3DS", "CONS"}, 3000)
	tel := res.Telemetry
	if tel == nil || len(tel.Samples) < 5 {
		t.Fatalf("telemetry %v, want >=5 samples", tel)
	}
	tokens := []int{tel.ColumnIndex("app0/tokens"), tel.ColumnIndex("app1/tokens")}
	if tokens[0] < 0 || tokens[1] < 0 || tel.ColumnIndex("app2/tokens") >= 0 {
		t.Fatalf("token columns at %v (app2 at %d), want one per app", tokens, tel.ColumnIndex("app2/tokens"))
	}
	miss := tel.ColumnIndex("l2tlb/miss_rate")
	if miss < 0 {
		t.Fatal("no l2tlb/miss_rate column")
	}
	for i, s := range tel.Samples {
		if s.Cycle != int64(500*(i+1)) {
			t.Fatalf("sample %d at cycle %d", i, s.Cycle)
		}
		if r := s.Values[miss]; r < 0 || r > 1 {
			t.Fatalf("sample %d: l2tlb/miss_rate %g outside [0,1]", i, r)
		}
		for app, col := range tokens {
			if s.Values[col] < 0 {
				t.Fatalf("sample %d: app %d holds %g tokens", i, app, s.Values[col])
			}
		}
	}
}

func TestRoundRobinScheduler(t *testing.T) {
	cfg := tinyConfig()
	cfg.RoundRobinSched = true
	res := tinyRun(t, cfg, []string{"3DS", "HISTO"}, 3000)
	if res.TotalIPC <= 0 {
		t.Fatal("round-robin run made no progress")
	}
}

func TestChannelPartitionCoversChannels(t *testing.T) {
	for _, tc := range []struct{ channels, apps int }{{8, 2}, {8, 3}, {6, 4}, {2, 5}} {
		covered := make([]bool, tc.channels)
		for app := 0; app < tc.apps; app++ {
			set := channelPartition(tc.channels, tc.apps, app)
			any := false
			for ch, ok := range set {
				if ok {
					covered[ch] = true
					any = true
				}
			}
			if !any {
				t.Fatalf("channels=%d apps=%d: app %d got no channels", tc.channels, tc.apps, app)
			}
		}
		if tc.channels >= tc.apps {
			for ch, ok := range covered {
				if !ok {
					t.Fatalf("channels=%d apps=%d: channel %d unassigned", tc.channels, tc.apps, ch)
				}
			}
		}
	}
}

func TestFermiAndIntegratedConfigsRun(t *testing.T) {
	for _, name := range []string{"Fermi", "Integrated"} {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cores = 4
		cfg.WarpsPerCore = 8
		res := tinyRun(t, cfg, []string{"3DS", "HISTO"}, 2000)
		if res.TotalIPC <= 0 {
			t.Fatalf("%s made no progress", name)
		}
	}
}

func TestStaticVsSharedOrdering(t *testing.T) {
	// Static partitioning must not beat full sharing for complementary
	// low-contention apps (the paper's core argument against GRID-style
	// partitioning, §2.2).
	shared := tinyRun(t, tinyConfig(), []string{"NN", "LUD"}, 4000)
	cfg := tinyConfig()
	cfg.Design = DesignStatic
	static := tinyRun(t, cfg, []string{"NN", "LUD"}, 4000)
	if static.TotalIPC > shared.TotalIPC*1.05 {
		t.Fatalf("Static (%v) beats full sharing (%v) by >5%%", static.TotalIPC, shared.TotalIPC)
	}
}

func TestStallAnatomyAccounting(t *testing.T) {
	res := tinyRun(t, tinyConfig(), []string{"3DS", "CONS"}, 5000)
	if res.TransStallCycles == 0 {
		t.Fatal("no translation stall time recorded on a TLB-hungry pair")
	}
	if res.DataStallCycles == 0 {
		t.Fatal("no data stall time recorded")
	}
	cfg := tinyConfig()
	cfg.Design = DesignIdeal
	ideal := tinyRun(t, cfg, []string{"3DS", "CONS"}, 5000)
	if ideal.TransStallCycles != 0 {
		t.Fatal("Ideal recorded translation stall time")
	}
}

func TestTLBPrefetchConfigRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.TLBPrefetch = true
	res := tinyRun(t, cfg, []string{"HISTO", "NW"}, 8000)
	if res.TotalIPC <= 0 {
		t.Fatal("prefetch run made no progress")
	}
	// At this tiny scale revisited page sequences are rare, so only the
	// run's liveness and accounting are asserted; ext-prefetch evaluates
	// the predictor at full scale.
	if res.Prefetch.Useful > res.Prefetch.Issued {
		t.Fatalf("useful (%d) exceeds issued (%d)", res.Prefetch.Useful, res.Prefetch.Issued)
	}
}

func TestTraceDrivenApp(t *testing.T) {
	const trace = `
warp 0
r 0x100000 0x100040
c 3
w 0x200000
warp 1
r 0x300000
c 5
`
	ts, err := workload.ParseTrace("demo", newStringReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	apps := []workload.App{{ID: 0, Trace: ts}}
	s, err := New(cfg, apps, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].Name != "demo" {
		t.Fatalf("trace app named %q", res.Apps[0].Name)
	}
	if res.Apps[0].Instructions == 0 {
		t.Fatal("trace-driven app made no progress")
	}
	if res.Apps[0].MemInsts == 0 {
		t.Fatal("trace-driven app issued no memory instructions")
	}
}
