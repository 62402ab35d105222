package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// censusClass says what becomes of one field of a component across a
// checkpoint (docs/MODEL.md §9).
type censusClass int

const (
	// imaged: the field is the image struct, or its holder writes it.
	imaged censusClass = iota + 1
	// recomputed: restore rebuilds it; the entry names the function that
	// does.
	recomputed
	// machine: built from the Machine — configuration, neighbours, pools,
	// routes, hooks — by the constructors, on both sides of a checkpoint.
	machine
	// buffer: free lists, scratch, capacity; no state.
	buffer
)

type censusEntry struct {
	class censusClass
	by    string // recomputed: "<Recv>.<Method>" or "<package>.<Func>" that recomputes the field
}

var (
	img  = censusEntry{class: imaged}
	mach = censusEntry{class: machine}
	buf  = censusEntry{class: buffer}
)

func recomp(by string) censusEntry { return censusEntry{recomputed, by} }

// censusImages are the structs a checkpoint writes as they are: every
// exported field is written, so only an unexported field needs an entry in
// stateCensus. Keys are "<package>.<Type>".
var censusImages = map[string]bool{
	"cache.ATAState":          true,
	"cache.Counters":          true,
	"cache.Line":              true,
	"cache.Stats":             true,
	"dram.Bank":               true,
	"dram.ClassCounters":      true,
	"dram.SilverTurn":         true,
	"engine.ClockState":       true,
	"engine.WatchdogState":    true,
	"gpu.Stats":               true,
	"gpu.Warp":                true,
	"memreq.PageKey":          true,
	"memreq.Request":          true,
	"metrics.Histogram":       true,
	"ptw.Fault":               true,
	"ptw.FaultStats":          true,
	"ptw.HeldWalk":            true,
	"ptw.PendingFault":        true,
	"ptw.Stats":               true,
	"ptw.Walk":                true,
	"telemetry.ProbeState":    true,
	"telemetry.Sample":        true,
	"tlb.AppTLBCounters":      true,
	"tlb.AppTLBStats":         true,
	"tlb.Entry":               true,
	"tlb.L1Stats":             true,
	"tlb.L2Entry":             true,
	"tlb.PrefetchStats":       true,
	"tlb.TokenState":          true,
	"tlb.WaiterState":         true,
	"workload.GroupSyncState": true,
}

// stateCensus classifies every field of every component struct a Simulator
// holds, keyed "<package>.<Type>.<field>" (a generic type without its type
// arguments). Only imaged fields are followed into the structs they hold:
// configuration, neighbours and buffers are built, and a recomputed field is
// rebuilt whole.
var stateCensus = map[string]censusEntry{
	"sim.Simulator.cfg":         mach,
	"sim.Simulator.eng":         img,
	"sim.Simulator.apps":        mach,
	"sim.Simulator.coresPerApp": mach,
	"sim.Simulator.alloc":       mach, // page tables: build maps every page
	"sim.Simulator.spaces":      mach,
	"sim.Simulator.l1dNames":    mach,
	"sim.Simulator.cores":       img,
	"sim.Simulator.l1tlbs":      img,
	"sim.Simulator.l1ds":        img,
	"sim.Simulator.l2tlb":       img,
	"sim.Simulator.walker":      img,
	"sim.Simulator.faults":      img,
	"sim.Simulator.pwc":         img,
	"sim.Simulator.l2c":         img,
	"sim.Simulator.mem":         img,
	"sim.Simulator.ata":         img,
	"sim.Simulator.tokens":      img, // written by the L2 TLB's image
	"sim.Simulator.reqPool":     mach,
	"sim.Simulator.tel":         img,
	"sim.Simulator.epoch":       recomp("Simulator.Run"),
	"sim.Simulator.ran":         recomp("Simulator.Run"),
	"sim.Simulator.clean":       recomp("Simulator.Run"),
	"sim.Simulator.ckptStats":   recomp("Simulator.restoreDecoded"),
	"sim.Simulator.totalCycles": img, // the envelope header's TotalCycles
	"sim.Simulator.fp":          recomp("Simulator.Fingerprint"),
	"sim.Simulator.curWD":       img,
	"sim.Simulator.restored":    recomp("Simulator.restoreDecoded"),
	"sim.Simulator.restoredWD":  img,

	"engine.Engine.now":         recomp("Engine.SetClock"),
	"engine.Engine.clock":       img,
	"engine.Engine.tickers":     mach,
	"engine.Engine.sources":     mach,
	"engine.Engine.skippers":    mach,
	"engine.Engine.allSources":  mach,
	"engine.Engine.fastForward": mach,
	"engine.Engine.ckptEvery":   mach,
	"engine.Engine.ckptFn":      mach,

	"engine.Watchdog.CheckEvery":  mach,
	"engine.Watchdog.StallChecks": mach,
	"engine.Watchdog.progress":    mach,
	"engine.Watchdog.diags":       mach,
	"engine.Watchdog.sink":        mach,
	"engine.Watchdog.state":       img,

	"engine.Queue.n":       img,
	"engine.Queue.cap":     mach,
	"engine.Queue.latency": mach,
	"engine.Queue.head":    recomp("engine.RestoreQueue"),
	"engine.Queue.plain":   img,
	"engine.Queue.timed":   img,
	"engine.queued.ready":  img,
	"engine.queued.v":      img,

	"gpu.Core.id":        mach,
	"gpu.Core.appID":     mach,
	"gpu.Core.cfg":       mach,
	"gpu.Core.space":     mach,
	"gpu.Core.warps":     img,
	"gpu.Core.current":   img,
	"gpu.Core.translate": mach,
	"gpu.Core.l1d":       mach,
	"gpu.Core.pool":      mach,
	"gpu.Core.route":     mach,
	"gpu.Core.retry":     img,
	"gpu.Core.ready":     recomp("Core.Recount"),
	"gpu.Core.waitTrans": recomp("Core.Recount"),
	"gpu.Core.waitData":  recomp("Core.Recount"),
	"gpu.Core.Stats":     img,

	"gpu.warp.Warp":             img,
	"gpu.warp.id":               mach,
	"gpu.warp.pendingTrans":     recomp("Core.Await"),
	"gpu.warp.inst":             img,
	"gpu.warp.stream":           img,
	"workload.MemInst.Pages":    img,
	"workload.MemInst.Write":    img,
	"workload.PageAccess.Lines": img,

	"workload.Stream.p":          mach,
	"workload.Stream.rnd":        img,
	"workload.Stream.scatterRnd": img,
	"workload.Stream.pageShift":  mach,
	"workload.Stream.lineSize":   mach,
	"workload.Stream.base":       mach,
	"workload.Stream.hotPages":   mach,
	"workload.Stream.privStart":  mach,
	"workload.Stream.privLen":    mach,
	"workload.Stream.totPages":   mach,
	"workload.Stream.curPage":    img,
	"workload.Stream.curLine":    img,
	"workload.Stream.sync":       img, // the payload's Syncs
	"workload.Stream.syncMember": mach,
	"workload.Stream.replay":     mach,
	"workload.Stream.replayPos":  img,
	"workload.Stream.replayGap":  img,
	"workload.Stream.lineStore":  buf,
	"workload.Stream.pageBuf":    buf,
	"rng.Source.state":           img,
	"workload.GroupSync.state":   img,
	"workload.GroupSync.min":     recomp("GroupSync.SetState"),
	"workload.GroupSync.window":  mach,

	"cache.Cache.cfg":         mach,
	"cache.Cache.lineShift":   mach,
	"cache.Cache.sets":        mach,
	"cache.Cache.lines":       img,
	"cache.Cache.backend":     mach,
	"cache.Cache.queues":      img,
	"cache.Cache.mshrs":       img,
	"cache.Cache.bypassMSHRs": img,
	"cache.Cache.retry":       img,
	"cache.Cache.pool":        mach,
	"cache.Cache.route":       mach,
	"cache.Cache.bypass":      mach,
	"cache.Cache.wayMask":     mach,
	"cache.Cache.combineCur":  img,
	"cache.Cache.combinePrev": img,
	"cache.Cache.counters":    img,

	"cache.ATABypass.cache":       mach,
	"cache.ATABypass.sampleEvery": mach,
	"cache.ATABypass.state":       img,

	"memreq.Request.life":   recomp("Wiring.Request"),
	"memreq.Trans.VPN":      img, // the key every holder names it by
	"memreq.Trans.Core":     img,
	"memreq.Trans.AppID":    recomp("Holders.Trans"),
	"memreq.Trans.ASID":     recomp("Holders.Trans"),
	"memreq.Trans.HasToken": img, // its L1 TLB miss writes it

	"tlb.L1TLB.coreID":  mach,
	"tlb.L1TLB.appID":   mach,
	"tlb.L1TLB.asid":    mach,
	"tlb.L1TLB.tab":     img,
	"tlb.L1TLB.backend": mach,
	"tlb.L1TLB.waker":   mach,
	"tlb.L1TLB.mshrs":   img,
	"tlb.L1TLB.pending": img,
	"tlb.L1TLB.Stats":   img,

	"mshr.Table.keys":    mach,
	"mshr.Table.limit":   mach,
	"mshr.Table.entries": img,
	"mshr.Table.buckets": recomp("Table.Restore"),
	"mshr.Table.segs":    img,
	"mshr.Table.carved":  recomp("Table.Restore"),
	"mshr.Table.free":    recomp("Table.Restore"),
	"mshr.entry.key":     img,
	"mshr.entry.payload": img,
	"mshr.entry.head":    recomp("Table.Restore"),
	"mshr.entry.tail":    recomp("Table.Restore"),
	"mshr.entry.n":       recomp("Table.Restore"),
	"mshr.entry.chain":   recomp("Table.Restore"),
	"mshr.node.w":        img,
	"mshr.node.next":     recomp("Table.Restore"),

	"tlb.assocLRU.slots":   img,
	"tlb.assocLRU.buckets": recomp("assocLRU.restore"),
	"tlb.assocLRU.end":     mach,
	"tlb.assocLRU.n":       recomp("assocLRU.restore"),
	"tlb.assocLRU.stamp":   img,
	"tlb.assocSlot.Entry":  img,
	"tlb.assocSlot.prev":   recomp("assocLRU.restore"),
	"tlb.assocSlot.next":   recomp("assocLRU.restore"),
	"tlb.assocSlot.chain":  recomp("assocLRU.restore"),

	"tlb.L2TLB.cfg":        mach,
	"tlb.L2TLB.sets":       mach,
	"tlb.L2TLB.lines":      img,
	"tlb.L2TLB.stamp":      img,
	"tlb.L2TLB.in":         img,
	"tlb.L2TLB.walker":     mach,
	"tlb.L2TLB.l1s":        mach,
	"tlb.L2TLB.mshrs":      img,
	"tlb.L2TLB.stalled":    img,
	"tlb.L2TLB.tokens":     img,
	"tlb.L2TLB.bypass":     img,
	"tlb.L2TLB.pf":         img,
	"tlb.L2TLB.pfMapped":   mach,
	"tlb.L2TLB.pfInFlight": img,
	"tlb.L2TLB.apps":       img,
	"tlb.L2TLB.wayMask":    mach,

	"tlb.TokenPolicy.enabled":      mach,
	"tlb.TokenPolicy.warpsPerCore": mach,
	"tlb.TokenPolicy.step":         mach,
	"tlb.TokenPolicy.state":        img,
	"tlb.bypassCache.tab":          img,
	"tlb.bypassCache.Accesses":     img,
	"tlb.bypassCache.Hits":         img,
	"tlb.Prefetcher.next":          img,
	"tlb.Prefetcher.order":         img,
	"tlb.Prefetcher.cap":           mach,
	"tlb.Prefetcher.last":          img,
	"tlb.Prefetcher.Stats":         img,

	"ptw.Walker.max":          mach,
	"ptw.Walker.backend":      mach,
	"ptw.Walker.sink":         mach,
	"ptw.Walker.spaces":       mach,
	"ptw.Walker.active":       img,
	"ptw.Walker.pending":      img,
	"ptw.Walker.pool":         mach,
	"ptw.Walker.route":        mach,
	"ptw.Walker.trans":        mach,
	"ptw.Walker.faults":       img,
	"ptw.Walker.wedge":        mach,
	"ptw.Walker.latHist":      img,
	"ptw.Walker.Stats":        img,
	"metrics.Histogram.count": recomp("Histogram.SetState"),
	"ptw.Walk.addrs":          recomp("Space.WalkAddrsInto"),
	"ptw.Walk.levels":         recomp("Space.WalkAddrsInto"),

	"ptw.FaultUnit.Latency":     mach,
	"ptw.FaultUnit.Concurrency": mach,
	"ptw.FaultUnit.resident":    img,
	"ptw.FaultUnit.inflight":    img,
	"ptw.FaultUnit.queue":       img,
	"ptw.FaultUnit.sink":        mach,
	"ptw.FaultUnit.Stats":       img,

	"dram.DRAM.cfg":           mach,
	"dram.DRAM.lineShift":     mach,
	"dram.DRAM.channels":      img,
	"dram.DRAM.Class":         img,
	"dram.DRAM.perAppBus":     img,
	"dram.DRAM.drop":          mach,
	"dram.DRAM.pool":          mach,
	"dram.DRAM.qFree":         buf,
	"dram.channel.banks":      img,
	"dram.channel.sched":      img,
	"dram.channel.busReadyAt": img,
	"dram.channel.inflight":   img,
	"dram.channel.nextFinish": recomp("channel.setInflight"),
	"dram.sched.SchedConfig":  mach,
	"dram.sched.caps":         mach,
	"dram.sched.q":            img,
	"dram.sched.turn":         img,
	"dram.Queued.Req":         img,
	"dram.Queued.Arrival":     img,
	"dram.Queued.Bank":        recomp("DRAM.Map"),
	"dram.Queued.Row":         recomp("DRAM.Map"),
	"dram.Queued.finish":      img,

	"telemetry.Collector.Registry": img,
	"telemetry.Collector.epoch":    mach,
	"telemetry.Collector.onSample": mach,
	"telemetry.Collector.samples":  img,
	"telemetry.Collector.events":   img,
	"telemetry.Collector.sampled":  img,
	"telemetry.Collector.sink":     img,
	"telemetry.Registry.probes":    img,
	"telemetry.Registry.byName":    mach,
	"telemetry.probe.name":         mach,
	"telemetry.probe.kind":         mach,
	"telemetry.probe.fn":           mach,
	"telemetry.probe.den":          mach,
	"telemetry.probe.ProbeState":   img,
	"telemetry.Event.Cycle":        img,
	"telemetry.Event.Name":         img,
	"telemetry.Event.Component":    img,
	"telemetry.Event.Args":         img,

	"telemetry.StreamSink.streams":    img,
	"telemetry.StreamSink.cols":       mach,
	"telemetry.StreamSink.epoch":      mach,
	"telemetry.StreamSink.bound":      mach,
	"telemetry.StreamSink.closed":     mach,
	"telemetry.StreamSink.pending":    img,
	"telemetry.StreamSink.queued":     img,
	"telemetry.StreamSink.high":       img,
	"telemetry.StreamSink.err":        recomp("StreamSink.mark"), // a failed sink writes no image
	"telemetry.StreamSink.autoFlush":  mach,
	"telemetry.sinkStream.format":     img,
	"telemetry.sinkStream.raw":        mach,
	"telemetry.sinkStream.cw":         img,
	"telemetry.sinkStream.bw":         buf, // flushed by every mark
	"telemetry.sinkStream.enc":        mach,
	"telemetry.sinkStream.pids":       img,
	"telemetry.sinkStream.nextPID":    recomp("StreamSink.restore"),
	"telemetry.sinkStream.wroteEvent": img,
	"streamio.CountingWriter.W":       mach,
	"streamio.CountingWriter.N":       img,
}

// TestStateCensus walks every struct a Simulator holds and fails on a field
// stateCensus does not classify, on an entry whose field is gone, and on a
// recomputed entry that names no function of the module: a field added to a
// component must say whether a checkpoint writes it, restore recomputes it,
// or the build makes it.
func TestStateCensus(t *testing.T) {
	funcs := moduleFuncs(t)
	seen := map[string]bool{}
	visited := map[reflect.Type]bool{}
	var follow func(reflect.Type)
	follow = func(ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			follow(ty.Elem())
			return
		case reflect.Map:
			follow(ty.Key())
			follow(ty.Elem())
			return
		case reflect.Struct:
		default:
			return
		}
		if !strings.HasPrefix(ty.PkgPath(), "masksim/") || visited[ty] {
			return
		}
		visited[ty] = true
		name := ty.PkgPath()[strings.LastIndex(ty.PkgPath(), "/")+1:] + "." + ty.Name()
		if i := strings.IndexByte(name, '['); i >= 0 {
			name = name[:i] // a generic type by its name alone
		}
		seen[name] = true
		for i := 0; i < ty.NumField(); i++ {
			f := ty.Field(i)
			key := name + "." + f.Name
			e, ok := stateCensus[key]
			switch {
			case ok:
				seen[key] = true
			case censusImages[name] && f.IsExported():
				e = img
			default:
				t.Errorf("%s (%s) is not classified: say in stateCensus whether a checkpoint writes it, restore recomputes it, or the build makes it", key, f.Type)
				continue
			}
			if e.class == recomputed && !funcs[e.by] {
				t.Errorf("%s is recomputed by %q, which is no function or method of the module", key, e.by)
			}
			if e.class == imaged {
				follow(f.Type)
			}
		}
	}
	follow(reflect.TypeFor[Simulator]())

	var gone []string
	for key := range stateCensus {
		if !seen[key] {
			gone = append(gone, key)
		}
	}
	for name := range censusImages {
		if !seen[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, key := range gone {
		t.Errorf("census entry %s names no field a Simulator holds: delete it", key)
	}
}

// moduleFuncs parses the module's non-test Go files and returns the set of
// its functions, keyed "<package>.<Func>", and methods, keyed
// "<Recv>.<Method>".
func moduleFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != ".." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Recv == nil {
				funcs[f.Name.Name+"."+fn.Name.Name] = true
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch x := recv.(type) {
			case *ast.IndexExpr: // a generic receiver
				recv = x.X
			case *ast.IndexListExpr:
				recv = x.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				funcs[id.Name+"."+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
