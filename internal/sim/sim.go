// Package sim wires the full system together — synthetic workloads, the
// OS memory allocator, out-of-order cores, caches, memory controllers
// and the DRAM timing engine — and runs multiprogrammed simulations,
// producing the metrics behind every performance figure of the paper.
package sim

import (
	"context"
	"fmt"

	"eruca/internal/addrmap"
	"eruca/internal/cache"
	"eruca/internal/check"
	"eruca/internal/clock"
	"eruca/internal/config"
	"eruca/internal/cpu"
	"eruca/internal/dram"
	"eruca/internal/energy"
	"eruca/internal/faults"
	"eruca/internal/memctrl"
	"eruca/internal/osmem"
	"eruca/internal/stats"
	"eruca/internal/telemetry"
	"eruca/internal/trace"
	"eruca/internal/workload"
)

// Options configures one simulation run.
type Options struct {
	// Ctx, when non-nil, bounds the run: cancellation (or deadline
	// expiry) ends the simulation promptly at a bus-cycle boundary and
	// Run returns the partial statistics together with an error wrapping
	// ctx.Err(). A nil Ctx means the run cannot be interrupted.
	Ctx context.Context

	Sys *config.System
	// Benches names one workload per active core (1 to Sys.CPU.Cores).
	Benches []string
	// Instrs is the per-core measured instruction budget.
	Instrs int64
	// Warmup is the per-core instruction count run before measurement
	// starts (caches fill, rows open). Defaults to Instrs/2.
	Warmup int64
	// Frag is the target free-memory fragmentation index (0, 0.1, 0.5).
	Frag float64
	// Seed drives every random choice in the run.
	Seed int64
	// Capture, when set, receives every DRAM transaction (Fig. 4).
	Capture func(trace.Record)
	// MaxBusCycles caps the run as a deadlock guard (0 = automatic).
	MaxBusCycles int64
	// Audit attaches an independent protocol checker to every channel;
	// detected violations are returned as an error and the audited
	// command streams are exposed through Result.AuditCommands.
	Audit bool
	// NoFastForward disables the event-driven cycle skipping and runs
	// the plain per-cycle loop. Both modes produce identical results and
	// identical DRAM command streams; the flag exists for equivalence
	// tests and debugging.
	NoFastForward bool
	// Check, when non-nil with Mode != Off, attaches the structured
	// protocol checker to every channel. Fail mode ends the run at the
	// first violation (returned as a *check.ProtocolError); Log mode
	// records violations into Result.Protocol without perturbing the
	// run; Panic mode reproduces the historical stop-the-world behavior
	// but with the flight recorder attached to the panic value.
	Check *check.Options
	// Watchdog, when non-nil, arms the forward-progress and
	// read-latency monitors; a trip ends the run with a
	// *DeadlockError carrying a full system snapshot.
	Watchdog *Watchdog
	// Faults, when non-nil, schedules deliberate state corruption and
	// scheduling perturbations (chaos runs). The plan is cloned, so one
	// plan value may parameterize many runs.
	Faults *faults.Plan
	// Telemetry, when non-nil, attaches the event tracer and the live
	// histograms to every channel and controller, and receives the
	// run's measured Result.DRAM counts once when it finishes. Purely
	// observational: the command stream, bus cycle count and every Result
	// field are identical with and without it (proven by
	// TestTelemetryNonPerturbing). One Set may be shared across runs,
	// concurrent or resumed; the totals then sum the runs and events are
	// tagged with per-run indices from BeginRun.
	Telemetry *telemetry.Set
	// CheckpointEvery, together with CheckpointSink, emits a serialized
	// full-state checkpoint at the first loop iteration at least
	// CheckpointEvery bus cycles after the previous one (fast-forward
	// jumps may push an emission a little later; the state captured is
	// always exact for the cycle it reports). Zero disables
	// checkpointing. Checkpoints are taken between bus cycles, so a run
	// resumed from one is cycle-accurate: it produces the same audited
	// command stream and statistics as the uninterrupted run (proven by
	// TestResumeByteIdentical).
	CheckpointEvery clock.Cycle
	// CheckpointSink receives each emitted checkpoint synchronously on
	// the simulation goroutine; copy or persist the blob and return.
	CheckpointSink func(Checkpoint)
}

// Checkpoint is one serialized simulation state, emitted through
// Options.CheckpointSink and accepted by Resume. Bus is the first bus
// cycle NOT yet simulated; Blob is the versioned, checksummed state
// (see internal/snapshot).
type Checkpoint struct {
	Bus  clock.Cycle
	Blob []byte
}

// Result is the outcome of one run.
type Result struct {
	System  string
	Benches []string

	IPC  []float64 // per core, latched when it hit its target
	MPKI []float64 // per core, DRAM demand misses per 1000 instructions

	BusCycles int64
	ElapsedNS float64

	DRAM     dram.Stats // summed over channels
	Energy   energy.Breakdown
	QueueLat *stats.Sampler // read queueing latency, ns

	HugeCoverage float64 // fraction of mapped memory backed by huge pages
	AchievedFMFI float64

	// BankLoad is the per-bank column-command count, channels
	// concatenated — the utilization balance of the address hashing.
	BankLoad []uint64
	// AvgReadQueueDepth / AvgWriteQueueDepth are time-averaged controller
	// queue occupancies across channels.
	AvgReadQueueDepth  float64
	AvgWriteQueueDepth float64

	// AuditCommands holds, per channel, the full audited command stream
	// (command + issue cycle) when Options.Audit was set. Equivalence
	// tests compare it across fast-forwarding and per-cycle runs.
	AuditCommands [][]dram.AuditedCommand

	// Protocol holds the violations the Log-mode checker recorded (at
	// most a bounded number per channel); empty on clean runs.
	Protocol []*check.ProtocolError
	// FaultsInjected counts the fault-plan events that landed.
	FaultsInjected int
	// Partial marks a result whose run ended early (OOM, Fail-mode
	// violation, watchdog); the statistics cover only the completed
	// portion.
	Partial bool
}

// PlaneConflictPreFrac reports the fraction of precharges triggered by
// plane conflicts (Fig. 13b).
func (r *Result) PlaneConflictPreFrac() float64 {
	if r.DRAM.Pres == 0 {
		return 0
	}
	return float64(r.DRAM.PlaneConfPre) / float64(r.DRAM.Pres)
}

// RowHitRate reports column commands served without a fresh activation.
func (r *Result) RowHitRate() float64 {
	cols := r.DRAM.Reads + r.DRAM.Writes
	if cols == 0 {
		return 0
	}
	return float64(r.DRAM.RowHits()) / float64(cols)
}

// Run executes one simulation.
func Run(opt Options) (*Result, error) {
	rs, err := newRunState(opt)
	if err != nil {
		return nil, err
	}
	v := loopVars{warmed: rs.warmup == 0, prevProg: -1}
	v, stopErr, hardErr := rs.loop(v)
	if hardErr != nil {
		return nil, hardErr
	}
	return rs.finish(v, stopErr)
}

// Resume reconstructs a run from a checkpoint blob and carries it to
// completion. opt must describe the same run that produced the blob
// (system, workloads, budget, seed, fragmentation — all validated
// against the serialized header); observational options (Capture,
// Telemetry, CheckpointSink) may differ. The resumed run is
// cycle-accurate: statistics, the audited command stream and the final
// Result match the uninterrupted run byte for byte. Two components
// restart fresh rather than resuming: the watchdog (it re-arms its
// progress deadline from the resume point) and the protocol checker
// (which may need a few commands of stream context before its checks
// are meaningful again). Neither perturbs the simulated machine.
func Resume(opt Options, blob []byte) (*Result, error) {
	rs, err := newRunState(opt)
	if err != nil {
		return nil, err
	}
	v, err := rs.restore(blob)
	if err != nil {
		return nil, fmt.Errorf("sim: resume: %w", err)
	}
	v, stopErr, hardErr := rs.loop(v)
	if hardErr != nil {
		return nil, hardErr
	}
	return rs.finish(v, stopErr)
}

// runState is the fully constructed simulated machine plus the harness
// around it (auditors, checkers, fault plan, watchdog, telemetry). Run
// and Resume build it identically from Options; Resume then overwrites
// the mutable state from the checkpoint blob before entering the loop.
type runState struct {
	opt      Options
	sys      *config.System
	mapper   *addrmap.Mapper
	mem      *osmem.Memory
	achieved float64
	procs    []*osmem.Process
	gens     []workload.Generator
	caches   *cache.Hierarchy
	tel      *telemetry.Set
	telRun   uint16
	ctls     []*memctrl.Controller
	auditors []*dram.Auditor
	checkers []*check.Checker
	plan     *faults.Plan
	tgt      injectTarget
	wd       *watchdogState
	br       *bridge
	cores    []*cpu.Core
	warmup   int64
	maxBus   clock.Cycle
	ratio    int64
}

// loopVars is the loop-carried state of the simulation: everything the
// run loop itself mutates between bus cycles. It is the part of a
// checkpoint that is not owned by a subsystem.
type loopVars struct {
	bus       clock.Cycle
	busAtWarm clock.Cycle
	cpuCycle  int64
	warmed    bool
	prevProg  int64
	lastCkpt  clock.Cycle
}

func newRunState(opt Options) (*runState, error) {
	sys := opt.Sys
	if len(opt.Benches) == 0 || len(opt.Benches) > sys.CPU.Cores {
		return nil, fmt.Errorf("sim: %d workloads for %d cores", len(opt.Benches), sys.CPU.Cores)
	}
	if opt.Instrs <= 0 {
		return nil, fmt.Errorf("sim: non-positive instruction budget")
	}

	mapper := addrmap.New(sys)

	mem := osmem.NewMemory(sys.Geom.TotalBytes(), opt.Seed)
	achieved := mem.Fragment(opt.Frag)

	var procs []*osmem.Process
	var gens []workload.Generator
	for i, name := range opt.Benches {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		procs = append(procs, mem.NewProcess(true, opt.Seed*1000003+int64(i)))
		gens = append(gens, workload.New(p, opt.Seed*7919+int64(i)))
	}

	caches, err := cache.New(cache.Config{
		Cores:     len(opt.Benches),
		L1Bytes:   sys.CPU.L1Bytes,
		L1Ways:    sys.CPU.L1Ways,
		LLCBytes:  sys.CPU.LLCBytesPerCore * sys.CPU.Cores,
		LLCWays:   sys.CPU.LLCWays,
		LineBytes: sys.Geom.LineBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", sys.Name, err)
	}

	// Telemetry: register this run and size the rings. One Set may serve
	// many concurrent runs; events are tagged with the run index.
	tel := opt.Telemetry
	var telRun uint16
	if tel != nil {
		tel.Configure(sys.Geom.Channels, sys.Geom.Ranks)
		telRun = tel.BeginRun(fmt.Sprintf("%s %v frag=%g", sys.Name, opt.Benches, opt.Frag))
	}

	var ctls []*memctrl.Controller
	var auditors []*dram.Auditor
	var checkers []*check.Checker
	for c := 0; c < sys.Geom.Channels; c++ {
		ch := dram.NewChannel(sys, mapper.RowBits())
		ch.SetTelemetry(tel, c, telRun)
		if opt.Audit {
			a := dram.NewAuditor(sys)
			ch.Attach(a)
			auditors = append(auditors, a)
		}
		if opt.Check != nil && opt.Check.Mode != check.Off {
			co := *opt.Check
			co.Telemetry, co.Chan = tel, c
			ck := check.New(sys, co)
			ch.Attach(ck)
			ch.OnViolation(ck.HandleViolation)
			checkers = append(checkers, ck)
		}
		ctl := memctrl.New(sys, ch)
		ctl.SetTelemetry(tel)
		ctls = append(ctls, ctl)
	}

	// Chaos harness: clone the fault plan (so one plan parameterizes
	// many runs) and arm its continuous perturbations.
	plan := opt.Faults.Clone()
	tgt := injectTarget{ctls: ctls, ranks: sys.Geom.Ranks}
	plan.Arm(tgt)

	var wd *watchdogState
	if opt.Watchdog != nil {
		wd = newWatchdogState(opt.Watchdog)
	}

	br := newBridge(sys, mapper, procs, caches, ctls, opt.Capture)

	warmup := opt.Warmup
	if warmup == 0 {
		warmup = opt.Instrs / 2
	}
	var cores []*cpu.Core
	for i := range gens {
		c := cpu.New(i, sys.CPU.Width, sys.CPU.ROB, sys.CPU.LSQ, warmup+opt.Instrs, source{gens[i]}, br)
		c.Warmup = warmup
		cores = append(cores, c)
	}

	maxBus := opt.MaxBusCycles
	if maxBus == 0 {
		maxBus = (warmup+opt.Instrs)*300 + 1_000_000
	}

	return &runState{
		opt:      opt,
		sys:      sys,
		mapper:   mapper,
		mem:      mem,
		achieved: achieved,
		procs:    procs,
		gens:     gens,
		caches:   caches,
		tel:      tel,
		telRun:   telRun,
		ctls:     ctls,
		auditors: auditors,
		checkers: checkers,
		plan:     plan,
		tgt:      tgt,
		wd:       wd,
		br:       br,
		cores:    cores,
		warmup:   warmup,
		maxBus:   maxBus,
		ratio:    int64(sys.CPU.ClockRatio),
	}, nil
}

// loop advances the simulation from v until completion or a graceful
// stop. It returns the final loop-carried state, the stop error (nil on
// a clean finish; OOM / protocol violation / watchdog / cancellation
// otherwise — partial statistics are still assembled), and a hard error
// (bus-cycle budget overrun) that yields no Result at all.
func (rs *runState) loop(v loopVars) (loopVars, error, error) {
	opt, sys := rs.opt, rs.sys
	br, plan, tgt, wd, tel := rs.br, rs.plan, rs.tgt, rs.wd, rs.tel
	cores, ctls, checkers := rs.cores, rs.ctls, rs.checkers
	ratio, maxBus := rs.ratio, rs.maxBus

	// Cancellation plumbing: a nil Done channel never fires, so runs
	// without a context pay only a dead branch. The check runs every 64
	// loop iterations (not bus cycles — fast-forward jumps would skip
	// fixed cycle marks), bounding the reaction latency to microseconds
	// of wall time.
	var done <-chan struct{}
	if opt.Ctx != nil {
		done = opt.Ctx.Done()
	}

	ckptEvery := opt.CheckpointEvery
	if opt.CheckpointSink == nil {
		ckptEvery = 0
	}

	var bus, busAtWarm clock.Cycle
	var stopErr error
	bus, busAtWarm = v.bus, v.busAtWarm
	cpuCycle := v.cpuCycle
	warmed := v.warmed
	prevProg := v.prevProg
	lastCkpt := v.lastCkpt
	sync := func() loopVars {
		return loopVars{bus: bus, busAtWarm: busAtWarm, cpuCycle: cpuCycle,
			warmed: warmed, prevProg: prevProg, lastCkpt: lastCkpt}
	}
	iter := 0
	for ; ; bus++ {
		if bus > maxBus {
			return sync(), nil, fmt.Errorf("sim: %s did not finish within %d bus cycles", sys.Name, maxBus)
		}
		// Checkpoint emission point: every cycle below bus is fully
		// simulated and no cycle-local work for bus has started, so the
		// machine state is exactly "about to simulate bus". The snapshot
		// only reads state (in particular, it never draws from any RNG),
		// so emitting one cannot perturb the run.
		if ckptEvery > 0 && bus > 0 && bus-lastCkpt >= ckptEvery {
			lastCkpt = bus
			opt.CheckpointSink(Checkpoint{Bus: bus, Blob: rs.snapshot(sync())})
		}
		if iter++; done != nil && iter&63 == 0 {
			select {
			case <-done:
				stopErr = fmt.Errorf("sim: %s: run canceled: %w", sys.Name, opt.Ctx.Err())
			default:
			}
			if stopErr != nil {
				break
			}
		}
		br.busNow = bus
		if plan != nil {
			plan.Apply(bus, tgt)
		}
		fired := br.fireEvents()
		for r := 0; r < sys.CPU.ClockRatio; r++ {
			cpuCycle++
			br.cpuNow = cpuCycle
			for _, c := range cores {
				c.Tick(cpuCycle)
			}
		}
		issued := false
		for _, ctl := range ctls {
			if ctl.Tick(bus) {
				issued = true
			}
		}
		drained := br.drainSpill()

		// Graceful-degradation checks: a latched bridge fatal (OOM), a
		// Fail-mode protocol violation, or a tripped watchdog ends the
		// run here; partial statistics are still assembled below.
		if br.fatal != nil {
			stopErr = fmt.Errorf("sim: %s: %w", sys.Name, br.fatal)
			break
		}
		if len(checkers) > 0 {
			for _, ck := range checkers {
				if ck.Failed() {
					stopErr = ck.Err()
					break
				}
			}
			if stopErr != nil {
				break
			}
		}
		if wd != nil {
			if kind, idle := wd.check(bus, fired, drained, cores, ctls); kind != "" {
				stopErr = &DeadlockError{Kind: kind, Bus: bus, Idle: idle,
					Report: buildDeadlockReport(kind, bus, idle, cores, ctls, checkers, plan, tel)}
				break
			}
		}

		if !warmed {
			warmed = true
			for _, c := range cores {
				if !c.Warmed() {
					warmed = false
					break
				}
			}
			if warmed {
				// Measurement starts: drop warmup statistics.
				busAtWarm = bus
				for _, ctl := range ctls {
					ctl.Channel().Finish(bus)
					ctl.Channel().Stats = dram.Stats{}
					ctl.ResetStats()
				}
				for i := range br.misses {
					br.misses[i] = 0
				}
			}
		} else {
			done := true
			for _, c := range cores {
				if !c.Done() {
					done = false
					break
				}
			}
			if done {
				break
			}
		}

		if opt.NoFastForward {
			continue
		}

		// Quiescence check: nothing happened this bus cycle — no line
		// fill fired, no controller command (refresh transitions are
		// bounded separately below), no writeback moved, and no core made
		// architectural progress. The whole system state is then frozen:
		// cores retry the exact same blocked Access (acceptance depends
		// only on queue/spill occupancy, which only controller issues and
		// spill drains can change), so every subsequent cycle is
		// identical until the earliest scheduled event.
		curProg := int64(0)
		for _, c := range cores {
			curProg += c.Progress()
		}
		quiet := fired == 0 && !issued && drained == 0 && curProg == prevProg
		prevProg = curProg
		if !quiet {
			continue
		}

		// Conservative lower bound on the next cycle anything can happen:
		// the earliest pending line-fill event, each controller's next
		// possible action (legal issue, refresh transition, close-page
		// scan), and each core's self-driven progress opportunity
		// (already-known read completion), converted CPU->bus. Resuming
		// early is safe — the loop just finds another quiet cycle.
		next := maxBus + 1
		if at, ok := br.nextEventAt(); ok && at < next {
			next = at
		}
		for _, ctl := range ctls {
			if e := ctl.NextEventCycle(bus); e < next {
				next = e
			}
		}
		for _, c := range cores {
			// CPU cycle e is processed during bus cycle (e-1)/ratio.
			if eb := clock.Cycle((c.NextEventCycle(cpuCycle) - 1) / ratio); eb < next {
				next = eb
			}
		}
		// Never skip over a scheduled fault injection or the watchdog's
		// firing point: both must land on their exact cycle.
		if plan != nil {
			if e := plan.NextAt(); e < next {
				next = e
			}
		}
		if wd != nil {
			if e := wd.deadline(bus, ctls); e < next {
				next = e
			}
		}
		if next <= bus+1 {
			continue
		}

		// Jump: account the skipped controller ticks (occupancy stats,
		// close-page scan grid) and core stall cycles, then land so the
		// loop increment resumes exactly at the event cycle.
		for _, ctl := range ctls {
			ctl.FastForward(bus, next)
		}
		if tel != nil {
			skip := uint64(next - bus - 1)
			tel.C.FFCyclesSkipped.Add(skip)
			arg := skip
			if arg > 1<<32-1 {
				arg = 1<<32 - 1
			}
			tel.Emit(telemetry.Event{At: bus + 1, Run: rs.telRun, Kind: telemetry.EvFFSkip, Arg: uint32(arg)})
		}
		skipped := int64(next-bus-1) * ratio
		for _, c := range cores {
			c.FastForward(skipped)
		}
		cpuCycle += skipped
		bus = next - 1
	}

	return sync(), stopErr, nil
}

// finish assembles the Result from the machine state after the loop
// ended (cleanly or on a graceful stop at v.bus).
func (rs *runState) finish(v loopVars, stopErr error) (*Result, error) {
	opt, sys := rs.opt, rs.sys
	bus, busAtWarm := v.bus, v.busAtWarm
	res := &Result{
		System:       sys.Name,
		Benches:      opt.Benches,
		BusCycles:    bus - busAtWarm,
		ElapsedNS:    sys.Bus.NS(bus - busAtWarm),
		QueueLat:     &stats.Sampler{},
		AchievedFMFI: rs.achieved,
	}
	busNS := sys.Bus.PeriodNS()
	ctls := rs.ctls
	for _, ctl := range ctls {
		ch := ctl.Channel()
		ch.Finish(bus)
		res.DRAM.Add(ch.Stats)
		res.QueueLat.Merge(&ctl.Stats.QueueLatency, busNS)
		res.BankLoad = append(res.BankLoad, ch.BankLoad()...)
		res.AvgReadQueueDepth += ctl.Stats.AvgReadQueueDepth() / float64(len(ctls))
		res.AvgWriteQueueDepth += ctl.Stats.AvgWriteQueueDepth() / float64(len(ctls))
	}
	res.Energy = energy.Default().Compute(res.DRAM, busNS)

	for i, a := range rs.auditors {
		if v := a.Violations(); len(v) > 0 {
			return nil, fmt.Errorf("sim: %s: channel %d protocol violations (%d commands audited): %v",
				sys.Name, i, a.Commands(), v[0])
		}
		res.AuditCommands = append(res.AuditCommands, a.Events())
	}

	// End-of-stream checker pass (refresh starvation) and violation
	// harvest. In Panic mode Finish panics on a detection, matching the
	// in-stream semantics.
	for _, ck := range rs.checkers {
		ck.Finish(bus)
		res.Protocol = append(res.Protocol, ck.Errors()...)
		if stopErr == nil && ck.Failed() {
			stopErr = ck.Err()
		}
	}
	res.FaultsInjected = rs.plan.Injected()
	if rs.tel != nil {
		res.DRAM.Each(rs.tel.C.Add)
	}

	var mappedHuge, mapped uint64
	for i, c := range rs.cores {
		res.IPC = append(res.IPC, c.IPC())
		res.MPKI = append(res.MPKI, 1000*float64(rs.br.misses[i])/float64(opt.Instrs))
		mappedHuge += rs.procs[i].HugeMapped * osmem.HugeBytes
		mapped += rs.procs[i].MappedBytes()
	}
	if mapped > 0 {
		res.HugeCoverage = float64(mappedHuge) / float64(mapped)
	}
	if stopErr != nil {
		// Graceful degradation: the statistics cover the completed
		// portion of the run; the caller gets both.
		res.Partial = true
		return res, stopErr
	}
	return res, nil
}

// injectTarget adapts the run's controllers to faults.Target.
type injectTarget struct {
	ctls  []*memctrl.Controller
	ranks int
}

func (t injectTarget) Channels() int { return len(t.ctls) }

func (t injectTarget) DelayRefresh(ch, rank int, delta clock.Cycle) bool {
	return t.ctls[ch].Channel().InjectRefreshDelay(rank%t.ranks, delta)
}

func (t injectTarget) ForcePrecharge(ch int) bool {
	return t.ctls[ch].Channel().InjectForcePrecharge()
}

func (t injectTarget) CorruptTiming(ch int) bool {
	return t.ctls[ch].Channel().InjectTimingReset()
}

func (t injectTarget) CorruptRow(ch int) bool {
	return t.ctls[ch].Channel().InjectRowCorruption()
}

func (t injectTarget) Blackout(ch int, until clock.Cycle) {
	t.ctls[ch].InjectBlackout(until)
}

func (t injectTarget) SetDropRate(rate float64, seed int64) {
	for i, ctl := range t.ctls {
		ctl.InjectDropRate(rate, seed+int64(i))
	}
}

// source adapts a workload.Generator to cpu.Source.
type source struct{ g workload.Generator }

func (s source) Next() (int, bool, uint64) {
	op := s.g.Next()
	return op.Gap, op.Write, op.VA
}
