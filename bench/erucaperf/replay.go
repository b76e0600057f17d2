package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"eruca/internal/addrmap"
	"eruca/internal/cache"
	"eruca/internal/clock"
	"eruca/internal/config"
	"eruca/internal/dram"
	"eruca/internal/memctrl"
	"eruca/internal/osmem"
	"eruca/internal/sim"
	"eruca/internal/telemetry"
	"eruca/internal/trace"
	"eruca/internal/workload"
)

// repRun is the workload's representative simulation: the first one it
// ran. The traced run's layer replays all start from it.
type repRun struct {
	opt *sim.Options
	// plain is the untraced run of opt when the workload already made
	// it; the replay phase runs it otherwise.
	plain *plainRun
	// check, when set, compares the replayed simulation with the output
	// the workload itself got for it (a search score, an erucad result).
	check func(*sim.Result) error
}

// plainRun is one uninstrumented simulation with its host cost.
type plainRun struct {
	res           *sim.Result
	dur           time.Duration
	allocs, bytes uint64
}

func runPlain(opt sim.Options) (*plainRun, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := sim.Run(opt)
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return &plainRun{res: res, dur: d, allocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}, err
}

// layerExact reports a per-layer value that must repeat exactly for a
// given seed; it is also checked against the golden counts.
func layerExact(r *report, name string, v float64, unit string) {
	r.add(name, v, unit, true, "exact")
	r.exact("layer."+name, ftoa(v))
}

// replayLayers measures each simulator layer on the representative
// simulation: the plain run's host cost, an instrumented rerun (capture,
// audit, counters) that must reproduce it exactly, and replays of the
// osmem, front-end, memctrl and dram layers fed from that rerun.
func replayLayers(e *env, rr repRun) error {
	if rr.opt == nil {
		return errors.New("no representative simulation completed")
	}
	opt := *rr.opt
	plain := rr.plain
	if plain == nil {
		sp := e.tr.Start(e.root, "sim.Run", "representative")
		var err error
		plain, err = runPlain(opt)
		sp.End()
		if err != nil {
			return fmt.Errorf("representative simulation: %w", err)
		}
	}
	if rr.check != nil {
		e.rep.check(rr.check(plain.res))
	}

	var recs []trace.Record
	tel := telemetry.NewSet(telemetry.Options{}) // counters only
	inst := opt
	inst.Capture = func(r trace.Record) { recs = append(recs, r) }
	inst.Audit = true
	inst.Telemetry = tel
	sp := e.tr.Start(e.root, "sim.Run", "instrumented")
	res, err := sim.Run(inst)
	sp.End()
	if err != nil {
		return fmt.Errorf("instrumented simulation: %w", err)
	}
	e.rep.check(sameSim(plain.res, res))

	simLayer(e.rep, plain, res, tel)
	osmemLayer(e, opt)
	if err := frontEndLayer(e, opt); err != nil {
		return err
	}
	if err := memctrlLayer(e, opt.Sys, recs); err != nil {
		return err
	}
	return dramLayer(e, opt.Sys, res.AuditCommands)
}

// sameSim checks that instrumentation did not perturb the simulation.
func sameSim(a, b *sim.Result) error {
	if a.BusCycles != b.BusCycles || floats(a.IPC) != floats(b.IPC) || a.DRAM != b.DRAM || a.AchievedFMFI != b.AchievedFMFI {
		return fmt.Errorf("instrumented simulation differs from the plain one (bus cycles %d vs %d)", b.BusCycles, a.BusCycles)
	}
	return nil
}

func simLayer(r *report, plain *plainRun, res *sim.Result, tel *telemetry.Set) {
	// Result.BusCycles covers only the measured window; the last audited
	// command bounds the whole run, warm-up included, to within a
	// refresh interval.
	var total int64
	for _, cmds := range res.AuditCommands {
		if n := len(cmds); n > 0 && int64(cmds[n-1].At)+1 > total {
			total = int64(cmds[n-1].At) + 1
		}
	}
	r.add("sim.run_s", plain.dur.Seconds(), "s", true, "")
	r.add("sim.host_ns_per_bus_cycle", float64(plain.dur.Nanoseconds())/float64(total), "ns", true, fmt.Sprintf("%d bus cycles", total))
	r.add("sim.allocs_per_run", float64(plain.allocs), "count", true, "")
	r.add("sim.alloc_mb_per_run", float64(plain.bytes)/(1<<20), "MB", true, "")
	r.add("sim.ff_skip_frac", float64(tel.C.FFCyclesSkipped.Load())/float64(total), "frac", true, "bus cycles skipped by fast-forward")
	layerExact(r, "sim.bus_cycles", float64(res.BusCycles), "count")
	var ipc float64
	for _, v := range res.IPC {
		ipc += v
	}
	layerExact(r, "sim.ipc_sum", ipc, "instr/cycle")

	d := res.DRAM
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"dram.acts", d.Acts}, {"dram.reads", d.Reads}, {"dram.writes", d.Writes},
		{"dram.plane_conflict_pres", d.PlaneConfPre}, {"dram.ewlr_hits", d.ActsEWLRHit},
		{"dram.rap_redirects", d.RAPRedirects}, {"dram.ddb_saved_ck", d.DDBSavedCK},
	} {
		layerExact(r, c.name, float64(c.v), "count")
	}
}

// osmemLayer times Fragment on fresh memories of the run's size, seed
// and target FMFI.
func osmemLayer(e *env, opt sim.Options) {
	var durs []time.Duration
	var allocs uint64
	var achieved float64
	for i := 0; i < e.sc.fragReps; i++ {
		mem := osmem.NewMemory(opt.Sys.Geom.TotalBytes(), opt.Seed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := e.tr.Start(e.root, "osmem.Fragment", strconv.Itoa(i))
		start := time.Now()
		achieved = mem.Fragment(opt.Frag)
		durs = append(durs, time.Since(start))
		sp.End()
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
	}
	e.rep.add("osmem.fragment_ms", median(durationsMS(durs)), "ms", true, fmt.Sprintf("median of %d", len(durs)))
	e.rep.add("osmem.fragment_allocs", float64(allocs), "count", true, "")
	layerExact(e.rep, "osmem.achieved_fmfi", achieved, "frac")
}

// frontEndLayer replays the run's front end: each core's generator
// yields its warm-up plus measured instruction budget of operations,
// which are translated by the core's process and looked up in the cache
// hierarchy. Each stage runs over a whole batch so it is timed alone.
func frontEndLayer(e *env, opt sim.Options) error {
	sys := opt.Sys
	mem := osmem.NewMemory(sys.Geom.TotalBytes(), opt.Seed)
	mem.Fragment(opt.Frag)
	n := len(opt.Benches)
	gens := make([]workload.Generator, n)
	procs := make([]*osmem.Process, n)
	for i, name := range opt.Benches {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		gens[i] = workload.New(p, opt.Seed*7919+int64(i))
		procs[i] = mem.NewProcess(true, opt.Seed*1000003+int64(i))
	}
	caches, err := cache.New(cacheConfig(sys, n))
	if err != nil {
		return err
	}
	budget := simulatedInstrs(opt) / int64(n)
	shift := uint(math.Log2(float64(sys.Geom.LineBytes)))

	const batch = 4096
	ops := make([][]workload.Op, n)
	pas := make([][]uint64, n)
	retired := make([]int64, n)
	var tNext, tTrans, tAccess time.Duration
	var count int
	for more := true; more; {
		more = false
		sp := e.tr.Start(e.root, "replay", "front-end batch")
		start := time.Now()
		for c := range gens {
			ops[c] = ops[c][:0]
			for k := 0; k < batch && retired[c] < budget; k++ {
				op := gens[c].Next()
				ops[c] = append(ops[c], op)
				retired[c] += int64(op.Gap) + 1
			}
			more = more || retired[c] < budget
		}
		mid := time.Now()
		tNext += mid.Sub(start)
		for c, p := range procs {
			pas[c] = pas[c][:0]
			for _, op := range ops[c] {
				pa, err := p.Translate(op.VA)
				if err != nil {
					sp.End()
					return fmt.Errorf("front-end replay: %w", err)
				}
				pas[c] = append(pas[c], pa)
			}
		}
		mid2 := time.Now()
		tTrans += mid2.Sub(mid)
		for c := range ops {
			for k, op := range ops[c] {
				caches.Access(c, pas[c][k]>>shift, op.Write)
			}
			count += len(ops[c])
		}
		tAccess += time.Since(mid2)
		sp.End()
	}
	llc := caches.LLCStats()
	note := fmt.Sprintf("%d operations", count)
	e.rep.add("workload.next_ns", float64(tNext.Nanoseconds())/float64(count), "ns", true, note)
	e.rep.add("osmem.translate_ns", float64(tTrans.Nanoseconds())/float64(count), "ns", true, note)
	e.rep.add("cache.access_ns", float64(tAccess.Nanoseconds())/float64(count), "ns", true, note)
	layerExact(e.rep, "cache.llc_miss_frac", float64(llc.Misses)/float64(llc.Hits+llc.Misses), "frac")
	return nil
}

// memctrlLayer replays the run's captured DRAM transactions into fresh
// controllers: each is enqueued at its arrival cycle once its queue can
// accept it, and every controller ticks on every bus cycle until all
// transactions have completed.
func memctrlLayer(e *env, sys *config.System, recs []trace.Record) error {
	mapper := addrmap.New(sys)
	nch := sys.Geom.Channels
	ctls := make([]*memctrl.Controller, nch)
	for c := range ctls {
		ctls[c] = memctrl.New(sys, dram.NewChannel(sys, mapper.RowBits()))
	}
	txns := make([]memctrl.Transaction, len(recs))
	// waiting holds, per channel and kind (0 read, 1 write), transactions
	// that arrived but did not fit their queue yet.
	waiting := make([][2][]*memctrl.Transaction, nch)
	period := sys.Bus.PeriodNS()
	var last clock.Cycle
	if len(recs) > 0 {
		last = clock.Cycle(math.Round(recs[len(recs)-1].NS / period))
	}

	sp := e.tr.Start(e.root, "replay", "memctrl")
	start := time.Now()
	next, issued, ticks := 0, 0, 0
	for now := clock.Cycle(0); ; now++ {
		for ; next < len(recs) && clock.Cycle(math.Round(recs[next].NS/period)) <= now; next++ {
			r := recs[next]
			t := &txns[next]
			*t = memctrl.Transaction{Write: r.Write, Loc: mapper.Map(r.PA), Arrive: now}
			kind := 0
			if r.Write {
				kind = 1
			}
			waiting[t.Loc.Channel][kind] = append(waiting[t.Loc.Channel][kind], t)
		}
		busy := next < len(recs)
		for c, ctl := range ctls {
			for kind := range waiting[c] {
				q := waiting[c][kind]
				for len(q) > 0 && ctl.CanAccept(kind == 1) {
					ctl.Enqueue(q[0])
					q = q[1:]
				}
				waiting[c][kind] = q
				busy = busy || len(q) > 0
			}
			if ctl.Tick(now) {
				issued++
			}
			ticks++
			busy = busy || ctl.Pending() > 0
		}
		if !busy {
			break
		}
		if now > last+10_000_000 {
			sp.End()
			return errors.New("memctrl replay: transactions did not drain")
		}
	}
	took := time.Since(start)
	sp.End()

	var done, occ float64
	for _, ctl := range ctls {
		done += float64(ctl.Stats.ReadsDone + ctl.Stats.WritesDone + ctl.Stats.Forwarded)
		occ += ctl.Stats.AvgReadQueueDepth() / float64(nch)
	}
	var err error
	if int(done) != len(recs) {
		err = fmt.Errorf("memctrl replay completed %d of %d transactions", int(done), len(recs))
	}
	e.rep.check(err)
	e.rep.add("memctrl.tick_ns", float64(took.Nanoseconds())/float64(ticks), "ns", true, fmt.Sprintf("%d ticks", ticks))
	layerExact(e.rep, "memctrl.issue_frac", float64(issued)/float64(ticks), "frac")
	layerExact(e.rep, "memctrl.read_q_avg", occ, "count")
	layerExact(e.rep, "memctrl.replay_txns", done, "count")
	return nil
}

// eiReps repeats each EarliestIssue call so one clock reading spans
// several calls; the call is pure, so repeating it changes nothing.
const eiReps = 8

// dramLayer replays each channel's audited command stream into a fresh
// channel: MaintainRefresh runs on every cycle, and each ACT, PRE, RD
// and WR is checked with EarliestIssue and issued at its recorded cycle.
// A command recorded earlier than EarliestIssue allows, or one the
// channel rejects, is a violation.
func dramLayer(e *env, sys *config.System, audited [][]dram.AuditedCommand) error {
	mapper := addrmap.New(sys)
	overhead := clockOverhead()
	var tEI, tIssue time.Duration
	cmds, violations := 0, 0
	for c, stream := range audited {
		ch := dram.NewChannel(sys, mapper.RowBits())
		rejected := false
		ch.OnViolation(func(dram.Violation) { rejected = true })
		var todo []dram.AuditedCommand
		for _, ac := range stream {
			switch ac.Cmd.Kind {
			case dram.CmdACT, dram.CmdPRE, dram.CmdRD, dram.CmdWR:
				todo = append(todo, ac)
			}
		}
		if len(todo) == 0 {
			continue
		}
		sp := e.tr.Start(e.root, "replay", fmt.Sprintf("dram channel %d", c))
		j := 0
		for now := clock.Cycle(0); j < len(todo); now++ {
			ch.MaintainRefresh(now)
			for ; j < len(todo) && todo[j].At == now; j++ {
				cmd := todo[j].Cmd
				t0 := time.Now()
				var at clock.Cycle
				for k := 0; k < eiReps; k++ {
					at = ch.EarliestIssue(cmd)
				}
				t1 := time.Now()
				rejected = false
				ch.Issue(cmd, now)
				tIssue += time.Since(t1) - overhead
				tEI += t1.Sub(t0) - overhead
				cmds++
				if at > now || rejected {
					violations++
				}
			}
		}
		sp.End()
	}
	note := fmt.Sprintf("%d commands", cmds)
	e.rep.add("dram.earliest_issue_ns", float64(tEI.Nanoseconds())/float64(cmds*eiReps), "ns", true, note)
	e.rep.add("dram.issue_ns", float64(tIssue.Nanoseconds())/float64(cmds), "ns", true, note)
	layerExact(e.rep, "dram.replay_cmds", float64(cmds), "count")
	layerExact(e.rep, "dram.replay_violations", float64(violations), "count")
	var err error
	if violations > 0 {
		err = fmt.Errorf("dram replay: %d of %d commands violate the timing engine", violations, cmds)
	}
	e.rep.check(err)
	return nil
}

// clockOverhead is the median cost of one timed empty region, which the
// per-call timings subtract.
func clockOverhead() time.Duration {
	ds := make([]time.Duration, 1001)
	for i := range ds {
		t := time.Now()
		ds[i] = time.Since(t)
	}
	return medianDuration(ds)
}
