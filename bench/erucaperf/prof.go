package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"eruca/internal/obs"
)

// measureTraced is the traced run: the workload under a CPU profile with
// harness spans on, then the layer replays, then the profile's package
// shares. The spans (and the daemon's, when one ran traced) are written
// to one Perfetto JSON file per workload.
func measureTraced(e *env, w workloadDef) error {
	e.tr = obs.NewTracer("erucaperf", 1<<18)
	profPath := filepath.Join(e.dir, e.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	// root parents the harness spans of the workload itself.
	root := e.tr.Start(obs.SpanContext{}, "workload", e.name)
	e.root = root.Context()
	st := &opStats{}
	err = w.run(e, st)
	root.End()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	st.perLayer(e.rep)

	if e.name != "service-mix" { // service-mix measured it in its traced half
		noServerLayer(e.rep)
	}

	replay := e.tr.Start(obs.SpanContext{}, "replay", "layers")
	e.root = replay.Context()
	err = replayLayers(e, st.rep)
	replay.End()
	if err != nil {
		return err
	}

	shares, err := profileShares(profPath)
	if err != nil {
		return err
	}
	for _, p := range profPackages {
		e.rep.add("prof."+p+"_self_frac", shares[p], "frac", true, "flat CPU share of the workload")
	}

	tf, err := os.Create(filepath.Join(e.dir, e.name+".trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(tf, append(e.tr.Spans(), e.spans...)); err != nil {
		tf.Close()
		return err
	}
	return tf.Close()
}

// profPackages are the layers the CPU profile is grouped into. cpu and
// the sim package's unexported bridge have no other outside view; core
// holds the plane logic dram calls on every ERUCA activation.
var profPackages = []string{"sim", "memctrl", "dram", "core", "cpu", "cache", "osmem", "workload", "addrmap", "server", "runtime"}

// profileShares summarises a CPU profile with `go tool pprof -top` and
// returns each profPackages entry's share of the flat time.
func profileShares(profile string) (map[string]float64, error) {
	cmd := exec.Command(goTool(), "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTop(out)
}

// goTool locates the go command: on PATH, else beside this toolchain.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}

// parseTop groups the flat column of `go tool pprof -top` output by
// package and returns each layer's share of the profile total. Functions
// outside the listed layers count towards the total only.
func parseTop(out []byte) (map[string]float64, error) {
	var total float64
	flat := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "Showing nodes accounting for "); ok {
			// "Showing nodes accounting for 2.50s, 100% of 2.50s total"
			i := strings.Index(rest, " of ")
			j := strings.LastIndex(rest, " total")
			if i < 0 || j < i {
				return nil, fmt.Errorf("pprof: unexpected summary %q", line)
			}
			v, err := parseDur(rest[i+4 : j])
			if err != nil {
				return nil, err
			}
			total = v
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 6 || !strings.HasSuffix(fields[1], "%") || fields[0] == "flat" {
			continue
		}
		v, err := parseDur(fields[0])
		if err != nil {
			continue // not a sample row
		}
		fn := strings.Join(fields[5:], " ")
		fn = strings.TrimSuffix(fn, " (inline)")
		flat[layerOf(fn)] += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof: no samples")
	}
	shares := make(map[string]float64, len(profPackages))
	for _, p := range profPackages {
		shares[p] = flat[p] / total
	}
	return shares, nil
}

// layerOf maps a symbol such as "eruca/internal/memctrl.(*Controller).Tick"
// to its layer: the internal package name, "runtime" for the Go runtime,
// or "" for anything else.
func layerOf(fn string) string {
	fn, _, _ = strings.Cut(fn, "[") // type arguments may hold other paths
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "eruca/internal/"):
		return strings.TrimPrefix(pkg, "eruca/internal/")
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// parseDur reads a pprof duration such as "1.25s", "830ms" or "2.5mins"
// in seconds.
func parseDur(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof: bad duration %q", s)
}
