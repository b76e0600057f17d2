package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// goldenSeed is the seed whose exact counts are committed.
const goldenSeed = 42

// golden maps workload -> exact-count key -> value.
type golden map[string]map[string]string

// checkGolden compares the run's exact counts with the committed ones
// at the golden seed; each missing or differing key is a failed check.
// With update it merges the run's counts into the file instead. Other
// seeds rely on the run's own consistency checks.
func checkGolden(r *report, path string, update bool) error {
	if r.Seed != goldenSeed {
		return nil
	}
	g := golden{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("golden %s: %w", path, err)
		}
	case !(update && errors.Is(err, fs.ErrNotExist)):
		return err
	}
	want := g[r.Workload]
	if update {
		if want == nil {
			want = map[string]string{}
			g[r.Workload] = want
		}
		for k, v := range r.Exact {
			want[k] = v
		}
		return writeJSONFile(path, g)
	}
	keys := make([]string, 0, len(r.Exact))
	for k := range r.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var err error
		switch w, ok := want[k]; {
		case !ok:
			err = fmt.Errorf("golden: %s has no %s (regenerate with -update)", r.Workload, k)
		case w != r.Exact[k]:
			err = fmt.Errorf("golden: %s %s = %s, want %s", r.Workload, k, r.Exact[k], w)
		}
		r.check(err)
	}
	return nil
}

// host identifies the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitHead    string `json:"git_head"`
}

// sameMachine reports whether host times from h and o are comparable.
func (h *host) sameMachine(o *host) bool {
	return h != nil && o != nil && h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS
}

// hostStamp describes this machine and the checked-out commit. The
// commit comes from .git in the repository root when there is one.
func hostStamp(root string) *host {
	h := &host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GitHead: gitHead(filepath.Join(root, ".git"))}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitHead resolves HEAD from a .git directory without running git.
func gitHead(dir string) string {
	b, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(dir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
