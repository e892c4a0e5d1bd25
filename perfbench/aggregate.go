package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// hostBlock describes the machine a run measured: CPU count, GOMAXPROCS,
// Go version, the checkout's git revision (when it is a git checkout),
// kernel and the filesystem holding the run data.
func hostBlock(root, dataDir string) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_rev":    gitRev(root),
		"kernel":     strings.TrimSpace(string(kernel)),
		"data_fs":    mountFS(dataDir),
	}
}

// gitRev reads HEAD from the checkout's .git directory without running git.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if rev, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "unknown"
}

// mountFS is the filesystem type of the longest /proc/mounts entry that
// contains path.
func mountFS(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, fs = mnt, fields[2]
		}
	}
	return fs
}

// runResult is the parsed last line of one child run.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// child runs this binary once for one workload, seed and trace mode, and
// parses its result line.
func child(o options, workload string, seed int64, trace bool) (runResult, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, 0, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "-root", o.root, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", tr, "-repeat", "1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	runErr := cmd.Run()
	wall := time.Since(t0)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, wall, fmt.Errorf("%s seed %d: no result line (%v, %v)", workload, seed, runErr, err)
	}
	return res, wall, runErr
}

// aggregate runs each selected workload o.repeat times untraced (seeds
// o.seed, o.seed+1, ...) and once traced, then prints per metric the raw
// values, median, quartiles and spread (IQR / median), and per end-to-end
// metric the tracing overhead (traced value / untraced median).
func aggregate(o options) int {
	var names []string
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "livebench: unknown workload %q\n", o.workload)
		return 2
	}
	repeat := max(o.repeat, 1)
	status := 0
	report := map[string]any{"host": hostBlock(o.root, filepath.Join(o.root, ".bench_build")), "seed": o.seed,
		"repeat": repeat, "seconds": o.seconds}
	perWorkload := map[string]any{}
	for _, name := range names {
		raw := map[string][]float64{}
		units := map[string]string{}
		var walls []float64
		for k := 0; k < repeat; k++ {
			res, wall, err := child(o, name, o.seed+int64(k), false)
			walls = append(walls, wall.Seconds())
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "livebench: %s seed %d: correct=%v err=%v\n", name, o.seed+int64(k), res.Correct, err)
				status = 1
			}
			for m, v := range res.Metrics {
				raw[m] = append(raw[m], v.Value)
				units[m] = v.Unit
			}
		}
		traced, _, err := child(o, name, o.seed, true)
		if err != nil || !traced.Correct {
			fmt.Fprintf(os.Stderr, "livebench: %s traced: correct=%v err=%v\n", name, traced.Correct, err)
			status = 1
		}
		rows := map[string]any{}
		var keys []string
		for m := range raw {
			keys = append(keys, m)
		}
		sort.Strings(keys)
		fmt.Printf("== %s (%d runs, seeds %d..%d)\n", name, repeat, o.seed, o.seed+int64(repeat)-1)
		for _, m := range keys {
			q1, med, q3 := quartiles(raw[m])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			overhead := 0.0
			if tv, ok := traced.Metrics["traced."+m]; ok && med != 0 {
				overhead = tv.Value / med
			}
			fmt.Printf("%-22s median %12.4f %-5s q1 %12.4f q3 %12.4f spread %6.3f trace_overhead %6.3f\n",
				m, med, units[m], q1, q3, spread, overhead)
			rows[m] = map[string]any{"unit": units[m], "raw": raw[m], "median": med, "q1": q1, "q3": q3,
				"spread": spread, "trace_overhead": overhead}
		}
		layers := map[string]float64{}
		var lkeys []string
		for m, v := range traced.Metrics {
			layers[m] = v.Value
			lkeys = append(lkeys, m)
		}
		sort.Strings(lkeys)
		for _, m := range lkeys {
			fmt.Printf("  layer %-32s %14.4f %s\n", m, layers[m], traced.Metrics[m].Unit)
		}
		perWorkload[name] = map[string]any{"end_to_end": rows, "per_layer": layers, "wall_s_raw": walls}
	}
	report["workloads"] = perWorkload
	j, _ := json.Marshal(report)
	fmt.Printf("manifest %s\n", j)
	return status
}
