package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// suiteEnv records where and how a result set was measured.
type suiteEnv struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

// suiteEntry is one workload's untraced and traced result lines.
type suiteEntry struct {
	Params   any        `json:"params"`
	EndToEnd resultLine `json:"end_to_end"`
	PerLayer resultLine `json:"per_layer"`
}

// suiteFile is a complete result set: what -out writes and -agree reads.
type suiteFile struct {
	Env       suiteEnv              `json:"env"`
	Workloads map[string]suiteEntry `json:"workloads"`
}

// runSuite runs every workload untraced and traced, each run in a process of
// its own so that memory and GC state never carry over, and optionally
// writes the combined result set.
func runSuite(w io.Writer, seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := suiteFile{
		Env: suiteEnv{
			Seed: seed, Seconds: seconds, Commit: headCommit(),
			NProc: runtime.NumCPU(), GOMAXPROCS: workloadProcs, GoVersion: runtime.Version(),
		},
		Workloads: make(map[string]suiteEntry),
	}
	incorrect := false
	for _, wl := range workloads {
		entry := suiteEntry{Params: wl.Params}
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", wl.Name,
				"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
			var stdout bytes.Buffer
			cmd.Stdout = io.MultiWriter(w, &stdout)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			line, err := lastLine(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s -trace %s: %w (run: %v)", wl.Name, trace, err, runErr)
			}
			if !line.Correct {
				incorrect = true
			}
			if trace == "0" {
				entry.EndToEnd = line
			} else {
				entry.PerLayer = line
			}
		}
		set.Workloads[wl.Name] = entry
	}
	if out != "" {
		buf, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// lastLine parses the result line that ends a run's output.
func lastLine(stdout []byte) (resultLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}

// headCommit names the commit being measured, when the checkout is a git
// repository.
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func readSuite(path string) (suiteFile, error) {
	var set suiteFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(buf, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// agreeFiles compares two result sets of the same commit and seed: metrics
// that are counts of deterministic work must be identical, end-to-end
// timings and memory must lie within the metric's bound of each other. It
// prints one row per workload and metric and fails on any breach.
func agreeFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	breaches := agree(w, a, b)
	if breaches > 0 {
		return fmt.Errorf("%d metrics disagree", breaches)
	}
	return nil
}

func agree(w io.Writer, a, b suiteFile) (breaches int) {
	if a.Env.Seed != b.Env.Seed {
		fmt.Fprintf(w, "seeds differ (%d, %d): counts are not expected to match\n", a.Env.Seed, b.Env.Seed)
		breaches++
	}
	fmt.Fprintf(w, "%-16s %-34s %14s %14s %8s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict")
	row := func(wl, metric string, va, vb float64, rule, verdict string) {
		fmt.Fprintf(w, "%-16s %-34s %14.6g %14.6g %8.4f  %s %s\n", wl, metric, va, vb, ratio(vb, va), verdict, rule)
		if verdict != "ok" {
			breaches++
		}
	}
	for _, wl := range workloads {
		ea, okA := a.Workloads[wl.Name]
		eb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-16s missing from a result set\n", wl.Name)
			breaches++
			continue
		}
		row(wl.Name, "ops_attempted", float64(ea.EndToEnd.Attempted), float64(eb.EndToEnd.Attempted), "(exact)",
			verdictOf(ea.EndToEnd.Attempted == eb.EndToEnd.Attempted))
		row(wl.Name, "ops_failed", float64(ea.EndToEnd.Failed), float64(eb.EndToEnd.Failed), "(exact)",
			verdictOf(ea.EndToEnd.Failed == eb.EndToEnd.Failed))
		for _, d := range endToEnd {
			va, vb := ea.EndToEnd.Metrics[d.Name].Value, eb.EndToEnd.Metrics[d.Name].Value
			if d.Exact {
				row(wl.Name, d.Name, va, vb, "(exact)", verdictOf(va == vb))
				continue
			}
			lo, hi := min(va, vb), max(va, vb)
			row(wl.Name, d.Name, va, vb, fmt.Sprintf("(within %g)", d.Bound), verdictOf(lo > 0 && hi/lo-1 <= d.Bound))
		}
		for _, d := range perLayer {
			va, vb := ea.PerLayer.Metrics[d.Name].Value, eb.PerLayer.Metrics[d.Name].Value
			if d.Exact {
				row(wl.Name, d.Name, va, vb, "(exact)", verdictOf(va == vb))
			} else if va != 0 || vb != 0 {
				row(wl.Name, d.Name, va, vb, "(not gated)", "ok")
			}
		}
	}
	return breaches
}

func verdictOf(ok bool) string {
	if ok {
		return "ok"
	}
	return "BREACH"
}
