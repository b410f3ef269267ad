package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// at the golden seed and at another seed, and requires its correctness
// checks to pass and every catalog metric to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, seed := range []uint64{goldenSeed, 11} {
			for _, traced := range []bool{false, true} {
				if seed != goldenSeed && traced {
					continue
				}
				dir := t.TempDir()
				opts := options{seed: seed, seconds: 0.3, trace: traced, root: "..", work: dir,
					spans: filepath.Join(dir, "spans.csv")}
				out, err := w.run(opts)
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
				}
				if out.checkErr != nil {
					t.Fatalf("%s seed %d traced=%v: check failed: %v", w.name, seed, traced, out.checkErr)
				}
				res, err := buildResult(out, traced)
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("%s seed %d traced=%v: %+v", w.name, seed, traced, res)
				}
				if !traced {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, m.Value)
						}
					}
				}
			}
		}
	}
}

func TestRunPrintsOneResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	root := t.TempDir()
	// The rail workload reads its golden from the checkout root.
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "rail-ring", "-seconds", "0.1", "-root", root}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("run without the golden exited 0: %s", stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed run printed a result: %s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	abs, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	code = run([]string{"-workload", "rail-ring", "-seconds", "0.1", "-root", abs,
		"-spans", filepath.Join(root, "spans.csv")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "rail-ring", "-trace", "2"},
		{"-workload", "rail-ring", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
