package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from current output")

// buildExperiments compiles the experiments binary under test. It builds
// without the race detector even under go test -race: the pin checks output
// bytes, and a race build of every experiment costs over a minute.
func buildExperiments(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestAllGolden pins the stdout of -exp all byte for byte: every table and
// figure the reproduction produces, at the default seeds. A change to any
// simulated number, however small, fails it; one that means to move numbers
// regenerates the golden with
//
//	go test ./cmd/experiments -run TestAllGolden -update
//
// and the diff shows exactly which numbers moved. Output is the same at
// every -workers count, so two workers keep the test's wall time down.
func TestAllGolden(t *testing.T) {
	bin := buildExperiments(t)
	cmd := exec.Command(bin, "-exp", "all", "-workers", "2")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments -exp all: %v\n%s", err, stderr.Bytes())
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestAllGolden -update to create it)", err)
	}
	got := stdout.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	line := func(l [][]byte) []byte {
		if i < len(l) {
			return l[i]
		}
		return []byte("<end of output>")
	}
	t.Fatalf("-exp all stdout differs from %s (%d bytes, want %d); first at line %d:\ngot:  %q\nwant: %q",
		path, len(got), len(want), i+1, line(gl), line(wl))
}
