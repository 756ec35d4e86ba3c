package dropscope

import (
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the real binaries and drives the full file-based
// flow: synthgen writes archives, dropscope re-analyzes them, mrtdump and
// irrgrep inspect them, and roacheck validates the case-study hijack
// against an emitted ROA snapshot.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds binaries")
	}
	bin := t.TempDir()
	for _, tool := range []string{"synthgen", "dropscope", "dropscoped", "mrtdump", "irrgrep", "roacheck"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	run := func(tool string, args ...string) (string, error) {
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	world := t.TempDir()
	if out, err := run("synthgen", "-dir", world, "-scale", "2048"); err != nil {
		t.Fatalf("synthgen: %v\n%s", err, out)
	}

	out, err := run("dropscope", "-load", world, "-scale", "2048")
	if err != nil {
		t.Fatalf("dropscope -load: %v\n%s", err, out)
	}
	for _, want := range []string{"Figure 1", "Table 1", "RPKI-VALID HIJACK", "132.255.0.0/22"} {
		if !strings.Contains(out, want) {
			t.Errorf("dropscope output missing %q", want)
		}
	}

	mrts, err := filepath.Glob(filepath.Join(world, "mrt", "*.mrt"))
	if err != nil || len(mrts) == 0 {
		t.Fatalf("no mrt files: %v", err)
	}
	out, err = run("mrtdump", mrts[0])
	if err != nil {
		t.Fatalf("mrtdump: %v\n%s", err, out)
	}
	if !strings.Contains(out, "PEER_INDEX") || !strings.Contains(out, "|RIB|") {
		t.Errorf("mrtdump output unexpected:\n%.500s", out)
	}

	out, err = run("irrgrep",
		"-journal", filepath.Join(world, "irr", "journal.rpsl"),
		"-prefix", "132.255.0.0/22")
	// The case-study prefix has no route object; irrgrep exits 1 with a
	// clean message.
	if err == nil || !strings.Contains(out, "no route object history") {
		t.Errorf("irrgrep case prefix: err=%v out=%q", err, out)
	}

	// Find a ROA snapshot that covers the case prefix and validate the
	// forged-origin announcement: it must be VALID (exit 0) — the §6.1
	// finding straight from the CLI.
	csvs, err := filepath.Glob(filepath.Join(world, "rpki", "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no roa snapshots: %v", err)
	}
	latest := csvs[len(csvs)-1]
	out, err = run("roacheck", "-roas", latest, "-prefix", "132.255.0.0/22", "-origin", "AS263692")
	if err != nil {
		t.Fatalf("roacheck valid case: %v\n%s", err, out)
	}
	if !strings.Contains(out, "valid") {
		t.Errorf("roacheck output: %q", out)
	}
	// A wrong origin must be invalid (exit 1).
	out, err = run("roacheck", "-roas", latest, "-prefix", "132.255.0.0/22", "-origin", "50509")
	if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
		t.Errorf("roacheck invalid case: err=%v out=%q", err, out)
	}

	// dropscoped is configured only by what differs between deployments;
	// every other tuning value is a constant. A tenth flag is a
	// deliberate edit here.
	out, _ = run("dropscoped", "-h")
	var flags []string
	for _, line := range strings.Split(out, "\n") {
		if f, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, strings.Fields(f)[0])
		}
	}
	slices.Sort(flags)
	want := []string{"archive", "first", "last", "listen", "max-inflight", "mem-budget", "shards", "snapshot", "watch"}
	if !slices.Equal(flags, want) {
		t.Errorf("dropscoped -h lists flags %v, want exactly %v", flags, want)
	}

	// -mem-budget bounds the residency of the store's shard files, and
	// -shards cuts the store's generations; with no store, or with a
	// one-shard generation, there is nothing to bound or cut, and the
	// programs must say so instead of silently serving something else.
	for _, tc := range []struct {
		tool string
		args []string
		want []string
	}{
		{"dropscoped", []string{"-archive", world, "-snapshot", "off", "-shards", "4", "-mem-budget", "2"}, []string{"-mem-budget"}},
		{"dropscoped", []string{"-archive", world, "-mem-budget", "2"}, []string{"-mem-budget", "-shards"}},
		{"dropscoped", []string{"-archive", world, "-snapshot", "off", "-shards", "4"}, []string{"-shards", "-snapshot"}},
		{"dropscope", []string{"-load", world, "-index-cache", "off", "-shards", "4"}, []string{"-shards", "-index-cache"}},
	} {
		out, err = run(tc.tool, tc.args...)
		exitErr, ok := err.(*exec.ExitError)
		refused := ok && exitErr.ExitCode() != 0
		for _, w := range tc.want {
			refused = refused && strings.Contains(out, w)
		}
		if !refused {
			t.Errorf("%s %v: err=%v out=%q, want a refusal naming %v", tc.tool, tc.args, err, out, tc.want)
		}
	}
}
