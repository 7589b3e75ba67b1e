package mclg

// End-to-end tests that build and run the actual command-line binaries.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCmd compiles one of the cmd/ binaries into a temp dir and returns
// the executable path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestE2EMclgLegalizesBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "mclg")
	out := run(t, bin, "-bench", "fft_2", "-scale", "0.004", "-v")
	if !strings.Contains(out, "legality: legal") {
		t.Errorf("output missing legality line:\n%s", out)
	}
	if !strings.Contains(out, "converged=true") {
		t.Errorf("MMSIM did not converge:\n%s", out)
	}
	// Every method must produce a legal result on the same input.
	for _, m := range []string{"dac16", "dac16imp", "aspdac17"} {
		out := run(t, bin, "-bench", "fft_2", "-scale", "0.004", "-method", m)
		if !strings.Contains(out, "legality: legal") {
			t.Errorf("method %s: output missing legality line:\n%s", m, out)
		}
	}
}

// TestE2EMclgErrorPrefix drives two refusals whose error chains carry the
// taxonomy's "mclg: invalid input" sentinel, one wrapped in a stage; each
// must print one error line with one "mclg:" prefix and exit 2.
func TestE2EMclgErrorPrefix(t *testing.T) {
	bin := buildCmd(t, "mclg")
	for _, tc := range []struct {
		flags []string
		line  string
	}{
		{[]string{"-method", "bogus"}, `mclg: invalid input: baselines: unknown method "bogus"`},
		{[]string{"-beta", "2.5"}, "mclg: validate: invalid input: options: Beta = 2.5 must lie in (0, 2)"},
	} {
		args := append([]string{"-bench", "fft_2", "-scale", "0.004"}, tc.flags...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("mclg %v: %v, want exit code 2:\n%s", tc.flags, err, out)
		}
		if n := strings.Count(string(out), "mclg:"); n != 1 || !strings.Contains(string(out), tc.line+"\n") {
			t.Errorf("mclg %v printed %d \"mclg:\" prefixes, want one error line %q:\n%s", tc.flags, n, tc.line, out)
		}
	}
}

func TestE2EMclgResilientCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "mclg")
	out := run(t, bin, "-bench", "fft_2", "-scale", "0.004", "-resilient", "-v")
	if !strings.Contains(out, `resilient: succeeded on rung "mmsim"`) {
		t.Errorf("cascade did not succeed on the first rung:\n%s", out)
	}
	if !strings.Contains(out, "legality: legal") {
		t.Errorf("output missing legality line:\n%s", out)
	}
}

// TestE2EMclgWorkersMatchSerial checks the CLI end of the determinism
// contract: -workers 4 must print exactly the same quality metrics as
// -workers 1 (the per-package tests pin the stronger bit-identical claim).
func TestE2EMclgWorkersMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "mclg")
	metricLines := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "total displacement:") ||
				strings.HasPrefix(line, "HPWL:") ||
				strings.HasPrefix(line, "legality:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	serial := metricLines(run(t, bin, "-bench", "des_perf_1", "-scale", "0.004", "-workers", "1"))
	if !strings.Contains(serial, "legality: legal") {
		t.Fatalf("serial run not legal:\n%s", serial)
	}
	parallel := metricLines(run(t, bin, "-bench", "des_perf_1", "-scale", "0.004", "-workers", "4"))
	if parallel != serial {
		t.Errorf("-workers 4 metrics diverged from -workers 1:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestE2EMclgWindowed smokes the -windows flag: the supervised windowed run
// must come out legal, print the supervision summary, and carry the window
// stats in the -json report.
func TestE2EMclgWindowed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "mclg")
	out := run(t, bin, "-bench", "fft_2", "-scale", "0.004", "-windows", "-window-rows", "4")
	if !strings.Contains(out, "legality: legal") {
		t.Errorf("windowed run not legal:\n%s", out)
	}
	if !strings.Contains(out, "windows: ") {
		t.Errorf("output missing window supervision summary:\n%s", out)
	}
	jsonOut := run(t, bin, "-bench", "fft_2", "-scale", "0.004", "-windows", "-window-rows", "4", "-json")
	if !strings.Contains(jsonOut, `"windows"`) || !strings.Contains(jsonOut, `"solved"`) {
		t.Errorf("-json report missing window stats:\n%s", jsonOut)
	}
	// Flag hygiene: windowed knobs without -windows are refused.
	if _, err := exec.Command(bin, "-bench", "fft_2", "-hedge", "0.5").CombinedOutput(); err == nil {
		t.Error("-hedge without -windows should be refused")
	}
}

// slowArgs is a CLI invocation that runs for about a minute when left alone
// — long enough that a timeout or signal reliably lands mid-solve. The
// legalization itself ends in milliseconds; the audit's tight MMSIM-only
// re-solve is what runs long. Both tests fail if the run ends first.
var slowArgs = []string{"-bench", "superblue19", "-scale", "0.004", "-audit"}

func TestE2EMclgTimeoutAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "mclg")
	cmd := exec.Command(bin, append([]string{"-timeout", "300ms"}, slowArgs...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected the run to abort, got success:\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("expected exit code 2, got %v:\n%s", err, out)
	}
	if !strings.Contains(string(out), "canceled") {
		t.Errorf("abort message missing 'canceled':\n%s", out)
	}
}

func TestE2EMclgSigintAbortsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "mclg")
	cmd := exec.Command(bin, slowArgs...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1 * time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	out := buf.String()
	if err == nil {
		t.Fatalf("expected SIGINT to abort the run, got success:\n%s", out)
	}
	// A clean abort exits through the error path (code 2), not signal death.
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("expected exit code 2 after SIGINT, got %v:\n%s", err, out)
	}
	if !strings.Contains(out, "canceled") {
		t.Errorf("abort message missing 'canceled':\n%s", out)
	}
}

func TestE2EBenchgenRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	benchgen := buildCmd(t, "benchgen")
	mclg := buildCmd(t, "mclg")
	dir := t.TempDir()
	out := run(t, benchgen, "-out", dir, "-bench", "pci_bridge32_b", "-scale", "0.01")
	if !strings.Contains(out, "pci_bridge32_b") {
		t.Fatalf("benchgen output:\n%s", out)
	}
	aux := filepath.Join(dir, "pci_bridge32_b", "pci_bridge32_b.aux")
	if _, err := os.Stat(aux); err != nil {
		t.Fatal(err)
	}
	// Legalize the written Bookshelf files and export the result.
	outAux := filepath.Join(dir, "legal.aux")
	out = run(t, mclg, "-aux", aux, "-out", outAux)
	if !strings.Contains(out, "legality: legal") {
		t.Errorf("legalizing bookshelf failed:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "legal.pl")); err != nil {
		t.Error("legalized .pl not written")
	}
}

func TestE2ERenderLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "renderlayout")
	svg := filepath.Join(t.TempDir(), "out.svg")
	out := run(t, bin, "-bench", "fft_2", "-scale", "0.004", "-legalize", "-out", svg)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("renderlayout output:\n%s", out)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("output is not an SVG")
	}
}

func TestE2EExperimentsSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmd(t, "experiments")
	out := run(t, bin, "-single", "-scale", "0.004", "-bench", "fft_2")
	if !strings.Contains(out, "runtime ratio") {
		t.Errorf("experiments output:\n%s", out)
	}
}
