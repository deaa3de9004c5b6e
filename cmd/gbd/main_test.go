package main

import (
	"bytes"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary re-exec itself as the real daemon and
// client, so exit codes, output, and signal handling can be asserted
// without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("GBD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GBD_RUN_MAIN=1")
	return cmd
}

func TestUnknownFlagExitsNonZero(t *testing.T) {
	out, err := command("-no-such-flag").CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("unknown flag did not exit non-zero (err=%v); output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "no-such-flag") {
		t.Errorf("error does not name the bad flag:\n%s", out)
	}
}

// TestDaemonLifecycle drives the binary end to end: serve on a free port
// and publish the bound address, answer the client mode's SSE sweep with
// the golden cells, then drain on SIGTERM and exit 0.
func TestDaemonLifecycle(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	daemon := command("-addr", "127.0.0.1:0", "-addr-file", addrFile, "-workers", "2")
	var logs bytes.Buffer
	daemon.Stderr = &logs
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer func() {
		daemon.Process.Kill()
		<-exited
	}()

	var url string
	for deadline := time.Now().Add(10 * time.Second); url == ""; time.Sleep(20 * time.Millisecond) {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			url = "http://" + strings.TrimSpace(string(b))
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon wrote no address to -addr-file; log:\n%s", logs.String())
		}
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}

	cells, err := command("-post", "../../examples/scenarios/modern-weibull.json", "-url", url).Output()
	if err != nil {
		t.Fatalf("-post failed: %v; daemon log:\n%s", err, logs.String())
	}
	golden, err := os.ReadFile("../../examples/scenarios/modern-weibull.cells.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cells, golden) {
		t.Errorf("-post cells differ from the golden:\n--- got ---\n%s--- want ---\n%s", cells, golden)
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err // for the deferred cleanup
		if err != nil {
			t.Fatalf("daemon exited with %v after SIGTERM; log:\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; log:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained") {
		t.Errorf("no drain confirmation in the daemon log:\n%s", logs.String())
	}
}
