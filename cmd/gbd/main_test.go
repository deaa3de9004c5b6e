package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
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
// the golden cells, drop a client whose request headers stall, then drain
// on SIGTERM and exit 0.
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

	// The stalled and idle clients wait out readHeaderTimeout and
	// idleTimeout while the sweep runs.
	stalled := make(chan error, 1)
	go func() { stalled <- stallHeaders(strings.TrimPrefix(url, "http://")) }()
	idle := make(chan error, 1)
	go func() { idle <- idleKeepAlive(strings.TrimPrefix(url, "http://")) }()

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
	if err := <-stalled; err != nil {
		t.Error(err)
	}
	if err := <-idle; err != nil {
		t.Error(err)
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

// stallHeaders connects to the daemon at addr, sends half a request line and
// no more, and reports an error unless the daemon closes the connection once
// readHeaderTimeout has passed. net/http may answer 400 Bad Request as it
// hangs up; only the close matters here.
func stallHeaders(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		return err
	}
	return awaitClose(conn, conn, start, readHeaderTimeout, "a connection with stalled headers")
}

// idleKeepAlive connects to the daemon at addr, completes one request on
// the keep-alive connection and then sends nothing, and reports an error
// unless the daemon closes the connection once idleTimeout has passed.
func idleKeepAlive(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: gbd\r\n\r\n")); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	return awaitClose(conn, br, time.Now(), idleTimeout, "an idle keep-alive connection")
}

// awaitClose reads r, conn's buffered reader or conn itself, until the
// daemon closes conn, and reports an error unless the close comes about
// timeout after start (allowing a few seconds of slack).
func awaitClose(conn net.Conn, r io.Reader, start time.Time, timeout time.Duration, what string) error {
	if err := conn.SetReadDeadline(start.Add(timeout + 5*time.Second)); err != nil {
		return err
	}
	_, err := io.ReadAll(r) // returns at the daemon's close or our deadline
	elapsed := time.Since(start)
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("daemon still held %s after %v", what, elapsed)
	case elapsed < timeout-time.Second:
		return fmt.Errorf("daemon dropped %s after %v, before its %v timeout (err=%v)", what, elapsed, timeout, err)
	}
	return nil
}
