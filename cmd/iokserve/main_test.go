package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain runs iokserve's main instead of the tests when
// IOKSERVE_RUN_MAIN=1, so a test can start the command as a child process
// of the test binary and read its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("IOKSERVE_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestKernelFlagsRejected: the corpus runs Kast only, so -kernel, -k and
// -count are unknown flags, and the sketch index has no LSH bands, so
// -ann-bands and -ann-rows are too. iokserve exits 2 with a usage message
// before it listens. A server that accepted one would keep running until
// the timeout kills it, which fails the test too.
func TestKernelFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-kernel", "blended"}, {"-k", "5"}, {"-count"}, {"-ann-bands", "16"}, {"-ann-rows", "8"}} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append(args, "-addr", "127.0.0.1:0")...)
		cmd.Env = append(os.Environ(), "IOKSERVE_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("iokserve %v: %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Errorf("iokserve %v: output lacks %q:\n%s", args, want, out)
		}
	}
}

// TestListenAndAnnounce pins the machine-parsable readiness line: binding
// :0 must print the *resolved* address (real port, not ":0"), in exactly
// the `LISTENING host:port` form cmd/iokload and the CI load-smoke job
// parse, and the printed address must actually accept connections.
func TestListenAndAnnounce(t *testing.T) {
	var out strings.Builder
	ln, err := listenAndAnnounce("127.0.0.1:0", &out)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	line := out.String()
	if !regexp.MustCompile(`^LISTENING 127\.0\.0\.1:\d+\n$`).MatchString(line) {
		t.Fatalf("announce line %q not machine-parsable", line)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "LISTENING "))
	if addr != ln.Addr().String() {
		t.Fatalf("announced %q but listening on %q", addr, ln.Addr())
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("announced unresolved port: %q", addr)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial announced address: %v", err)
	}
	conn.Close()
}

// TestListenAndAnnounceBindError checks a bad address fails without
// printing a readiness line a harness could mistake for success.
func TestListenAndAnnounceBindError(t *testing.T) {
	var out strings.Builder
	ln, err := listenAndAnnounce("256.256.256.256:0", &out)
	if err == nil {
		ln.Close()
		t.Fatal("expected bind error")
	}
	if out.Len() != 0 {
		t.Fatalf("bind failed but announced %q", out.String())
	}
}
