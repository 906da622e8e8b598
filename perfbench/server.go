package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one iokserve process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	addr string
	dir  string // -data-dir
	log  *os.File
}

// live tracks every started server so that any exit path can kill them.
var live struct {
	sync.Mutex
	m map[*server]bool
}

// startTimeout bounds how long a server may take to print LISTENING
// (recovery runs before the listener opens).
const startTimeout = 120 * time.Second

// startServer execs bin on a loopback port with dir as its data directory
// and waits for its LISTENING line. Server logs go to dir + ".log".
func startServer(bin, dir string, w workload) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-log-level", "warn"}
	if w.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(w.shards), "-shard-seed", "9")
	}
	logf, err := os.OpenFile(dir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, dir: dir, log: logf}
	live.Lock()
	if live.m == nil {
		live.m = map[*server]bool{}
	}
	live.m[s] = true
	live.Unlock()

	line := make(chan string, 1)
	go func() {
		l, _ := bufio.NewReader(stdout).ReadString('\n')
		line <- l
		_, _ = io.Copy(io.Discard, stdout) // the server writes nothing else
	}()
	select {
	case l := <-line:
		addr, ok := strings.CutPrefix(strings.TrimSpace(l), "LISTENING ")
		if !ok {
			s.kill()
			return nil, fmt.Errorf("iokserve did not start (stdout %q); log: %s", l, s.logTail())
		}
		s.addr = addr
		return s, nil
	case <-time.After(startTimeout):
		s.kill()
		return nil, fmt.Errorf("iokserve not listening after %v; log: %s", startTimeout, s.logTail())
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process to be reaped. Killing
// without a shutdown checkpoint is what the durability checks rely on.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	s.log.Close()
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.dir + ".log")
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// killAll stops every server still running.
func killAll() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// copyDir copies a data directory tree (regular files and directories
// only), so that every restart can recover from the same crashed state.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
