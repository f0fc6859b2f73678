package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a process the benchmark started. Every child is stopped and
// waited for before the benchmark exits, on every path.
type child struct {
	cmd    *exec.Cmd
	stderr *tailWriter
	done   chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after done
}

var children struct {
	sync.Mutex
	live map[*child]bool
}

// startChild starts bin with args and the given extra environment. The
// child dies with the benchmark (Pdeathsig), and its standard error is
// kept (the tail) for error messages and scanned by onLine, if set.
func startChild(bin string, args, env []string, onLine func(string)) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	tw := &tailWriter{onLine: onLine}
	cmd.Stderr = tw
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, stderr: tw, done: make(chan struct{})}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	go func() {
		c.err = cmd.Wait()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// wait blocks until the child exits and returns its exit error.
func (c *child) wait() error {
	<-c.done
	return c.err
}

// stop asks the child to exit with SIGTERM and kills it if it has not
// exited within grace. It returns once the child has been reaped.
func (c *child) stop(grace time.Duration) {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(grace):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// rusage is the child's resource usage after it exited.
func (c *child) rusage() *syscall.Rusage {
	<-c.done
	ru, _ := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

func stopAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.stop(2 * time.Second)
	}
}

// tailWriter keeps the last lines a child wrote and hands each complete
// line to onLine.
type tailWriter struct {
	mu     sync.Mutex
	onLine func(string)
	part   []byte
	tail   []string
}

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.part = append(t.part, p...)
	for {
		i := bytes.IndexByte(t.part, '\n')
		if i < 0 {
			break
		}
		line := string(t.part[:i])
		t.part = t.part[i+1:]
		if t.onLine != nil {
			t.onLine(line)
		}
		t.tail = append(t.tail, line)
		if len(t.tail) > 20 {
			t.tail = t.tail[1:]
		}
	}
	return len(p), nil
}

func (t *tailWriter) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(append(t.tail, string(t.part)), "\n")
}

// procCPU reads a live process's user plus system CPU time, all threads
// included, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; the fields
	// after it start with the state (field 3), utime and stime are 14, 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procPeakRSS reads a live process's peak resident set size (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
