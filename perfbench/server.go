package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// server is one gps-serve process the benchmark launched on loopback.
type server struct {
	proc *child
	base string        // http://host:port
	boot time.Duration // launch until the first 200 on /healthz
}

// launchServer starts gps-serve with GOMAXPROCS and the shard count pinned
// to the benchmark's processor count, and returns once /healthz answers
// 200: the boot time is what an operator restarting the service waits.
func launchServer(o *options, args ...string) (*server, error) {
	ready := make(chan string, 1)
	onLine := func(line string) {
		// "gps-serve: listening on 127.0.0.1:PORT (m=... )"
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			select {
			case ready <- addr:
			default:
			}
		}
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-shards", strconv.Itoa(o.procs)}, args...)
	start := time.Now()
	proc, err := startChild(o.serveBin, args, []string{"GOMAXPROCS=" + strconv.Itoa(o.procs)}, onLine)
	if err != nil {
		return nil, fmt.Errorf("start gps-serve: %w", err)
	}
	s := &server{proc: proc}
	var addr string
	select {
	case addr = <-ready:
	case <-proc.done:
		return nil, fmt.Errorf("gps-serve exited during boot: %v\n%s", proc.err, proc.stderr)
	case <-time.After(60 * time.Second):
		proc.stop(time.Second)
		return nil, fmt.Errorf("gps-serve did not start listening within 60s\n%s", proc.stderr)
	}
	s.base = "http://" + addr
	hc := newConn(s.base)
	defer hc.close()
	for {
		status, _, err := hc.get("/healthz")
		if err == nil && status == http.StatusOK {
			break
		}
		if time.Since(start) > 60*time.Second {
			proc.stop(time.Second)
			return nil, fmt.Errorf("gps-serve /healthz not ready within 60s (status %d, %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
	s.boot = time.Since(start)
	return s, nil
}

// shutdown stops the server gracefully and reaps it.
func (s *server) shutdown() {
	s.proc.stop(20 * time.Second)
}

// usage reads the server's CPU time and peak RSS while it runs.
func (s *server) usage() (cpu time.Duration, peakMiB float64, err error) {
	if cpu, err = procCPU(s.proc.pid()); err != nil {
		return 0, 0, err
	}
	peakMiB, err = procPeakRSS(s.proc.pid())
	return cpu, peakMiB, err
}

// conn is one keep-alive HTTP connection to a server: the generator never
// opens more than its workload's connections.
type conn struct {
	c    *http.Client
	tr   *http.Transport
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr, base: base}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and the body, which stays
// valid until the next call on c.
func (c *conn) do(method, path, ctype string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) get(path string) (int, []byte, error) { return c.do(http.MethodGet, path, "", nil) }

func (c *conn) post(path, ctype string, body []byte) (int, []byte, error) {
	return c.do(http.MethodPost, path, ctype, body)
}

// mustOK runs one request that has to answer 200 and returns its body.
func (c *conn) mustOK(method, path string) ([]byte, error) {
	status, body, err := c.do(method, path, "", nil)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrape is one parsed Prometheus text exposition: "name{labels}" → value.
type scrape map[string]float64

func parseScrape(text []byte) scrape {
	s := scrape{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

func (c *conn) metrics() (scrape, error) {
	body, err := c.mustOK(http.MethodGet, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseScrape(body), nil
}

// delta is after minus before for one series.
func delta(before, after scrape, key string) float64 { return after[key] - before[key] }
