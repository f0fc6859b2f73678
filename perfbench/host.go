package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the host fingerprint printed with every result, so a number
// can always be read against the machine that produced it.
type hostInfo struct {
	Nproc            int     `json:"nproc"`
	NumCPU           int     `json:"num_cpu"`
	GOMAXPROCSBench  int     `json:"gomaxprocs_bench"`
	GOMAXPROCSServer int     `json:"gomaxprocs_server"`
	Shards           int     `json:"shards"`
	GoVersion        string  `json:"go_version"`
	Kernel           string  `json:"kernel"`
	CPUModel         string  `json:"cpu_model"`
	StealSeconds     float64 `json:"steal_s"`  // over the reported attempt
	Attempts         int     `json:"attempts"` // runs made, see maxStealShare
}

// clockTicks is USER_HZ, the unit of /proc CPU times; Linux fixes it at
// 100 on every architecture Go supports.
const clockTicks = 100

func fingerprint() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	h.Nproc = h.NumCPU
	if out, err := exec.Command("nproc").Output(); err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(out))); err == nil && n > 0 {
			h.Nproc = n
		}
	}
	// Every process of the benchmark is pinned to nproc: the benchmark
	// itself, gps-serve (GOMAXPROCS env) and the engine shard count.
	h.GOMAXPROCSBench, h.GOMAXPROCSServer, h.Shards = h.Nproc, h.Nproc, h.Nproc
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// stealSeconds reads the host-wide CPU steal time: time the hypervisor ran
// something else while this machine's CPUs wanted to run. Its growth over
// a run is the noise no benchmark change can explain.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / clockTicks
}
