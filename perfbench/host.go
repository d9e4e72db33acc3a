package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"strings"
)

// hostRecord describes the machine a run measured, as one JSON object:
// core count, GOMAXPROCS, Go version, CPU model, the filesystem the
// journal directory sits on, and whether the collector address is on a
// loopback interface.
func hostRecord(journalDir string) string {
	fs, dev := mountOf(journalDir)
	rec := map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
		"journal_fs":  fs,
		"journal_dev": dev,
		"loopback":    isLoopback(collectorHost),
		"collector":   collectorHost,
	}
	b, _ := json.Marshal(rec) // a map of plain values always marshals
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// mountOf returns the filesystem type and device of the mount holding
// path: the longest mount point in /proc/mounts that prefixes it.
func mountOf(path string) (fstype, device string) {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown", "unknown"
	}
	defer f.Close()
	best := -1
	fstype, device = "unknown", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, device, fstype = len(mp), fields[0], fields[2]
		}
	}
	return fstype, device
}

// isLoopback reports whether host is assigned to a loopback interface.
func isLoopback(host string) bool {
	ip := net.ParseIP(host)
	ifs, err := net.Interfaces()
	if ip == nil || err != nil {
		return false
	}
	for _, ifc := range ifs {
		if ifc.Flags&net.FlagLoopback == 0 {
			continue
		}
		addrs, err := ifc.Addrs()
		if err != nil {
			continue
		}
		for _, a := range addrs {
			if n, ok := a.(*net.IPNet); ok && n.Contains(ip) {
				return true
			}
		}
	}
	return false
}
