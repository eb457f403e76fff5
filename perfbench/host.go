package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded with every result: numbers compare only
// between runs on one host.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func collectHost() hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (built outside a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// walInfo says where durable state lived and how it was flushed, so a
// durable-trust number is read against the right disk.
type walInfo struct {
	Dir        string `json:"dir"`
	Filesystem string `json:"filesystem"`
	MountPoint string `json:"mount_point"`
	Flush      string `json:"flush"`
}

func walReport(cfg config) *walInfo {
	if cfg.Workload != "durable-trust" {
		return nil
	}
	fs, mnt := filesystemOf(cfg.Dir)
	return &walInfo{
		Dir:        cfg.Dir,
		Filesystem: fs,
		MountPoint: mnt,
		Flush:      "WALSyncAlways (fsync before every acknowledged append); decision audit on",
	}
}

// filesystemOf finds the mount holding dir in /proc/self/mountinfo:
// the longest mount point that prefixes it.
func filesystemOf(dir string) (fstype, mountPoint string) {
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown", ""
	}
	defer f.Close()
	dir = filepath.Clean(dir)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		sep := -1
		for i, x := range fields {
			if x == "-" {
				sep = i
				break
			}
		}
		if len(fields) < 5 || sep < 0 || sep+1 >= len(fields) {
			continue
		}
		mp := fields[4]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(mountPoint) {
			mountPoint, fstype = mp, fields[sep+1]
		}
	}
	if fstype == "" {
		return "unknown", ""
	}
	return fstype, mountPoint
}
