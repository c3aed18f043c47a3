package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// printHost prints the host fingerprint every recorded result carries:
// CPU model, CPU count, Go version, kernel, and the filesystem of the
// directory holding the op logs.
func printHost(dir string) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("host cpu=%q nproc=%d go=%s kernel=%s oplog_fs=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.Version(), strings.TrimSpace(string(kernel)), filesystem(dir))
	fmt.Println("host note: fsync and recovery times are those of this host's filesystem and page cache, not of a dedicated storage device")
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

// filesystem returns the type of the mount holding dir: the longest
// mount point of /proc/self/mounts that prefixes it.
func filesystem(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
