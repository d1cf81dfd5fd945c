package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// runMeta describes the machine and the configuration a result was
// measured on.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	History    int     `json:"history"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	DataFS     string  `json:"data_fs"`
	Wiring     string  `json:"wiring"`
}

func collectMeta(o options) (runMeta, error) {
	fsType, err := fsName(o.work)
	if err != nil {
		return runMeta{}, err
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: reported empty
	return runMeta{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		History:    history,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
		DataFS:     fsType,
		Wiring:     wiring,
	}, nil
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

// fsName names the file system holding dir from its statfs magic.
func fsName(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", err
	}
	names := map[int64]string{
		0xEF53:     "ext2/3/4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n, nil
	}
	return fmt.Sprintf("0x%x", st.Type), nil
}
