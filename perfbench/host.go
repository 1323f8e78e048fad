package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord describes the machine and the code a run measured. The
// calibration time is recorded so runs on a slowed host can be spotted; it
// never rescales a result.
type hostRecord struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	SourceSHA256  string  `json:"source_sha256"`
	StoreFS       string  `json:"store_fs"`
	CalibrationMS float64 `json:"calibration_ms"`
	// BenchHWMMB is this process's peak RSS before the calibration loop ran.
	BenchHWMMB float64 `json:"bench_hwm_mb"`
}

func hostInfo(storeDir string) hostRecord {
	return hostRecord{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        gitCommit(),
		SourceSHA256:  sourceHash(),
		StoreFS:       fsType(storeDir),
		BenchHWMMB:    float64(ownHWMKB()) / 1024,
		CalibrationMS: calibrate(),
	}
}

// ownHWMKB reads this process's peak resident set (VmHWM) in KiB; 0 when
// /proc is not available.
func ownHWMKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// gitCommit reads HEAD without running git. A plain source tree (no .git)
// reports "none"; sourceHash identifies the code either way.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown (" + ref + ")"
	}
	return strings.TrimSpace(string(id))
}

// sourceHash hashes the program's sources: go.mod and every file under cmd
// and internal, with their paths, in lexical order.
func sourceHash() string {
	h := sha256.New()
	add := func(path string) {
		f, err := os.Open(path)
		if err != nil {
			return
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
	}
	add("go.mod")
	for _, root := range []string{"cmd", "internal"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				add(path)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsMagic names the statfs magic numbers of the file systems a store is
// likely to sit on.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xef53:     "ext4",
	0x794c7630: "overlayfs",
	0x9123683e: "btrfs",
	0x58465342: "xfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// calibrationSink keeps the calibration loop's allocations reachable so the
// compiler cannot drop them.
var calibrationSink [][]byte

// calibrate times a fixed CPU and allocation loop — hashing 16 MiB and
// allocating 50,000 small slices — and returns the median of five passes in
// milliseconds.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	times := make([]float64, 5)
	for r := range times {
		start := time.Now()
		h := sha256.New()
		for i := 0; i < 16; i++ {
			h.Write(buf)
		}
		calibrationSink = calibrationSink[:0]
		for i := 0; i < 50000; i++ {
			calibrationSink = append(calibrationSink, make([]byte, 64))
		}
		buf[0] = h.Sum(nil)[0]
		times[r] = ms(time.Since(start))
	}
	calibrationSink = nil
	return median(times)
}

// stealSample is the machine-wide CPU time counters of /proc/stat, in ticks.
type stealSample struct{ steal, total int64 }

// readSteal samples /proc/stat; zero when it cannot be read.
func readSteal() stealSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseInt(f, 10, 64)
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// pctTo is the steal share of the CPU time between two samples.
func (s stealSample) pctTo(later stealSample) float64 {
	return 100 * ratio(float64(later.steal-s.steal), float64(later.total-s.total))
}
