// Package cli holds the runtime plumbing the command-line tools share: the
// -cache store, the -cpuprofile/-memprofile profiles and the -trace dump.
package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"fragdroid/internal/artifact"
	"fragdroid/internal/session"
)

// OpenCache maps the -cache flag to an artifact cache: "off" yields a plain
// in-memory cache, "auto" the conventional store dir (FRAGDROID_CACHE or the
// user cache dir), anything else a store rooted at that directory.
func OpenCache(flagVal string) (*artifact.Cache, error) {
	dir, err := artifact.ResolveDir(flagVal)
	if err != nil {
		return nil, err
	}
	return artifact.NewPersistentCache(dir)
}

// StartProfiles starts CPU profiling and arranges a heap snapshot, per the
// -cpuprofile/-memprofile flags; the returned stop function finalizes both.
func StartProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush unreachable allocations out of the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

// WriteTrace dumps the collected structured events as a JSON array; "-"
// writes to stdout. A nil buffer (no -trace flag) is a no-op.
func WriteTrace(path string, buf *session.TraceBuffer) error {
	if buf == nil {
		return nil
	}
	data, err := buf.JSON()
	if err != nil {
		return err
	}
	if path == "-" {
		fmt.Println(string(data))
		return nil
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
