package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"zkvc"
)

// env is the record of where a result was measured.
type env struct {
	Go          string `json:"go"`
	OS          string `json:"goos"`
	Arch        string `json:"goarch"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"zkvc_parallelism"`
	ParallelEnv string `json:"ZKVC_PARALLELISM"`
	CPU         string `json:"cpu"`
	Commit      string `json:"commit"`
	Seed        int64  `json:"seed"`
}

func environment(seed int64) env {
	return env{
		Go:          runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: zkvc.Parallelism(),
		ParallelEnv: os.Getenv("ZKVC_PARALLELISM"),
		CPU:         cpuModel(),
		Commit:      commit(),
		Seed:        seed,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux only).
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

// commit is the VCS revision the binary was built from, when the build
// could stamp one (a git checkout); source trees without git say so.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built without version control)"
	}
	if modified {
		rev += "+modified"
	}
	return rev
}
