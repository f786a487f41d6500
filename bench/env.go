package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is the block every output carries, so a number can be
// traced back to the host and inputs it came from.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// Noisy marks a run that started with a 1-minute load average
	// above the core count: its timings are not to be trusted.
	Noisy      bool    `json:"noisy"`
	TotalWallS float64 `json:"total_wall_s"`
}

func newEnvironment(opt options) environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		CPUModel:   cpuModel(),
		Seed:       opt.seed,
		Scale:      "1/" + strconv.Itoa(streamScale),
		Seconds:    opt.seconds,
		Quick:      opt.quick,
		LoadStart:  loadAverage(),
	}
	e.Noisy = e.LoadStart > float64(e.NProc)
	return e
}

func (e *environment) finish(start time.Time) {
	e.LoadEnd = loadAverage()
	e.TotalWallS = time.Since(start).Seconds()
}

// gitCommit asks git about the working directory only: the ceiling
// keeps it from searching the parents of a checkout that is not a
// repository, which then reads "unknown".
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // unparsable reads as 0: unknown
	return v
}

// stolen returns the CPU time the hypervisor has withheld from this
// machine since boot, summed over its cores (0 where /proc/stat has no
// such column). USER_HZ is 100 on every Linux this runs on.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(fields[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch times a region of at least a few hundred milliseconds in a
// virtual machine. Wall time there includes the stretches the host ran
// someone else on our cores; those are interference with the
// measurement, not a property of the code. Of the CPU time the process
// wanted (used + stolen) it got the share used/(used+stolen), and the
// region would have taken that share of its wall time on a quiet host.
// On a quiet host stolen is 0 and the two times are the same. The
// counter ticks in 10 ms, so regions shorter than ~0.5 s are timed with
// the wall clock alone.
type stopwatch struct {
	start        time.Time
	cpu0, steal0 time.Duration
}

func startWatch() stopwatch {
	return stopwatch{start: time.Now(), cpu0: processCPU(), steal0: stolen()}
}

// stop returns the quiet-host estimate, the raw wall time and the share
// of wanted CPU time that was stolen.
func (sw stopwatch) stop() (quiet, wall time.Duration, stealShare float64) {
	wall = time.Since(sw.start)
	used, steal := processCPU()-sw.cpu0, stolen()-sw.steal0
	if wall < 500*time.Millisecond || used <= 0 || steal <= 0 {
		return wall, wall, 0
	}
	stealShare = float64(steal) / float64(used+steal)
	return time.Duration(float64(wall) * (1 - stealShare)), wall, stealShare
}
