package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// host identifies the machine and the code a result was measured on,
// with the calibration row (calib.go) timed during the run.
type host struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	CalibExpUS float64 `json:"calib_bigexp1024_us"`
}

func hostInfo() host {
	h := host{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// A checkout without git history still has its source hash.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// sourceHash digests every Go source and module file of the tree under
// test, so results from checkouts without git history still name the
// code they measured.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(sum, "%s %d\n", f, len(raw))
		sum.Write(raw)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// allOrder is the order --workload all runs the workloads in.
var allOrder = []string{"inproc-ecc", "service-open", "service-durable", "party-tcp"}

// runAll runs every workload untraced and traced, each in a fresh
// benchmark process, and prints every metric by name with its unit.
// It fails if any run fails or reports a wrong ranking.
func runAll(seed uint64, seconds float64, short bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rankbench:", err)
		return 1
	}
	status := 0
	for _, w := range allOrder {
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace}
			if short {
				args = append(args, "--short")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); err != nil || jerr != nil {
				fmt.Printf("%-16s trace=%s FAILED: %v\n", w, trace, errors.Join(err, jerr))
				status = 1
				continue
			}
			fmt.Printf("%-16s trace=%s attempted=%d failed=%d failed_frac=%g correct=%v\n",
				w, trace, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			for _, d := range defs {
				v := res.Metrics[d.name]
				fmt.Printf("%-16s   %-42s %14.6g %s\n", w, d.name, v.Value, v.Unit)
			}
		}
	}
	return status
}
