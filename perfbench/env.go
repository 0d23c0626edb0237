package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp records the hardware and the code a run measured. Every output
// (stdout, result file, span file) carries it.
func envStamp(mcmdPath string, seed int64) map[string]any {
	env := map[string]any{
		"num_cpu":           runtime.NumCPU(),
		"client_gomaxprocs": runtime.GOMAXPROCS(0),
		// mcmd inherits this process's environment and CPU affinity, so
		// the Go runtime gives it the same GOMAXPROCS.
		"server_gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"cpu_model":         cpuModel(),
		"commit":            commit(mcmdPath),
		"source_sha256":     sourceHash("."),
		"seed":              seed,
	}
	if info, err := buildinfo.ReadFile(mcmdPath); err == nil {
		env["mcmd_go_version"] = info.GoVersion
	}
	return env
}

// cpuModel is the first "model name" of /proc/cpuinfo.
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

// commit is the VCS revision stamped into mcmd, else git's HEAD, else
// "unknown" (a plain source checkout); source_sha256 identifies the code
// either way.
func commit(mcmdPath string) string {
	if info, err := buildinfo.ReadFile(mcmdPath); err == nil {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	// Only ask git about this very directory, never an enclosing repository.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// sourceHash is a SHA-256 over the path and content of every Go source and
// go.mod file of the program under test (cmd/, internal/, go.mod), in path
// order.
func sourceHash(root string) string {
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	paths = append(paths, filepath.Join(root, "go.mod"))
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
