package main

// Host-speed calibration. The benchmark runs on a few vCPUs of a shared
// host, whose speed drifts by tens of percent, at times by half, over
// minutes: the hypervisor steals the vCPUs for other guests, and neighbours
// contend for caches and cores. A drift like that moves every timing of a
// run, and it is not the program's doing. So the benchmark carries a
// reference workload of its own: a loopback HTTP service, in this process,
// whose every request runs one fixed chunk of benchmark-owned work. Once a
// second the timed window pauses the load, waiting for the ops in flight,
// and drives the reference service with the same closed loop of clients
// for a short burst. The reference ops pass through the same kernel wakeups
// and socket hand-offs as the load, so a stolen vCPU stalls them as it
// stalls the load; a lone compute loop would see far less of it.
//
// Each reported timing is divided by the matching statistic of the
// reference ops over the window, relative to the reference host
// (hostFactors): rates, set-up and tail times by the mean, the median
// latency by the median, and the daemon's CPU time by a chunk's thread CPU
// time, which, like the daemon's, does not count stolen time.
//
// The reference work is pure Go over fixed data and calls nothing of the
// program under test, so a change to the program moves the scaled figures
// exactly as much as it moves the raw ones.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

const (
	// calibEvery is the load time between two calibration bursts, and
	// calibBurst the length of one.
	calibEvery = time.Second
	calibBurst = 50 * time.Millisecond
	// calibRefMs is the reference op's latency, and calibRefCPUMs its
	// chunk's thread CPU time, on the 2-vCPU Intel Xeon VM the bounds were
	// set on, quiet: host factors of 1.
	calibRefMs    = 3.0
	calibRefCPUMs = 2.3

	calibInts  = 1 << 14
	calibBytes = 1 << 17
	calibKeys  = 1 << 12
)

var calibData = sync.OnceValues(func() ([]int, []byte) {
	r := rand.New(rand.NewSource(1))
	ints := make([]int, calibInts)
	for i := range ints {
		ints[i] = r.Int()
	}
	bytes := make([]byte, calibBytes)
	r.Read(bytes)
	return ints, bytes
})

// calibChunk is one piece of calibration work: a sort, a hash and a map
// build, a mix of compute, memory traffic and allocation like the
// program's. It returns a value derived from all three so none is elided.
func calibChunk() uint64 {
	ints, data := calibData()
	work := slices.Clone(ints)
	slices.Sort(work)
	sum := sha256.Sum256(data)
	m := make(map[uint64]int, calibKeys/2) // grows once
	for i := 0; i < calibKeys; i++ {
		m[uint64(work[i])^binary.LittleEndian.Uint64(sum[:])] = i
	}
	return uint64(len(m)) + uint64(work[calibInts/2]) + uint64(sum[0])
}

// calibration is one calibration burst: the latency of every reference op,
// by client, and the mean thread CPU time of a chunk, in milliseconds.
type calibration struct {
	LatMs [][]float64
	CPUMs float64
}

// calibService is the reference service and its clients.
type calibService struct {
	srv     *http.Server
	url     string
	clients []*http.Client
	cpuNs   atomic.Int64 // thread CPU of every chunk served
	chunks  atomic.Int64
}

func startCalibService() (*calibService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cs := &calibService{url: "http://" + ln.Addr().String() + "/chunk"}
	cs.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		runtime.LockOSThread()
		cpu := threadCPU()
		v := calibChunk()
		cs.cpuNs.Add(threadCPU() - cpu)
		runtime.UnlockOSThread()
		cs.chunks.Add(1)
		fmt.Fprint(w, v)
	})}
	go cs.srv.Serve(ln)
	for range clients {
		cs.clients = append(cs.clients, newHTTPClient(opTimeout))
	}
	return cs, nil
}

// close stops the service and waits for its handlers.
func (cs *calibService) close() {
	for _, c := range cs.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if cs.srv.Shutdown(ctx) != nil {
		cs.srv.Close()
	}
}

// burst drives the service with a closed loop of its clients for
// calibBurst.
func (cs *calibService) burst() (calibration, error) {
	cpu0, chunks0 := cs.cpuNs.Load(), cs.chunks.Load()
	c := calibration{LatMs: make([][]float64, len(cs.clients))}
	errs := make([]error, len(cs.clients))
	deadline := time.Now().Add(calibBurst)
	var wg sync.WaitGroup
	for i, hc := range cs.clients {
		wg.Add(1)
		go func(i int, hc *http.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) && errs[i] == nil {
				start := time.Now()
				resp, err := hc.Post(cs.url, "text/plain", strings.NewReader("chunk"))
				if err != nil {
					errs[i] = err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				c.LatMs[i] = append(c.LatMs[i], float64(time.Since(start))/1e6)
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("calibration service: status %d", resp.StatusCode)
				}
				errs[i] = err
			}
		}(i, hc)
	}
	wg.Wait()
	chunks := cs.chunks.Load() - chunks0
	if chunks == 0 {
		return calibration{}, fmt.Errorf("calibration burst completed no op")
	}
	c.CPUMs = float64(cs.cpuNs.Load()-cpu0) / 1e6 / float64(chunks)
	return c, errors.Join(errs...)
}

// threadCPU is the calling thread's CPU time in nanoseconds.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// hostFactor is how much slower than the reference host the window ran,
// for each kind of statistic.
type hostFactor struct {
	Mean float64 // mean reference op latency: for rates, set-up and tail times
	P50  float64 // median of the k-op reference stretches: for latency_p50_ms
	CPU  float64 // chunk thread CPU time: for CPU time per op
}

// hostFactors compares a window's calibration bursts with the reference
// host. A stall that holds up a 3 ms op for 20 ms barely moves a 300 ms
// op's latency, and it moves the median of short ops less than their mean,
// so the median latency is compared with stretches of k consecutive
// reference ops of one client, k the workload's op length in reference
// ops, each taken as its mean op latency.
func hostFactors(cs []calibration, k int) (hostFactor, error) {
	var f hostFactor
	seq := make([][]float64, clients)
	var cpu float64
	for _, c := range cs {
		for i, l := range c.LatMs {
			seq[i] = append(seq[i], l...)
		}
		cpu += c.CPUMs
	}
	f.CPU = cpu / float64(len(cs)) / calibRefCPUMs
	var all, stretches []float64
	for _, s := range seq {
		all = append(all, s...)
		for j := 0; j+k <= len(s); j += k {
			stretches = append(stretches, mean(s[j:j+k]))
		}
	}
	if len(stretches) == 0 {
		return f, fmt.Errorf("the calibration bursts ran %d reference ops, too few for one stretch of %d", len(all), k)
	}
	f.Mean = mean(all) / calibRefMs
	f.P50 = median(stretches) / calibRefMs
	return f, nil
}

// stealTicks reads the host-wide steal and total CPU ticks from /proc/stat.
// The share of stolen ticks over the window is printed next to the host
// factor.
func stealTicks() (steal, total int64) {
	data, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}
