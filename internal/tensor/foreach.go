package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the number of workers one kernel call may fan out to.
// FL rounds train many clients concurrently, so the per-operation
// parallelism is a process-wide knob rather than a per-call argument.
var parallelism int64 = int64(runtime.GOMAXPROCS(0))

// SetParallelism caps the width of every in-step fan-out: the ForEach
// calls of a GEMM, of the convolution backward kernels
// (ConvPlaneFilterGrad, ConvPlaneInputGrad), of Conv2D.Forward's samples,
// of aggregation's tensors and of a baseline round's trainings. n < 1
// resets to GOMAXPROCS. It returns the previous value.
func SetParallelism(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(atomic.SwapInt64(&parallelism, int64(n)))
}

// Parallelism reports the current worker cap.
func Parallelism() int { return int(atomic.LoadInt64(&parallelism)) }

// ForEach calls fn(w, i) for every i in [0, n) and returns when every
// call has. The caller is worker 0; it hands up to width−1 helpers,
// numbered 1, 2, …, to the persistent pool, and a helper the pool's
// queue has no room for is not started. Every worker takes indices in
// order off one shared counter, so w < max(width, 1), and no two calls
// running at once share a w: a caller may keep per-worker scratch in a
// slice of that length. A helper that starts only after the caller has used up the
// counter returns at once, so the caller waits only on helpers that are
// running, never on one still queued behind other callers' work; that is
// what lets ForEach nest (a Gemm inside a training inside a ForEach)
// without deadlock. A caller whose calls write only their own index's
// results gets the same results at any width.
func ForEach(n, width int, fn func(w, i int)) {
	if width <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	j := &job{n: n, fn: fn}
	for w := 1; w < min(width, n); w++ {
		if !submit(j, w) {
			break
		}
	}
	j.work(0)
	j.mu.Lock()
	j.closed = true
	j.mu.Unlock()
	j.running.Wait()
}

// job is one ForEach call as its helpers see it.
type job struct {
	n    int
	fn   func(w, i int)
	next atomic.Int64

	mu      sync.Mutex
	closed  bool // the caller has used up the counter
	running sync.WaitGroup
}

func (j *job) work(w int) {
	for i := int(j.next.Add(1)) - 1; i < j.n; i = int(j.next.Add(1)) - 1 {
		j.fn(w, i)
	}
}

// help runs helper w, unless the caller has already finished.
func (j *job) help(w int) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.running.Add(1)
	j.mu.Unlock()
	defer j.running.Done()
	j.work(w)
}

// The pool is GOMAXPROCS goroutines, started with the package, which
// take ForEach helpers off one queue for the life of the process: a call
// pays a channel send per helper rather than a goroutine start, and a
// process holds the same goroutines before and after its first fan-out,
// so goroutine counts taken to find leaks do not move.
type helper struct {
	j *job
	w int
}

var pool = startPool()

// submit queues helper w of j without blocking, and reports whether
// there was room.
func submit(j *job, w int) bool {
	select {
	case pool <- helper{j, w}:
		return true
	default:
		return false
	}
}

// startPool starts the workers. The queue holds four helpers per worker
// so that concurrent callers (the kernels of several trainings at once)
// can each queue theirs; one that starts after its caller has finished
// costs only a lock.
func startPool() chan helper {
	workers := runtime.GOMAXPROCS(0)
	pool := make(chan helper, 4*workers)
	for i := 0; i < workers; i++ {
		go func() {
			for h := range pool {
				h.j.help(h.w)
			}
		}()
	}
	return pool
}
