package quant

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the process-wide tile worker pool behind the parallel
// GEMM lowerings (and the DPU's batch lanes, which share it so lane- and
// tile-level parallelism contend for one budget instead of
// oversubscribing the box). The design is deliberately non-blocking:
// RunTiles offers work to idle helpers but never waits for one — the
// calling goroutine always participates and, when every helper is busy,
// simply runs the whole index space itself. Nested RunTiles calls (a
// batch lane whose stacked GEMM fans out again) therefore cannot
// deadlock: a job's items only ever wait on strictly deeper jobs.
//
// Work items are Tiler values whose coordination state (TileJob) is
// embedded in a caller-pooled struct, so a steady-state parallel GEMM
// performs no heap allocation: no closures are captured and the job
// structs recycle through sync.Pools. Offers carry the job's
// generation: a helper joins only while the generation still matches,
// and the caller, once every tile is done, bumps the generation and
// waits out the helpers that did join. A stale offer that a helper
// receives late is then simply dropped, so the caller always recycles
// its own job — on its own P, which keeps the pools warm.

// maxGemmWorkers is the hard cap on the pool size: tile parallelism is
// memory-bandwidth-bound well before this, and an unbounded pool would
// let a misconfigured GOMAXPROCS spawn helpers that only thrash.
const maxGemmWorkers = 16

// workerOverride holds the runtime-tuned worker count; 0 selects the
// automatic GOMAXPROCS-aware default.
var workerOverride atomic.Int64

// tileQueue carries offered jobs to the helper goroutines. Buffered so
// an offer can land even while every helper is mid-tile; a helper that
// receives an offer of a finished job drops it.
var tileQueue = make(chan tileOffer, maxGemmWorkers)

// tileOffer is one invitation to help drain a job: the job and the
// generation it was offered at.
type tileOffer struct {
	t   Tiler
	gen uint32
}

// helperCount tracks spawned helper goroutines (at most
// maxGemmWorkers-1; the caller is always the remaining executor).
var helperCount atomic.Int32

// Workers returns the effective GEMM worker-pool size: the SetWorkers
// override when one is set, otherwise GOMAXPROCS, both capped at
// maxGemmWorkers.
func Workers() int {
	n := int(workerOverride.Load())
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxGemmWorkers {
		n = maxGemmWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetWorkers retunes the process-wide pool: n >= 1 pins the executor
// count (callers included), n <= 0 restores the automatic
// GOMAXPROCS-aware default. Safe to call at any time, including while
// GEMMs are in flight — running jobs finish at their admission-time
// width.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// TileJob is the coordination state of one parallel index space,
// embedded in a concrete Tiler so dispatch needs no extra allocation.
type TileJob struct {
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
	// state packs the offer generation (high 32 bits) and the count of
	// helpers currently joined (low 32 bits).
	state atomic.Uint64
}

// join admits a helper holding an offer of generation gen; it fails
// once the job has moved past that generation.
func (j *TileJob) join(gen uint32) bool {
	for {
		s := j.state.Load()
		if uint32(s>>32) != gen {
			return false
		}
		if j.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// leave drops a joined helper.
func (j *TileJob) leave() { j.state.Add(^uint64(0)) }

// retire closes the current generation to new joins and waits for the
// joined helpers to leave. It runs after every tile is done, so those
// helpers are only finding the cursor exhausted.
func (j *TileJob) retire() {
	j.state.Add(1 << 32)
	for uint32(j.state.Load()) != 0 {
		runtime.Gosched()
	}
}

// Tiler is one parallelizable job: Tile(i) computes index i of a dense
// [0, n) space, with distinct indices safe to run concurrently. Job
// exposes the embedded coordination state; Recycle returns the value to
// its owner's pool, which RunTiles does before returning (RunTiles
// consumes the Tiler — callers must not touch it after the call).
type Tiler interface {
	Tile(i int)
	Job() *TileJob
	Recycle()
}

// RunTiles executes t.Tile(i) for every i in [0, n), splitting the
// index space across the calling goroutine and up to Workers()-1 idle
// pool helpers, and returns when all n tiles are done. Tiles are
// claimed one at a time from a shared atomic cursor, so ragged index
// spaces balance without pre-partitioning. The caller never blocks on
// helper availability — with none free it degrades to a serial loop.
func RunTiles(n int, t Tiler) {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			t.Tile(i)
		}
		t.Recycle()
		return
	}
	j := t.Job()
	j.n = int64(n)
	j.next.Store(0)
	j.wg.Add(n)
	offer := tileOffer{t, uint32(j.state.Load() >> 32)}
	ensureHelpers(w - 1)
	for i := 0; i < w-1; i++ {
		select {
		case tileQueue <- offer:
		default:
			// Queue full: every helper is busy (or has a pending offer);
			// stop offering and do the rest ourselves.
			i = w
		}
	}
	drainTiles(t, j)
	j.wg.Wait()
	j.retire()
	t.Recycle()
}

// drainTiles claims and runs tiles until the job's cursor passes the
// end of the index space.
func drainTiles(t Tiler, j *TileJob) {
	n := j.n
	for {
		i := j.next.Add(1) - 1
		if i >= n {
			return
		}
		t.Tile(int(i))
		j.wg.Done()
	}
}

// ensureHelpers spawns helper goroutines until at least want exist.
// Helpers are never torn down — an idle helper is a parked goroutine
// blocked on a channel receive, and SetWorkers shrinking the pool just
// leaves the surplus parked.
func ensureHelpers(want int) {
	if want > maxGemmWorkers-1 {
		want = maxGemmWorkers - 1
	}
	for {
		cur := helperCount.Load()
		if int(cur) >= want {
			return
		}
		if helperCount.CompareAndSwap(cur, cur+1) {
			go tileHelper()
		}
	}
}

// tileHelper is one pool worker: receive an offer, help drain the job
// if it is still open, repeat forever.
func tileHelper() {
	for o := range tileQueue {
		j := o.t.Job()
		if !j.join(o.gen) {
			continue
		}
		drainTiles(o.t, j)
		j.leave()
	}
}
