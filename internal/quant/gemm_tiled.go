package quant

import "sync"

// This file is the macro-tile layer between the GEMM entry points and
// the worker pool in parallel.go: the register-blocked kernels become
// the inner kernels of a cache-blocked loop over tileM×tileN output
// macro-tiles, and those tiles are the unit of work split across
// RunTiles. The partition is strictly over output coordinates (M rows
// × N columns × batch slabs) — K is NEVER split, so each output
// element's full dot product runs on exactly one worker in the same
// modular-int32 order as the serial kernel, which is what keeps every
// parallel width bit-exact against the naive oracle. Workers write
// disjoint dst regions and only read the shared weights and padded
// slabs, so no synchronization beyond job completion is needed, and the
// job structs recycle through sync.Pools so the steady state allocates
// nothing. With one worker RunTiles runs the tiles in order on the
// caller.

// tileM×tileN is the macro-tile: the output block one worker computes
// per claim. At int8 operands a 32-row × 64-column tile touches
// 32 rows of A plus 64 pixels' taps — comfortably L1/L2-resident for
// this repo's layer shapes (k up to a few thousand) — while the
// benchmark conv (64×1024 output) still splits into 32 tiles, enough
// granularity for the atomic cursor to balance ragged finishes. tileM
// doubles as the row-tile height of the dense (FC) split.
const (
	tileM = 32
	tileN = 64
)

// convJob is the pooled work descriptor of one implicit-GEMM
// convolution over a batch: tile index t decomposes as (slab, row-tile,
// col-tile). Exactly one of a (dense OutC×Cols weights) and sw (the
// block-sparse image) is set.
type convJob struct {
	TileJob
	dst     []int32
	a       []int8
	sw      *SparseWeights
	xp      []int8 // padded slabs, image b at xp[b*t.padLen:]
	t       *taps
	bias    []int32
	m, k, n int
	mt, nt  int // row/column tile counts per slab
}

var convJobs = sync.Pool{New: func() any { return new(convJob) }}

// panels is the free list of the dense walker's B panels (tileN×K),
// at most one per concurrently running tile. A channel rather than a
// sync.Pool: the GC never empties it, so warm panels stay warm.
var panels = make(chan []int8, maxGemmWorkers)

func (g *convJob) Job() *TileJob { return &g.TileJob }

func (g *convJob) Recycle() {
	g.dst, g.a, g.sw, g.xp, g.t, g.bias = nil, nil, nil, nil, nil, nil
	convJobs.Put(g)
}

func (g *convJob) Tile(t int) {
	per := g.mt * g.nt
	b := t / per
	t -= b * per
	ti := t / g.nt
	tj := t - ti*g.nt
	i0 := ti * tileM
	i1 := min(i0+tileM, g.m)
	j0 := tj * tileN
	j1 := min(j0+tileN, g.n)
	block := g.m * g.n
	dst := g.dst[b*block : (b+1)*block]
	xb := g.xp[b*g.t.padLen : (b+1)*g.t.padLen]
	if g.sw != nil {
		sparseConvBlock(dst, g.sw, xb, g.t, i0, i1, j0, j1, g.n, g.bias)
		return
	}
	// Dense walker: gather the tile's pixels into a patch-major B panel,
	// then run the register kernel over the tile against it.
	var panel []int8
	select {
	case panel = <-panels:
	default:
	}
	panel = growInt8(panel, tileN*g.k)
	g.t.gather(panel, xb, j0, j1-j0)
	gemmInt8Block(dst[j0:], g.a, panel, i0, i1, 0, j1-j0, g.k, g.n, g.bias)
	select {
	case panels <- panel:
	default:
	}
}

// convLower is the implicit-GEMM lowering shared by both conv backends:
// it copies each image into its zero-bordered slab in *col, then splits
// the slab × macro-tile grid of the OutC×Pixels products across the
// worker pool. Image b's accumulators land at
// (*acc)[b*sh.AccLen():(b+1)*sh.AccLen()] in OutC×Pixels layout.
//
// *col is grown to the larger of the padded slabs and the im2col patch
// matrix of the batch, so a caller may reuse it as the destination of
// Im2colInt8 on the same shape (perfbench's im2col probe does); only
// the slab prefix is written here.
func convLower(xs []*QTensor, sh ConvShape, a []int8, sw *SparseWeights, bias []int32, col *[]int8, acc *[]int32) {
	t := tapsFor(sh)
	n := len(xs)
	*col = growInt8(*col, n*max(t.padLen, sh.Cols()*sh.Pixels()))
	*acc = growInt32(*acc, n*sh.AccLen())
	for b, x := range xs {
		t.pad((*col)[b*t.padLen:(b+1)*t.padLen], x.Data)
	}
	g := convJobs.Get().(*convJob)
	g.dst, g.a, g.sw, g.xp, g.t, g.bias = *acc, a, sw, *col, t, bias
	g.m, g.k, g.n = sh.OutC, sh.Cols(), sh.Pixels()
	g.mt, g.nt = (g.m+tileM-1)/tileM, (g.n+tileN-1)/tileN
	RunTiles(n*g.mt*g.nt, g)
}

// fcJob is the pooled work descriptor of a row-tiled batched FC
// product: tile t covers output rows [t*tileM, (t+1)*tileM). Exactly
// one of w (dense) and sw (block-sparse) is set. xs is a job-owned copy
// of the batch's tensor pointers, so a caller's batch-of-one array
// stays on its stack.
type fcJob struct {
	TileJob
	dst     []int32
	w       []int8
	sw      *SparseWeights
	bias    []int32
	xs      []*QTensor
	in, out int
}

var fcJobs = sync.Pool{New: func() any { return new(fcJob) }}

func (d *fcJob) Job() *TileJob { return &d.TileJob }

func (d *fcJob) Recycle() {
	clear(d.xs)
	d.dst, d.w, d.sw, d.bias, d.xs = nil, nil, nil, nil, d.xs[:0]
	fcJobs.Put(d)
}

func (d *fcJob) Tile(t int) {
	o0 := t * tileM
	o1 := min(o0+tileM, d.out)
	if d.sw != nil {
		sparseDenseRows(d.dst, d.sw, d.bias, d.xs, d.out, o0, o1)
		return
	}
	denseInt8Rows(d.dst, d.w, d.bias, d.xs, d.in, d.out, o0, o1)
}

// fcLower computes the batched FC product (image b's row o at
// dst[b*out+o]), splitting tileM-row output bands across the worker
// pool. Row bands partition only the output dimension — every band
// streams the full inputs — so each output element is computed by one
// worker in serial accumulation order: bit-exact at every width.
func fcLower(dst []int32, w []int8, sw *SparseWeights, bias []int32, xs []*QTensor, in, out int) {
	d := fcJobs.Get().(*fcJob)
	d.dst, d.w, d.sw, d.bias = dst, w, sw, bias
	d.xs = append(d.xs, xs...)
	d.in, d.out = in, out
	RunTiles((out+tileM-1)/tileM, d)
}
