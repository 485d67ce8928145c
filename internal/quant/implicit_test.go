package quant

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fpgauv/internal/models"
	"fpgauv/internal/nn"
)

// convGeom is one conv layer's geometry.
type convGeom struct {
	inC, h, w, outC, k, stride, pad int
}

// zooConvGeoms collects every distinct conv geometry of the model-zoo
// graphs at the tiny preset, in first-seen order.
func zooConvGeoms(t *testing.T) []convGeom {
	t.Helper()
	seen := map[convGeom]bool{}
	var out []convGeom
	for _, b := range models.All(models.Tiny) {
		g := b.Graph
		for _, node := range g.Nodes() {
			op, ok := node.Op.(*nn.Conv2D)
			if !ok {
				continue
			}
			in := g.InputShapesOf(node)[0]
			cg := convGeom{op.InC, in.H, in.W, op.OutC, op.Kernel, op.Stride, op.Pad}
			if !seen[cg] {
				seen[cg] = true
				out = append(out, cg)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("model zoo has no conv layers")
	}
	return out
}

// checkConvBatch runs both backends' batch entries on xs and requires
// every image's accumulators bit-identical to the naive kernel's.
func checkConvBatch(t *testing.T, ctx string, xs []*QTensor, w *QTensor, bias []int32, stride, pad int, want [][]int32) {
	t.Helper()
	sw, err := PackSparse(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, sparse := range []bool{false, true} {
		var col []int8
		var acc []int32
		var sh ConvShape
		if sparse {
			sh, err = Conv2DInt8GemmBatchSparse(xs, sw, bias, stride, pad, &col, &acc)
		} else {
			sh, err = Conv2DInt8GemmBatch(xs, w, bias, stride, pad, &col, &acc)
		}
		if err != nil {
			t.Fatalf("%s sparse=%v: %v", ctx, sparse, err)
		}
		for b := range xs {
			assertSameInt32(t, fmt.Sprintf("%s sparse=%v image=%d", ctx, sparse, b),
				acc[b*sh.AccLen():(b+1)*sh.AccLen()], want[b])
		}
	}
}

// TestConvZooGeometriesMatchNaive sweeps every conv geometry of the
// five model-zoo graphs × dense/sparse backend × weight sparsity ×
// worker count × batch size against the naive Conv2DInt8.
func TestConvZooGeometriesMatchNaive(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(12))
	for _, g := range zooConvGeoms(t) {
		name := fmt.Sprintf("x=%dx%dx%d/o=%d/k=%d/s=%d/p=%d", g.inC, g.h, g.w, g.outC, g.k, g.stride, g.pad)
		t.Run(name, func(t *testing.T) {
			xs := make([]*QTensor, 3)
			for b := range xs {
				xs[b] = randQ(rng, 8, g.inC, g.h, g.w)
			}
			bias := randBias(rng, g.outC)
			for _, frac := range []float64{0, 0.5, 0.9} {
				w := randQ(rng, 8, g.outC, g.inC, g.k, g.k)
				sparsify(rng, w, frac)
				want := make([][]int32, len(xs))
				for b, x := range xs {
					ref, _, err := Conv2DInt8(x, w, bias, g.stride, g.pad)
					if err != nil {
						t.Fatal(err)
					}
					want[b] = ref
				}
				for _, workers := range []int{1, 4} {
					SetWorkers(workers)
					for _, n := range []int{1, 3} {
						ctx := fmt.Sprintf("sparsity=%.1f workers=%d batch=%d", frac, workers, n)
						checkConvBatch(t, ctx, xs[:n], w, bias, g.stride, g.pad, want[:n])
					}
				}
			}
		})
	}
}

// TestTapTablesMatchIm2col pins the addressing contract: reading the
// padded slab at base[j] + off[p] yields exactly Im2colInt8's patch
// element (j, p) — zeros in the padding included — for every zoo
// geometry plus border-heavy shapes where the kernel exceeds the input.
func TestTapTablesMatchIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	geoms := zooConvGeoms(t)
	geoms = append(geoms,
		convGeom{2, 1, 1, 1, 3, 1, 1},
		convGeom{3, 2, 5, 1, 5, 2, 2},
		convGeom{1, 7, 4, 1, 2, 3, 0},
		convGeom{1, 1, 2, 1, 5, 3, 1}, // K overhangs the padded input
	)
	for _, g := range geoms {
		x := randQ(rng, 8, g.inC, g.h, g.w)
		w := &QTensor{Dims: []int{g.outC, g.inC, g.k, g.k}}
		sh, err := ConvShapeOf(x, w, make([]int32, g.outC), g.stride, g.pad)
		if err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		tp := tapsFor(sh)
		if tapsFor(sh) != tp {
			t.Fatalf("%+v: tap table not cached", g)
		}
		if len(tp.off) != sh.Cols() || len(tp.base) != sh.Pixels() {
			t.Fatalf("%+v: %d offsets, %d bases, want %d and %d", g, len(tp.off), len(tp.base), sh.Cols(), sh.Pixels())
		}
		col := make([]int8, sh.Cols()*sh.Pixels())
		Im2colInt8(x, sh, col)
		slab := make([]int8, tp.padLen)
		for i := range slab {
			slab[i] = 0x55 // stale arena bytes must not survive pad
		}
		tp.pad(slab, x.Data)
		for j, base := range tp.base {
			for p, off := range tp.off {
				if got, want := slab[base+off], col[j*sh.Cols()+p]; got != want {
					t.Fatalf("%+v: pixel %d tap %d: slab %d, im2col %d", g, j, p, got, want)
				}
			}
		}
	}
}

// FuzzConvImplicit checks both conv backends against the naive kernel
// over fuzzed geometry: they must agree on rejection, and on accepted
// shapes every accumulator of a two-image batch must be bit-identical.
func FuzzConvImplicit(f *testing.F) {
	f.Add(uint8(3), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), int64(1))
	f.Add(uint8(4), uint8(9), uint8(7), uint8(5), uint8(2), uint8(2), int64(2))
	f.Add(uint8(1), uint8(2), uint8(2), uint8(5), uint8(3), uint8(0), int64(3))
	f.Fuzz(func(t *testing.T, inC, h, w, k, stride, pad uint8, seed int64) {
		g := convGeom{
			inC: 1 + int(inC)%8, h: 1 + int(h)%20, w: 1 + int(w)%20,
			k: 1 + int(k)%5, stride: 1 + int(stride)%3, pad: int(pad) % 3,
		}
		rng := rand.New(rand.NewSource(seed))
		g.outC = 1 + rng.Intn(9)
		xs := []*QTensor{randQ(rng, 8, g.inC, g.h, g.w), randQ(rng, 8, g.inC, g.h, g.w)}
		wt := randQ(rng, 8, g.outC, g.inC, g.k, g.k)
		sparsify(rng, wt, rng.Float64())
		bias := randBias(rng, g.outC)
		want := make([][]int32, len(xs))
		for b, x := range xs {
			ref, _, err := Conv2DInt8(x, wt, bias, g.stride, g.pad)
			if err != nil {
				var col []int8
				var acc []int32
				if _, gerr := Conv2DInt8GemmBatch(xs, wt, bias, g.stride, g.pad, &col, &acc); gerr == nil {
					t.Fatalf("%+v: naive rejects (%v), GEMM accepts", g, err)
				}
				return
			}
			want[b] = ref
		}
		checkConvBatch(t, fmt.Sprintf("%+v", g), xs, wt, bias, g.stride, g.pad, want)
	})
}

// TestConvBatchZeroAlloc pins the steady state: once the arenas, tap
// table and pooled job/panel state are warm, both backends' batch conv
// entries allocate nothing, serial or split across the worker pool.
func TestConvBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(14))
	xs := []*QTensor{randQ(rng, 8, 8, 16, 16), randQ(rng, 8, 8, 16, 16)}
	w := randQ(rng, 8, 40, 8, 3, 3)
	sparsify(rng, w, 0.5)
	sw, err := PackSparse(w)
	if err != nil {
		t.Fatal(err)
	}
	bias := randBias(rng, 40)
	var col []int8
	var acc []int32
	for _, workers := range []int{1, 2} {
		SetWorkers(workers)
		for _, sparse := range []bool{false, true} {
			run := func() {
				var err error
				if sparse {
					_, err = Conv2DInt8GemmBatchSparse(xs, sw, bias, 1, 1, &col, &acc)
				} else {
					_, err = Conv2DInt8GemmBatch(xs, w, bias, 1, 1, &col, &acc)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Fatalf("workers=%d sparse=%v: %.1f allocs per conv, want 0", workers, sparse, allocs)
			}
		}
	}
}

// TestConvConcurrentCallers drives the conv entries from several
// goroutines at once over shapes whose tap tables are built on first
// use, sharing one worker pool: every result must still match the
// naive kernel (run with -race to check the table cache and the pool's
// job hand-off).
func TestConvConcurrentCallers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	rng := rand.New(rand.NewSource(16))
	type call struct {
		x, w   *QTensor
		bias   []int32
		stride int
		want   []int32
	}
	var calls []call
	for i := 0; i < 6; i++ {
		x := randQ(rng, 8, 2+i, 9+i, 7+2*i)
		w := randQ(rng, 8, 5+3*i, 2+i, 3, 3)
		bias := randBias(rng, 5+3*i)
		stride := 1 + i%2
		want, _, err := Conv2DInt8(x, w, bias, stride, 1)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{x, w, bias, stride, want})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(calls))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var col []int8
			var acc []int32
			for r := 0; r < 5; r++ {
				for i := range calls {
					c := calls[(i+g)%len(calls)]
					sh, err := Conv2DInt8Gemm(c.x, c.w, c.bias, c.stride, 1, &col, &acc)
					if err == nil {
						for k, v := range c.want {
							if acc[k] != v {
								err = fmt.Errorf("goroutine %d shape %v: acc[%d] = %d, want %d", g, sh, k, acc[k], v)
								break
							}
						}
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
