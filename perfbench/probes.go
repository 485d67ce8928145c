package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fpgauv/internal/board"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/dpu"
	"fpgauv/internal/ecc"
	"fpgauv/internal/nn"
	"fpgauv/internal/pmbus"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// probeReps is how many timed repetitions each single-layer probe takes;
// probes report medians.
const probeReps = 30

// DPUProbe is one accelerator pass measured in isolation.
type DPUProbe struct {
	PassMS         float64
	AllocsPerImage float64
}

// probeDPU times dnndk.Task.InferBatch on the reference deployment at
// the workload's rails (the first fleet board's operating VCCINT and
// VCCBRAM, same silicon sample) for a batch of n images. With protect
// the DPU decodes BRAM reads through an enabled SECDED policy, as the
// classify-governed boards do.
func probeDPU(ref *dnndk.Deployed, images []*tensor.Tensor, n int, vccintMV, vccbramMV float64, protect bool) (DPUProbe, error) {
	task := ref.Task
	brd := task.Board()
	if err := pmbus.NewAdapter(brd.Bus(), board.AddrVCCINT).SetVoltageMV(vccintMV); err != nil {
		return DPUProbe{}, fmt.Errorf("dpu probe: VCCINT %.1f mV: %w", vccintMV, err)
	}
	if err := pmbus.NewAdapter(brd.Bus(), board.AddrVCCBRAM).SetVoltageMV(vccbramMV); err != nil {
		return DPUProbe{}, fmt.Errorf("dpu probe: VCCBRAM %.1f mV: %w", vccbramMV, err)
	}
	task.DPU().SetProtection(ecc.NewProtection(protect))
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = images[i%len(images)]
	}
	s := dpu.NewScratch()
	pass := func(rep int) error {
		rngs := s.BatchRNGs(n)
		for i := range rngs {
			rngs[i].Seed(int64(rep*n + i + 1))
		}
		_, err := task.InferBatch(s, imgs, rngs)
		return err
	}
	for rep := 0; rep < 3; rep++ { // warm the arena
		if err := pass(rep); err != nil {
			return DPUProbe{}, fmt.Errorf("dpu probe: %w", err)
		}
	}
	ts := make([]float64, probeReps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rep := range ts {
		t0 := time.Now()
		if err := pass(rep); err != nil {
			return DPUProbe{}, fmt.Errorf("dpu probe: %w", err)
		}
		ts[rep] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	runtime.ReadMemStats(&after)
	return DPUProbe{
		PassMS:         median(ts),
		AllocsPerImage: float64(after.Mallocs-before.Mallocs) / float64(probeReps*n),
	}, nil
}

// LayerTime is one conv or FC node's time for one pass.
type LayerTime struct {
	Name string
	MS   float64
}

// QuantProbe is one pass's work split by quant op, summed over layers.
type QuantProbe struct {
	Im2colMS, GemmMS, RequantMS, PoolMS float64
	// GMAC and MB are the GEMMs' multiply-accumulates and bytes moved
	// (weights, patch or input rows, int32 accumulators), computed from
	// tensor sizes.
	GMAC, MB float64
	Layers   []LayerTime
}

// probeQuant runs the kernel's layers through the quant entry points
// for a batch of n images, on the shapes and weights dnndk.Quantize
// produced, with seeded synthetic int8 activations (the timed ops do
// not branch on activation values). Each conv/FC layer runs as one
// batched GEMM entry, whose im2col share is timed separately with
// Im2colInt8; requantize and pooling run per image, as in the DPU.
func probeQuant(k *dpu.Kernel, n int) (QuantProbe, error) {
	var qp QuantProbe
	rng := rand.New(rand.NewSource(7))
	g := k.Graph
	nodes := g.Nodes()
	for i, node := range nodes {
		kn := &k.Nodes[i]
		in := g.InputShapesOf(node)[0]
		relu := i+1 < len(nodes) && nodes[i+1].Op.Name() == "relu"
		switch op := node.Op.(type) {
		case *nn.Conv2D:
			xs := synthBatch(rng, n, k.Bits, in.C, in.H, in.W)
			sh, err := quant.ConvShapeOf(xs[0], kn.WQ, kn.BiasQ, op.Stride, op.Pad)
			if err != nil {
				return qp, err
			}
			var col []int8
			var acc []int32
			conv := func() error {
				var err error
				if kn.SW != nil {
					_, err = quant.Conv2DInt8GemmBatchSparse(xs, kn.SW, kn.BiasQ, op.Stride, op.Pad, &col, &acc)
				} else {
					_, err = quant.Conv2DInt8GemmBatch(xs, kn.WQ, kn.BiasQ, op.Stride, op.Pad, &col, &acc)
				}
				return err
			}
			if err := conv(); err != nil {
				return qp, fmt.Errorf("quant probe %s: %w", node.Label, err)
			}
			entry := timeMedian(probeReps, func() { _ = conv() }) / 1e6
			slab := sh.Cols() * sh.Pixels()
			im2col := timeMedian(probeReps, func() {
				for b, x := range xs {
					quant.Im2colInt8(x, sh, col[b*slab:(b+1)*slab])
				}
			}) / 1e6
			req, err := timeRequant(acc, n, sh.AccLen(), kn, k.Bits, relu, sh.OutC, sh.OutH, sh.OutW)
			if err != nil {
				return qp, err
			}
			qp.Im2colMS += im2col
			qp.GemmMS += entry - im2col
			qp.RequantMS += req
			qp.Layers = append(qp.Layers, LayerTime{node.Label, entry + req})
			weights, macs := weightSize(kn, sh.OutC*sh.Cols())
			qp.GMAC += float64(macs*int64(sh.Pixels()*n)) / 1e9
			qp.MB += float64(weights+int64(n*slab)+int64(n*sh.AccLen()*4)) / 1e6
		case *nn.Dense:
			xs := synthBatch(rng, n, k.Bits, op.In)
			var acc []int32
			dense := func() error {
				var err error
				if kn.SW != nil {
					_, err = quant.DenseInt8GemmBatchSparse(xs, kn.SW, kn.BiasQ, &acc)
				} else {
					_, err = quant.DenseInt8GemmBatch(xs, kn.WQ, kn.BiasQ, &acc)
				}
				return err
			}
			if err := dense(); err != nil {
				return qp, fmt.Errorf("quant probe %s: %w", node.Label, err)
			}
			entry := timeMedian(probeReps, func() { _ = dense() }) / 1e6
			req, err := timeRequant(acc, n, op.Out, kn, k.Bits, relu, op.Out)
			if err != nil {
				return qp, err
			}
			qp.GemmMS += entry
			qp.RequantMS += req
			qp.Layers = append(qp.Layers, LayerTime{node.Label, entry + req})
			weights, macs := weightSize(kn, op.Out*op.In)
			qp.GMAC += float64(macs*int64(n)) / 1e9
			qp.MB += float64(weights+int64(n*op.In)+int64(n*op.Out*4)) / 1e6
		case *nn.Pool2D:
			xs := synthBatch(rng, n, k.Bits, in.C, in.H, in.W)
			dst := &quant.QTensor{}
			pool := func() error {
				for _, x := range xs {
					var err error
					if op.Kind == nn.MaxPool {
						err = quant.MaxPoolQInto(dst, x, op.Kernel, op.Stride, op.Global)
					} else {
						err = quant.AvgPoolQInto(dst, x, op.Kernel, op.Stride, op.Global)
					}
					if err != nil {
						return err
					}
				}
				return nil
			}
			if err := pool(); err != nil {
				return qp, fmt.Errorf("quant probe %s: %w", node.Label, err)
			}
			qp.PoolMS += timeMedian(probeReps, func() { _ = pool() }) / 1e6
		}
	}
	return qp, nil
}

// weightSize returns a weight layer's resident bytes (the packed image
// and its bitmap on the sparse backend) and the multiply-accumulates
// per output column the backend performs (every stored block's
// SparseBlockRows weights on sparse, the dense count otherwise).
func weightSize(kn *dpu.KernelNode, dense int) (bytes, macs int64) {
	if kn.SW == nil {
		return int64(len(kn.WQ.Data)), int64(dense)
	}
	return int64(len(kn.SW.Packed.Data) + 8*len(kn.SW.Bitmap)),
		int64(kn.SW.Blocks() * quant.SparseBlockRows)
}

// timeRequant times the per-image requantize epilogue over a batch's
// accumulators, in milliseconds.
func timeRequant(acc []int32, n, block int, kn *dpu.KernelNode, bits int, relu bool, dims ...int) (float64, error) {
	dst := &quant.QTensor{}
	var err error
	ms := timeMedian(probeReps, func() {
		for b := 0; b < n && err == nil; b++ {
			err = quant.RequantizeInto(dst, acc[b*block:(b+1)*block], kn.AccScale, kn.OutScale, bits, relu, dims...)
		}
	}) / 1e6
	return ms, err
}

// synthBatch makes n int8 activation tensors of the given dims.
func synthBatch(rng *rand.Rand, n, bits int, dims ...int) []*quant.QTensor {
	size := 1
	for _, d := range dims {
		size *= d
	}
	xs := make([]*quant.QTensor, n)
	for b := range xs {
		data := make([]int8, size)
		for i := range data {
			data[i] = int8(rng.Intn(127) - 63)
		}
		xs[b] = &quant.QTensor{Data: data, Dims: append([]int(nil), dims...), Scale: 0.05, Bits: bits}
	}
	return xs
}

// probeECC times a frame-scrub pass over the kernel's protected weight
// image (ns per 64-bit word) and one SECDED read of a single-bit-faulted
// word through Protection.Process (ns per call).
func probeECC(k *dpu.Kernel) (scrubNSPerWord, processNS float64) {
	var weights [][]int8
	for i := range k.Nodes {
		kn := &k.Nodes[i]
		switch {
		case kn.SW != nil:
			weights = append(weights, append([]int8(nil), kn.SW.Packed.Data...))
		case kn.WQ != nil:
			weights = append(weights, append([]int8(nil), kn.WQ.Data...))
		}
	}
	prot := ecc.NewProtection(true)
	sc := ecc.NewScrubber(weights)
	scrubNSPerWord = timeMedian(probeReps, func() { sc.Scrub(prot) }) / float64(sc.Words())

	const calls = 4096
	words := make([]uint64, calls)
	rng := rand.New(rand.NewSource(11))
	for i := range words {
		words[i] = rng.Uint64()
	}
	processNS = timeMedian(probeReps, func() {
		for i, w := range words {
			prot.Process(w, w^(1<<(i%64)))
		}
	}) / calls
	return scrubNSPerWord, processNS
}
