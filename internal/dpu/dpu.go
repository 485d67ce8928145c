package dpu

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fpgauv/internal/board"
	"fpgauv/internal/ecc"
	"fpgauv/internal/fabric"
	"fpgauv/internal/nn"
	"fpgauv/internal/quant"
	"fpgauv/internal/tensor"
)

// DPU is a set of DPU cores programmed into a board's fabric.
type DPU struct {
	brd    *board.ZCU102
	cfg    Config
	nCores int
	// refKernels forces the naive direct conv/FC kernels instead of the
	// implicit-GEMM lowering — the reference oracle the equivalence tests
	// and benchmarks compare against.
	refKernels bool
	// prot is the BRAM SECDED policy. When enabled, weight-read faults
	// are sampled per 64-bit word and routed through the codec; when nil
	// or disabled the legacy unprotected per-bit flip path runs,
	// bit-exactly as before.
	prot *ecc.Protection
}

// New programs nCores instances of the given variant into the board's
// fabric, validating resource capacity.
func New(brd *board.ZCU102, cfg Config, nCores int) (*DPU, error) {
	if nCores <= 0 {
		return nil, fmt.Errorf("dpu: need at least one core")
	}
	total := fabric.Utilization{}
	for i := 0; i < nCores; i++ {
		total = total.Add(cfg.Util)
	}
	if err := brd.Fabric().Configure(total); err != nil {
		return nil, fmt.Errorf("dpu: %d x %s does not fit: %w", nCores, cfg.Arch, err)
	}
	if cfg.GemmWorkers > 0 {
		quant.SetWorkers(cfg.GemmWorkers)
	}
	return &DPU{brd: brd, cfg: cfg, nCores: nCores}, nil
}

// Board returns the board the DPU is programmed on.
func (d *DPU) Board() *board.ZCU102 { return d.brd }

// Config returns the core variant.
func (d *DPU) Config() Config { return d.cfg }

// Cores returns the instantiated core count.
func (d *DPU) Cores() int { return d.nCores }

// SetReferenceKernels toggles the naive direct conv/FC kernels in place of
// the implicit-GEMM compute engine. The two paths are bit-exact (including
// fault-injection statistics); the naive path exists as the oracle for
// equivalence tests and as the baseline for the kernel benchmarks.
func (d *DPU) SetReferenceKernels(on bool) { d.refKernels = on }

// SetProtection installs (or removes, with nil) the BRAM SECDED policy.
// Toggling an installed policy at runtime goes through
// Protection.SetEnabled; the executor re-checks it on every pass.
func (d *DPU) SetProtection(p *ecc.Protection) { d.prot = p }

// Protection returns the installed BRAM SECDED policy (nil when none).
func (d *DPU) Protection() *ecc.Protection { return d.prot }

// Result is the outcome of one inference on the DPU. Results of
// RunWith/RunCleanWith calls (the Result itself and its Probs tensor) are
// staged in the Scratch and only valid until the next run on it.
type Result struct {
	// Probs is the host-side softmax output.
	Probs *tensor.Tensor
	// Pred is the argmax class.
	Pred int
	// MACFaults and BRAMFaults count injected corruption events. With
	// SECDED protection enabled, BRAMFaults counts raw flipped bits
	// exactly like the unprotected path — the physical fault rate is the
	// same either way; ECC only changes what the consumer observes.
	MACFaults  int64
	BRAMFaults int64
	// ECC splits the pass's faulted BRAM words by SECDED outcome
	// (all-zero when protection is disabled).
	ECC ecc.Counts
	// ExecNS is the wall-clock device time of the pass that produced
	// this result, in nanoseconds; a batched pass stamps every image of
	// the micro-batch with the batch's shared pass time. Observability
	// layers use it to split pure execute time from lock/queue overhead
	// around the call. Zero on the clean reference paths.
	ExecNS int64
}

// Run executes one image through a compiled kernel at the board's present
// electrical conditions, injecting timing faults per the fabric model.
// It returns board.ErrHung if the board is (or becomes) crashed.
//
// A Kernel must not be executed by two concurrent Run/RunBatch calls:
// BRAM fault injection applies flips to the shared weight tensors
// (restored before the call returns), so concurrent calls on the same
// kernel would observe each other's flips. Every execution path in this
// module already serializes per kernel (the fleet's member lock; the
// single-goroutine campaigns and runtimes, whose reference cache has the
// same confinement rule). Within one RunBatch call the per-core lanes
// do share the kernel across goroutines — that is safe because the
// batch's flips are applied before the lanes start and the weights are
// immutable while they run.
func (d *DPU) Run(k *Kernel, img *tensor.Tensor, rng *rand.Rand) (*Result, error) {
	return d.RunWith(nil, k, img, rng)
}

// RunWith is Run with a caller-owned Scratch arena: steady-state repeat
// inferences through the same arena perform near-zero heap allocations.
// A nil Scratch allocates a transient arena. See Scratch for the
// ownership and lifetime rules.
func (d *DPU) RunWith(s *Scratch, k *Kernel, img *tensor.Tensor, rng *rand.Rand) (*Result, error) {
	if err := d.brd.CheckAlive(); err != nil {
		return nil, err
	}
	cond := d.brd.Conditions()
	cond.Stress = k.Workload.Stress
	fab := d.brd.Fabric()
	pMAC := fab.MACFaultProb(cond) * k.VulnScale
	if pMAC > 0.5 {
		pMAC = 0.5
	}
	pBRAM := fab.BRAMBitFaultProb(cond)
	start := time.Now()
	res, err := d.run(s, k, img, rng, pMAC, pBRAM)
	if err != nil {
		return nil, err
	}
	// A fault storm near Vcrash can also hang the board mid-task.
	if err := d.brd.CheckAlive(); err != nil {
		return nil, err
	}
	res.ExecNS = time.Since(start).Nanoseconds()
	return res, nil
}

// RunClean executes one image with fault injection disabled and without
// consulting the board's electrical state — the fault-free reference path
// used to plant ground-truth labels.
func (d *DPU) RunClean(k *Kernel, img *tensor.Tensor) (*Result, error) {
	return d.run(nil, k, img, nil, 0, 0)
}

// RunCleanWith is RunClean through a caller-owned Scratch arena.
func (d *DPU) RunCleanWith(s *Scratch, k *Kernel, img *tensor.Tensor) (*Result, error) {
	return d.run(s, k, img, nil, 0, 0)
}

// run is the shared execution core. rng may be nil when both fault
// probabilities are zero. A nil Scratch gets a transient arena and the
// result is detached from it, so nil-Scratch callers keep fresh-result
// semantics without retaining the arena's buffers through Result.
func (d *DPU) run(s *Scratch, k *Kernel, img *tensor.Tensor, rng *rand.Rand, pMAC, pBRAM float64) (*Result, error) {
	if s == nil {
		s = NewScratch()
		res, err := d.runWith(s, k, img, rng, pMAC, pBRAM)
		if err != nil {
			return nil, err
		}
		out := *res
		if out.Probs == s.probs {
			out.Probs = out.Probs.Clone()
		}
		return &out, nil
	}
	return d.runWith(s, k, img, rng, pMAC, pBRAM)
}

// runWith is run for an always-present arena.
func (d *DPU) runWith(s *Scratch, k *Kernel, img *tensor.Tensor, rng *rand.Rand, pMAC, pBRAM float64) (*Result, error) {
	s.bind(k)
	res := &s.res
	*res = Result{}

	// Quantize the input once with the calibrated scale.
	if err := quant.QuantizeWithScaleInto(&s.inQ, img, k.InScale, k.Bits); err != nil {
		return nil, fmt.Errorf("dpu: input quantization: %w", err)
	}

	for i, n := range s.nodes {
		kn := &k.Nodes[i]
		switch n.Op.(type) {
		case *nn.Conv2D, *nn.Dense:
			x, err := s.fetch(n.Inputs[0])
			if err != nil {
				return nil, err
			}
			if err := d.runWeightLayer(s, res, i, n, kn, k, x, pMAC, pBRAM, rng); err != nil {
				return nil, err
			}
		default:
			if err := d.runHostNode(s, i, n, kn, k); err != nil {
				return nil, err
			}
		}
	}
	if err := finishRun(s, k, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runHostNode executes one non-weight node (pooling, activations, host
// ops) into the arena's activation for node i. It is shared verbatim by
// the single-image executor and the batched executor's per-image loops,
// so the two paths cannot drift apart.
func (d *DPU) runHostNode(s *Scratch, i int, n nn.Node, kn *KernelNode, k *Kernel) error {
	acts := s.refs
	switch op := n.Op.(type) {
	case *nn.Pool2D:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		out := s.act(i)
		if op.Kind == nn.MaxPool {
			err = quant.MaxPoolQInto(out, x, op.Kernel, op.Stride, op.Global)
		} else {
			err = quant.AvgPoolQInto(out, x, op.Kernel, op.Stride, op.Global)
		}
		if err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		acts[i] = out
	case nn.ReLU:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		if src := n.Inputs[0]; src >= 0 && s.fuseReLU[src] == n.ID {
			// Already applied in the producer's GEMM epilogue.
			acts[i] = x
			return nil
		}
		out := s.act(i)
		quant.ReLUQInto(out, x)
		acts[i] = out
	case nn.Sigmoid:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		out := s.act(i)
		if err := sigmoidQInto(out, s, x, kn.OutScale, k.Bits); err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		acts[i] = out
	case *nn.LRN:
		// Host-side op (like softmax): dequantize, normalize,
		// requantize at the calibrated scale.
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		f, err := op.Forward([]*tensor.Tensor{x.Dequantize()})
		if err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		out := s.act(i)
		if err := quant.QuantizeWithScaleInto(out, f, kn.OutScale, k.Bits); err != nil {
			return err
		}
		acts[i] = out
	case *nn.BatchNorm:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		out := s.act(i)
		quant.BatchNormQInto(out, x, op.Scale, op.Shift, kn.OutScale, k.Bits)
		acts[i] = out
	case nn.Flatten:
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		// Shared-data reshape view: flattening only rewrites Dims.
		out := s.act(i)
		out.Data = x.Data
		out.Dims = append(out.Dims[:0], len(x.Data))
		out.Scale = x.Scale
		out.Bits = x.Bits
		acts[i] = out
	case nn.Add:
		a, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		out := s.act(i)
		sum := a
		for _, id := range n.Inputs[1:] {
			b, err := s.fetch(id)
			if err != nil {
				return err
			}
			if err := quant.AddQInto(out, sum, b, kn.OutScale, k.Bits); err != nil {
				return fmt.Errorf("dpu: node %q: %w", n.Label, err)
			}
			sum = out
		}
		acts[i] = sum
	case nn.Concat:
		ins := s.concatTable(len(n.Inputs))
		for j, id := range n.Inputs {
			x, err := s.fetch(id)
			if err != nil {
				return err
			}
			ins[j] = x
		}
		out := s.act(i)
		if err := quant.ConcatQInto(out, ins, kn.OutScale, k.Bits); err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		acts[i] = out
	case nn.Softmax:
		// DNNDK computes softmax on the ARM host, in float.
		x, err := s.fetch(n.Inputs[0])
		if err != nil {
			return err
		}
		probs := floatStage(&s.probs, x.Size())
		x.DequantizeInto(probs)
		if err := nn.SoftmaxInPlace(probs.Data()); err != nil {
			return fmt.Errorf("dpu: node %q: %w", n.Label, err)
		}
		s.final = probs
		// Keep a quantized copy in case the graph continues.
		out := s.act(i)
		if err := quant.QuantizeWithScaleInto(out, probs, kn.OutScale, k.Bits); err != nil {
			return err
		}
		out.Dims = append(out.Dims[:0], x.Dims...)
		acts[i] = out
	default:
		return fmt.Errorf("dpu: node %q: unsupported op %T", n.Label, n.Op)
	}
	return nil
}

// finishRun resolves the run's host-side output (the softmax staging
// tensor, or the dequantized graph output for softmax-less graphs) into
// the staged Result.
func finishRun(s *Scratch, k *Kernel, res *Result) error {
	final := s.final
	if final == nil {
		out, err := s.fetch(k.Graph.Output())
		if err != nil {
			return err
		}
		final = out.Dequantize()
	}
	res.Probs = final
	res.Pred = final.ArgMax()
	return nil
}

// runWeightLayer executes one conv/FC node: transient BRAM flips on the
// node's BRAM-resident weight image, the kernel's compute backend
// (dense GEMM, sparse skip-zero GEMM, or the naive oracle when
// reference kernels are forced), MAC-fault injection on the int32
// accumulators, and the fused requantize(+ReLU) epilogue into the
// node's arena activation. The epilogue is shared by every backend/op
// combination so the oracle and engine paths cannot drift apart.
func (d *DPU) runWeightLayer(s *Scratch, res *Result, i int, n nn.Node, kn *KernelNode, k *Kernel, x *quant.QTensor, pMAC, pBRAM float64, rng *rand.Rand) error {
	img := d.bramImage(kn)
	if d.prot.Enabled() {
		res.BRAMFaults += d.flipWeightsECC(s, res, img, pBRAM, rng)
	} else {
		res.BRAMFaults += d.flipWeights(s, img, pBRAM, rng)
	}
	be := d.backendFor(k)
	var acc []int32
	var dims [3]int
	nd := 0
	var cerr error
	switch op := n.Op.(type) {
	case *nn.Conv2D:
		var sh quant.ConvShape
		if sh, cerr = be.Conv(kn, x, op.Stride, op.Pad, &s.col, &s.acc); cerr == nil {
			acc = s.acc[:sh.AccLen()]
			dims = [3]int{sh.OutC, sh.OutH, sh.OutW}
			nd = 3
		}
	case *nn.Dense:
		var width int
		if width, cerr = be.Dense(kn, x, &s.acc); cerr == nil {
			acc = s.acc[:width]
			dims[0] = width
			nd = 1
		}
	}
	d.restoreWeights(s, img)
	if cerr != nil {
		return fmt.Errorf("dpu: node %q: %w", n.Label, cerr)
	}
	res.MACFaults += injectMACFaults(acc, kn.MACs, pMAC, rng)
	out := s.act(i)
	relu := s.fuseReLU[i] >= 0
	if err := quant.RequantizeInto(out, acc, kn.AccScale, kn.OutScale, k.Bits, relu, dims[:nd]...); err != nil {
		return err
	}
	s.refs[i] = out
	return nil
}

// flipWeights streams weights from BRAM tiles, flipping bits when VCCBRAM
// is underscaled into its fault region. Flips are transient read errors:
// they are applied in place on the shared tensor, recorded in the
// Scratch, and undone by restoreWeights after the kernel call — the
// flip-and-restore replacement for the O(weights) clone per faulted
// layer. The run's exclusivity over the kernel (one task per member,
// serialized under the fleet's member lock) makes the in-place window
// safe.
func (d *DPU) flipWeights(s *Scratch, w *quant.QTensor, pBit float64, rng *rand.Rand) int64 {
	s.flipIdx = s.flipIdx[:0]
	s.flipBit = s.flipBit[:0]
	if pBit <= 0 {
		return 0
	}
	bits := int64(len(w.Data)) * int64(w.Bits)
	k := fabric.SampleFaults(rng, bits, pBit)
	for i := int64(0); i < k; i++ {
		idx := rng.Intn(len(w.Data))
		bit := uint8(rng.Intn(w.Bits))
		w.Data[idx] ^= 1 << bit
		s.flipIdx = append(s.flipIdx, int32(idx))
		s.flipBit = append(s.flipBit, bit)
	}
	return k
}

// restoreWeights undoes the recorded transient flips (XOR is its own
// inverse, so re-flipping in any order restores the original codes) and
// the protected path's byte records (restored newest-first, so
// overlapping writes to the same word unwind correctly).
func (d *DPU) restoreWeights(s *Scratch, w *quant.QTensor) {
	for i, idx := range s.flipIdx {
		w.Data[idx] ^= 1 << s.flipBit[i]
	}
	s.flipIdx = s.flipIdx[:0]
	s.flipBit = s.flipBit[:0]
	for i := len(s.eccIdx) - 1; i >= 0; i-- {
		w.Data[s.eccIdx[i]] = s.eccOld[i]
	}
	s.eccIdx = s.eccIdx[:0]
	s.eccOld = s.eccOld[:0]
}

// faultTileSpan is the blast radius of one timing-fault event. The B4096
// MAC array computes a channel-parallel tile of outputs per cycle; a
// timing violation on a shared partial-sum path corrupts the whole tile,
// not a single accumulator.
const faultTileSpan = 4

// faultBitRange bounds the flipped accumulator bit: most flips land in the
// low-order noise range, a minority in the catastrophic high bits, which
// matches observed undervolting fault severity distributions.
const faultBitRange = 20

// injectMACFaults corrupts sampled accumulator tiles with single-bit
// flips, modeling timing faults in the DSP datapath. The number of events
// is Binomial(MACs, p); each event flips one bit per accumulator of a
// small output tile, producing the realistic spread
// from negligible to catastrophic logit perturbations.
func injectMACFaults(acc []int32, macs int64, p float64, rng *rand.Rand) int64 {
	if p <= 0 || len(acc) == 0 {
		return 0
	}
	k := fabric.SampleFaults(rng, macs, p)
	for i := int64(0); i < k; i++ {
		start := rng.Intn(len(acc))
		for j := 0; j < faultTileSpan && start+j < len(acc); j++ {
			bit := uint(rng.Intn(faultBitRange))
			acc[start+j] ^= 1 << bit
		}
	}
	return k
}

// sigmoidQInto computes sigmoid through the host float path (the DPU
// lacks a native sigmoid; DNNDK falls back to the CPU), staging the float
// intermediate in the Scratch.
func sigmoidQInto(dst *quant.QTensor, s *Scratch, x *quant.QTensor, outScale float32, bits int) error {
	f := floatStage(&s.logits, x.Size())
	x.DequantizeInto(f)
	data := f.Data()
	for i, v := range data {
		data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	if err := quant.QuantizeWithScaleInto(dst, f, outScale, bits); err != nil {
		return err
	}
	dst.Dims = append(dst.Dims[:0], x.Dims...)
	return nil
}
